"""Focal modulation network: layer, block, multi-stage backbone and head.

A focal modulation layer replaces token-to-token attention with three steps:

1. hierarchical contextualization: a channel projection followed by a cascade
   of depth-wise convolutions (one per focal level, GeLU between), plus a
   globally pooled context broadcast back over space. Every block has the
   paper's two focal levels, with kernels `KERNEL_SIZES` (3, then 5),
2. gated aggregation: per-location, per-level scalar gates (one extra gate
   for the pooled level) blend the context maps, and a channel projection of
   the blend yields the modulator,
3. modulation: the query projection of the input is multiplied elementwise
   by the modulator.

The forward returns the modulator of the last block of the last stage next
to the logits, as a plain [B, C, h, w] array; its channel-wise L2 norm is the
saliency map the interpretation pipeline uses.

Feature maps are channel-first batches [B, C, H, W], stored channel-first
(C-contiguous) in memory too: channel projections are applied along the
channel axis at every location through a `moveaxis` pair around
`tensor.linear`, whose output storage makes the pair's result
C-contiguous. The model entry is
where plain arrays meet the autograd tape: it takes a numpy array (or a
`Tensor`, when a gradient must reach the input), and a single [3, H, W]
input too, as a batch of one.

Every module is built in float32; a float64 model (the gradient checks') is
a built one with its parameters cast, and the forward keeps their dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Module, Tensor, check_finite


PATCH_SIZE = 4  # the stem's patch edge
MLP_RATIO = 4  # MLP hidden units per channel
LOGIT_SCALE = 30.0  # cosine-head scale, for scoring and for the training loss
KERNEL_SIZES = (3, 5)  # depth-wise kernel per focal level, in every block


@dataclass(frozen=True)
class FocalNetConfig:
    """Architecture hyperparameters: blocks and channels per stage and the
    class count. Patch size, MLP ratio, logit scale and the focal kernels
    are the constants above, and the norm epsilon is `tensor.layernorm`'s.
    """

    stage_depths: tuple
    stage_dims: tuple
    num_classes: int

    def __post_init__(self):
        for name in ("stage_depths", "stage_dims"):
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) and values
                    and all(type(v) is int and v >= 1 for v in values)):
                raise ValueError(f"{name} must be positive integers, at least one, got {values}")
            object.__setattr__(self, name, tuple(values))
        if len(self.stage_dims) != len(self.stage_depths):
            raise ValueError("stage_dims and stage_depths must have equal length")
        if not (type(self.num_classes) is int and self.num_classes >= 2):
            raise ValueError(f"num_classes must be an integer >= 2, got {self.num_classes}")

    @property
    def focal_levels(self) -> tuple:
        """Focal levels per stage, `len(KERNEL_SIZES)` in each. Derived, not a
        field; the benchmark's op-count test (`perfbench/test_perfbench.py`)
        reads it."""
        return (len(KERNEL_SIZES),) * len(self.stage_depths)

    @classmethod
    def default(cls, num_classes: int = 50) -> "FocalNetConfig":
        """Base variant: 4 stages of (2, 2, 18, 2) blocks and (128, 256, 512,
        1024) channels."""
        return cls(stage_depths=(2, 2, 18, 2), stage_dims=(128, 256, 512, 1024),
                   num_classes=num_classes)

    @classmethod
    def tiny(cls, num_classes: int = 4) -> "FocalNetConfig":
        """Two minimal stages for fast tests (32x32 inputs run in well under a second)."""
        return cls(stage_depths=(1, 1), stage_dims=(8, 16), num_classes=num_classes)

    @classmethod
    def desk(cls, num_classes: int = 4) -> "FocalNetConfig":
        """CPU-scale model for 96x96 inputs: 35,932 parameters at 4 classes."""
        return cls(stage_depths=(2, 2), stage_dims=(16, 32), num_classes=num_classes)


def channel_linear(x: Tensor, layer: "Dense") -> Tensor:
    """Apply a linear map along the channel axis of [..., C, H, W]."""
    return T.moveaxis(layer(T.moveaxis(x, -3, -1)), -1, -3)


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, rng, bias: bool = True):
        self.weight = T.trunc_normal((out_dim, in_dim), rng)
        self.bias = T.zeros_param(out_dim) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class ChannelNorm(Module):
    """Layer normalization over the channel axis of a feature map."""

    def __init__(self, dim: int):
        self.gamma = T.ones_param(dim)
        self.beta = T.zeros_param(dim)

    def forward(self, x: Tensor) -> Tensor:
        return T.layernorm(x, self.gamma, self.beta)


class FocalLayer(Module):
    """Focal modulation over one feature map."""

    def __init__(self, dim: int, rng):
        self.query = Dense(dim, dim, rng)
        self.context_proj = Dense(dim, dim, rng)
        self.gate_proj = Dense(dim, len(KERNEL_SIZES) + 1, rng)
        self.out_proj = Dense(dim, dim, rng)
        self.kernels = [T.trunc_normal((dim, k, k), rng) for k in KERNEL_SIZES]

    def hierarchical_contextualize(self, x: Tensor) -> list:
        """Context maps, coarse to global: L convolved levels plus the pooled
        level broadcast back over space so it can be gated per location."""
        z = channel_linear(x, self.context_proj)
        contexts = []
        for k in self.kernels:
            z = T.gelu(T.dwconv2d(z, k))
            contexts.append(z)
        pooled = T.global_avg_pool(z)
        pooled = T.reshape(pooled, pooled.shape + (1, 1))
        contexts.append(T.broadcast_to(pooled, x.shape))
        return contexts

    def gated_aggregate(self, x: Tensor, contexts: list) -> Tensor:
        """Blend context maps with per-location scalar gates, then project."""
        gates = channel_linear(x, self.gate_proj)
        blended = None
        for lvl, ctx in enumerate(contexts):
            g = gates[..., lvl : lvl + 1, :, :]
            term = g * ctx
            blended = term if blended is None else blended + term
        return channel_linear(blended, self.out_proj)

    def forward(self, x: Tensor) -> tuple:
        """Returns (modulated output, modulator)."""
        modulator = self.gated_aggregate(x, self.hierarchical_contextualize(x))
        return channel_linear(x, self.query) * modulator, modulator


class Mlp(Module):
    def __init__(self, dim: int, hidden: int, rng):
        self.fc1 = Dense(dim, hidden, rng)
        self.fc2 = Dense(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        h = T.moveaxis(x, -3, -1)
        h = self.fc2(T.gelu(self.fc1(h)))
        return T.moveaxis(h, -1, -3)


class FocalBlock(Module):
    """Pre-norm residual block: modulation branch then MLP branch."""

    def __init__(self, dim: int, rng):
        self.norm1 = ChannelNorm(dim)
        self.focal = FocalLayer(dim, rng)
        self.norm2 = ChannelNorm(dim)
        self.mlp = Mlp(dim, dim * MLP_RATIO, rng)

    def forward(self, x: Tensor) -> tuple:
        y, modulator = self.focal(self.norm1(x))
        x = x + y
        x = x + self.mlp(self.norm2(x))
        return x, modulator


class PatchEmbed(Module):
    """Non-overlapping patch projection (convolution with kernel = stride = patch).

    The input's H and W must be multiples of the patch size; `FocalNet`
    checks this once, for every stride, at its entry.
    """

    def __init__(self, in_dim: int, out_dim: int, patch: int, rng):
        self.patch = patch
        self.proj = Dense(in_dim * patch * patch, out_dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        p = self.patch
        b, c, h, w = x.shape
        hp, wp = h // p, w // p
        x = T.reshape(x, (b, c, hp, p, wp, p))
        x = T.transpose(x, (0, 2, 4, 1, 3, 5))
        x = T.reshape(x, (b, hp, wp, c * p * p))
        x = self.proj(x)
        return T.moveaxis(x, -1, -3)


class Stage(Module):
    """Blocks of one resolution (the `stages.i.blocks.j` parameter paths)."""

    def __init__(self, dim: int, depth: int, rng):
        self.blocks = [FocalBlock(dim, rng) for _ in range(depth)]


class FocalNet(Module):
    """Multi-stage backbone with pooled features and a cosine classification head.

    Logits are `LOGIT_SCALE * cosine(features, class weights)`; their softmax
    is the probability the evaluation metrics read. The additive-margin shift
    used during training lives in the loss, not here.
    """

    IN_CHANNELS = 3

    def __init__(self, config: FocalNetConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        dims = config.stage_dims
        self.stem = PatchEmbed(self.IN_CHANNELS, dims[0], PATCH_SIZE, rng)
        self.stages = []
        self.downsamples = []
        for i, depth in enumerate(config.stage_depths):
            self.stages.append(Stage(dims[i], depth, rng))
            if i + 1 < len(dims):
                self.downsamples.append(PatchEmbed(dims[i], dims[i + 1], 2, rng))
        self.final_norm = ChannelNorm(dims[-1])
        self.head = Dense(dims[-1], config.num_classes, rng, bias=False)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward_features(self, x):
        """Backbone up to pooled features [B, C]; returns (features, modulator).

        The modulator is the last block's [B, C, h, w] activation array
        itself, not a copy: callers read it and never write to it, as with
        `.grad`. H and W must be multiples of the total stride s, the stem's
        `PATCH_SIZE` times 2 per later stage (8 for two stages, 32 for four),
        or a `ValueError` names the side; the modulator's cells then tile the
        input exactly, h = H / s and w = W / s.

        `x` is a plain array, wrapped here once with its dtype kept, or a
        `Tensor`. A single input [3, H, W] is a batch of one (through
        `T.reshape`, so a gradient still reaches a `Tensor` input)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim == 3:
            x = T.reshape(x, (1, *x.shape))
        if x.ndim != 4 or x.shape[1] != self.IN_CHANNELS:
            raise ValueError(f"expected input [B, 3, H, W] or [3, H, W], got {x.shape}")
        stride = PATCH_SIZE * 2 ** (len(self.stages) - 1)
        for name, side in zip(("height", "width"), x.shape[2:]):
            if side % stride:
                raise ValueError(
                    f"input {name} {side} is not a multiple of the total stride {stride}")
        x = self.stem(x)
        check_finite(x.data, "stem")
        for i, stage in enumerate(self.stages):
            for j, block in enumerate(stage.blocks):
                x, modulator = block(x)
                check_finite(x.data, f"stage {i} block {j}")
            if i < len(self.downsamples):
                x = self.downsamples[i](x)
                check_finite(x.data, f"downsample {i}")
        x = self.final_norm(x)
        return T.global_avg_pool(x), modulator.data

    def forward(self, x):
        """Returns (logits [B, K], modulator), the modulator as in `forward_features`."""
        feats, modulator = self.forward_features(x)
        return cosine(feats, self.head.weight) * LOGIT_SCALE, modulator

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities [B, K]."""
        with T.no_grad():
            logits, _ = self.forward(x)
            return T.softmax(logits).data


def _l2_normalize(t: Tensor) -> Tensor:
    n = T.sqrt((t * t).sum(axis=-1, keepdims=True) + 1e-12)
    return t / n


def cosine(features: Tensor, weights: Tensor) -> Tensor:
    """Cosine similarity [B, K] of rows [B, D] and [K, D]: the head's logits
    before scaling, and the training loss's before the margin."""
    return T.linear(_l2_normalize(features), _l2_normalize(weights))
