"""Focal modulation network: layer, block, multi-stage backbone and head.

A focal modulation layer replaces token-to-token attention with three steps:

1. hierarchical contextualization: a channel projection followed by a cascade
   of depth-wise convolutions (one per focal level, GeLU between), plus a
   globally pooled context broadcast back over space,
2. gated aggregation: per-location, per-level scalar gates (one extra gate
   for the pooled level) blend the context maps, and a channel projection of
   the blend yields the modulator,
3. modulation: the query projection of the input is multiplied elementwise
   by the modulator.

The modulator of the last block of the last stage is cached on request; its
channel-wise L2 norm is the saliency map the interpretation pipeline uses.

Feature maps are channel-first batches [B, C, H, W]; channel projections
are applied along the channel axis at every location. Only the model entry
takes a single [3, H, W] input too, as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Module, Tensor, check_finite


def _levels_per_stage(value, n_stages: int):
    """A single int applies to all stages; otherwise one int per stage."""
    if isinstance(value, int):
        return tuple([value] * n_stages)
    value = tuple(int(v) for v in value)
    if len(value) != n_stages:
        raise ValueError("focal_levels must be an int or one int per stage")
    return value


def _kernels_per_stage(value, n_stages: int):
    """A flat tuple of ints is the shared per-level kernel list; otherwise
    one per-level sequence per stage."""
    value = tuple(value)
    if all(isinstance(v, int) for v in value):
        return tuple([value] * n_stages)
    if len(value) != n_stages:
        raise ValueError("kernel_sizes must be a per-level tuple or one such tuple per stage")
    return tuple(tuple(int(k) for k in v) for v in value)


@dataclass(frozen=True)
class FocalNetConfig:
    """Architecture hyperparameters.

    `stage_dims` doubles between consecutive stages unless an explicit tuple
    overrides that; `focal_levels` / `kernel_sizes` may be given once and are
    replicated per stage.
    """

    stage_depths: tuple
    stage_dims: tuple
    num_classes: int
    patch_size: int = 4
    focal_levels: tuple = 2
    kernel_sizes: tuple = (3, 5)
    mlp_ratio: float = 4.0
    logit_scale: float = 30.0
    norm_eps: float = 1e-5

    def __post_init__(self):
        n = len(self.stage_depths)
        object.__setattr__(self, "stage_depths", tuple(int(d) for d in self.stage_depths))
        object.__setattr__(self, "stage_dims", tuple(int(d) for d in self.stage_dims))
        object.__setattr__(self, "focal_levels", _levels_per_stage(self.focal_levels, n))
        object.__setattr__(self, "kernel_sizes", _kernels_per_stage(self.kernel_sizes, n))
        if len(self.stage_dims) != n:
            raise ValueError("stage_dims and stage_depths must have equal length")
        if any(d < 1 for d in self.stage_depths):
            raise ValueError("every stage needs at least one block")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        for levels, kernels in zip(self.focal_levels, self.kernel_sizes):
            if len(kernels) != levels:
                raise ValueError(f"{levels} focal levels need {levels} kernel sizes, got {kernels}")
            if any(k % 2 == 0 for k in kernels):
                raise ValueError(f"kernel sizes must be odd, got {kernels}")

    @classmethod
    def with_doubling(cls, base_dim: int, stage_depths, **kw) -> "FocalNetConfig":
        dims = tuple(base_dim * (2**i) for i in range(len(stage_depths)))
        return cls(stage_depths=tuple(stage_depths), stage_dims=dims, **kw)

    @classmethod
    def default(cls, num_classes: int = 50) -> "FocalNetConfig":
        """Base variant: 4 stages of (2, 2, 18, 2) blocks, 128 base channels,
        2 focal levels with kernels (3, 5), patch size 4."""
        return cls.with_doubling(128, (2, 2, 18, 2), num_classes=num_classes)

    @classmethod
    def tiny(cls, num_classes: int = 4) -> "FocalNetConfig":
        """Two minimal stages for fast tests (32x32 inputs run in well under a second)."""
        return cls(stage_depths=(1, 1), stage_dims=(8, 16), num_classes=num_classes)

    @classmethod
    def desk(cls, num_classes: int = 4) -> "FocalNetConfig":
        """Small model for CPU-scale experiments on 96x96 inputs (<1M params)."""
        return cls(stage_depths=(2, 2), stage_dims=(16, 32), num_classes=num_classes)


@dataclass
class ModulatorCache:
    """Modulator of the final focal block of the final stage, one forward pass
    of a batch (a single input is a batch of one)."""

    modulator: np.ndarray  # [B, C, h, w]
    stage_index: int
    block_index: int
    input_hw: tuple  # spatial size the model was fed, before padding
    total_stride: int

    @property
    def valid_hw(self) -> tuple:
        """Feature cells covering the unpadded input."""
        h, w = self.input_hw
        s = self.total_stride
        return (-(-h // s), -(-w // s))


def channel_linear(x: Tensor, layer: "Dense") -> Tensor:
    """Apply a linear map along the channel axis of [..., C, H, W]."""
    return T.moveaxis(layer(T.moveaxis(x, -3, -1)), -1, -3)


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, rng, dtype, bias: bool = True):
        self.weight = T.trunc_normal((out_dim, in_dim), rng, dtype=dtype)
        self.bias = T.zeros_param(out_dim, dtype=dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class ChannelNorm(Module):
    """Layer normalization over the channel axis of a feature map."""

    def __init__(self, dim: int, eps: float, dtype):
        self.gamma = T.ones_param(dim, dtype=dtype)
        self.beta = T.zeros_param(dim, dtype=dtype)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return T.layernorm(x, self.gamma, self.beta, eps=self.eps, axis=-3)


class FocalLayer(Module):
    """Focal modulation over one feature map."""

    def __init__(self, dim: int, levels: int, kernel_sizes, rng, dtype):
        if len(kernel_sizes) != levels:
            raise ValueError("one kernel size per focal level required")
        self.dim = dim
        self.levels = levels
        self.query = Dense(dim, dim, rng, dtype)
        self.context_proj = Dense(dim, dim, rng, dtype)
        self.gate_proj = Dense(dim, levels + 1, rng, dtype)
        self.out_proj = Dense(dim, dim, rng, dtype)
        self.kernels = [T.trunc_normal((dim, k, k), rng, dtype=dtype) for k in kernel_sizes]

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
        if len(contexts) != self.levels + 1:
            raise ValueError(f"expected {self.levels + 1} context maps, got {len(contexts)}")
        gates = channel_linear(x, self.gate_proj)
        blended = None
        for lvl, ctx in enumerate(contexts):
            g = gates[..., lvl : lvl + 1, :, :]
            term = g * ctx
            blended = term if blended is None else blended + term
        return channel_linear(blended, self.out_proj)

    def focal_modulation(self, x: Tensor) -> tuple:
        """Returns (modulated output, modulator)."""
        modulator = self.gated_aggregate(x, self.hierarchical_contextualize(x))
        y = channel_linear(x, self.query) * modulator
        return y, modulator

    def forward(self, x: Tensor) -> tuple:
        return self.focal_modulation(x)


class Mlp(Module):
    def __init__(self, dim: int, hidden: int, rng, dtype):
        self.fc1 = Dense(dim, hidden, rng, dtype)
        self.fc2 = Dense(hidden, dim, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = T.moveaxis(x, -3, -1)
        h = self.fc2(T.gelu(self.fc1(h)))
        return T.moveaxis(h, -1, -3)


class FocalBlock(Module):
    """Pre-norm residual block: modulation branch then MLP branch."""

    def __init__(self, dim: int, levels: int, kernel_sizes, mlp_ratio: float, norm_eps: float, rng, dtype):
        self.norm1 = ChannelNorm(dim, norm_eps, dtype)
        self.focal = FocalLayer(dim, levels, kernel_sizes, rng, dtype)
        self.norm2 = ChannelNorm(dim, norm_eps, dtype)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), rng, dtype)

    def forward(self, x: Tensor) -> tuple:
        y, modulator = self.focal(self.norm1(x))
        x = x + y
        x = x + self.mlp(self.norm2(x))
        return x, modulator


class PatchEmbed(Module):
    """Non-overlapping patch projection (convolution with kernel = stride = patch).

    Inputs not divisible by the patch size are zero-padded at the right and
    bottom edges to the next multiple.
    """

    def __init__(self, in_dim: int, out_dim: int, patch: int, rng, dtype):
        self.patch = patch
        self.proj = Dense(in_dim * patch * patch, out_dim, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        p = self.patch
        b, c, h, w = x.shape
        pad_h = (-h) % p
        pad_w = (-w) % p
        if pad_h or pad_w:
            x = T.pad_bottom_right(x, pad_h, pad_w)
        hp, wp = (h + pad_h) // p, (w + pad_w) // p
        x = T.reshape(x, (b, c, hp, p, wp, p))
        x = T.transpose(x, (0, 2, 4, 1, 3, 5))
        x = T.reshape(x, (b, hp, wp, c * p * p))
        x = self.proj(x)
        return T.moveaxis(x, -1, -3)


class Stage(Module):
    """Blocks of one resolution (the `stages.i.blocks.j` parameter paths)."""

    def __init__(self, dim: int, depth: int, levels: int, kernel_sizes, mlp_ratio, norm_eps, rng, dtype):
        self.blocks = [
            FocalBlock(dim, levels, kernel_sizes, mlp_ratio, norm_eps, rng, dtype)
            for _ in range(depth)
        ]


class FocalNet(Module):
    """Multi-stage backbone with pooled features and a cosine classification head.

    Logits are `logit_scale * cosine(features, class weights)`; their softmax
    is the probability the evaluation metrics read. The additive-margin shift
    used during training lives in the loss, not here.
    """

    IN_CHANNELS = 3

    def __init__(self, config: FocalNetConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.config = config
        self.dtype = dtype
        dims = config.stage_dims
        self.stem = PatchEmbed(self.IN_CHANNELS, dims[0], config.patch_size, rng, dtype)
        self.stages = []
        self.downsamples = []
        for i, depth in enumerate(config.stage_depths):
            self.stages.append(
                Stage(dims[i], depth, config.focal_levels[i], config.kernel_sizes[i],
                      config.mlp_ratio, config.norm_eps, rng, dtype)
            )
            if i + 1 < len(dims):
                self.downsamples.append(PatchEmbed(dims[i], dims[i + 1], 2, rng, dtype))
        self.final_norm = ChannelNorm(dims[-1], config.norm_eps, dtype)
        self.head = Dense(dims[-1], config.num_classes, rng, dtype, bias=False)

    @property
    def total_stride(self) -> int:
        return self.config.patch_size * (2 ** (len(self.config.stage_depths) - 1))

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward_features(self, x: Tensor, cache_modulator: bool = False):
        """Backbone up to pooled features [B, C]; returns (features, cache).
        The one place that takes a single input [3, H, W], as a batch of one
        (through `T.reshape`, so a gradient still reaches it)."""
        if x.ndim == 3:
            x = T.reshape(x, (1, *x.shape))
        if x.ndim != 4 or x.shape[1] != self.IN_CHANNELS:
            raise ValueError(f"expected input [B, 3, H, W] or [3, H, W], got {x.shape}")
        input_hw = (x.shape[-2], x.shape[-1])
        x = self.stem(x)
        check_finite(x.data, "stem")
        modulator = None
        last_stage = len(self.stages) - 1
        for i, stage in enumerate(self.stages):
            for j, block in enumerate(stage.blocks):
                x, m = block(x)
                check_finite(x.data, f"stage {i} block {j}")
                if i == last_stage:
                    modulator = m
            if i < len(self.downsamples):
                x = self.downsamples[i](x)
                check_finite(x.data, f"downsample {i}")
        x = self.final_norm(x)
        feats = T.global_avg_pool(x)
        cache = None
        if cache_modulator:
            cache = ModulatorCache(
                modulator=np.array(modulator.data, copy=True),
                stage_index=last_stage,
                block_index=len(self.stages[last_stage].blocks) - 1,
                input_hw=input_hw,
                total_stride=self.total_stride,
            )
        return feats, cache

    def logits_from_features(self, feats: Tensor) -> Tensor:
        """Scaled cosine similarity against the head's class-weight rows."""
        fn = _l2_normalize(feats)
        wn = _l2_normalize(self.head.weight)
        return T.linear(fn, wn) * self.dtype(self.config.logit_scale)

    def forward(self, x: Tensor, cache_modulator: bool = False):
        feats, cache = self.forward_features(x, cache_modulator=cache_modulator)
        return self.logits_from_features(feats), cache

    def predict_proba(self, x: Tensor) -> np.ndarray:
        """Class probabilities [B, K]."""
        with T.no_grad():
            logits, _ = self.forward(x)
            return T.softmax(logits, axis=-1).data


def _l2_normalize(t: Tensor, eps: float = 1e-12) -> Tensor:
    n = T.sqrt((t * t).sum(axis=-1, keepdims=True) + eps)
    return t / n
