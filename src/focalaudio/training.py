"""Optimization: additive-margin softmax loss, Adam with a cyclic triangular
learning rate and global-norm gradient clipping, the epoch loop, and
checkpoints.

A checkpoint is stored in the package's one binary container
(`audio.write_container` / `audio.read_container`: magic, version, sorted-key
JSON header, little-endian arrays, SHA-256 trailer). The header carries the
three configs as `dataclasses.asdict` dicts, the history and the Adam step;
the arrays are the parameters and the Adam moments, by parameter path.

Training is serial and deterministic given the run seed: data order is
shuffled per epoch from (seed, epoch), augmentation randomness is derived
from (seed, epoch, clip id), and the optimizer state round-trips through
checkpoints bitwise, so resuming mid-run reproduces the one-shot loss curve.

Note on the preset schedule: with the standard preset (step size 65000) a
100-epoch run over ~1200 clips at batch 16 performs ~7500 steps, so the
learning rate never leaves the first ascent of the triangular cycle. That is
replicated as configured, not corrected.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import (AugmentPolicy, ContainerError, FrontendConfig, augment, read_container,
                    write_container)
from .focalnet import FocalNet, FocalNetConfig, _l2_normalize
from .metrics import batched_logits
from .tensor import NumericalError, Tensor, backward


# unreadable checkpoint files and checkpoints that do not fit the model
CheckpointError = ContainerError


class TrainingDiverged(RuntimeError):
    """Loss left the finite domain; carries the last finite checkpoint."""

    def __init__(self, message: str, checkpoint: "Checkpoint | None" = None):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; the defaults are the full-scale preset
    (batch 16, 100 epochs, lr 1e-8 to 2e-4 with step size 65000, weight decay
    2e-6, clip 5, margin 0.2, scale 30, augment probability 0.75)."""

    batch_size: int = 16
    epochs: int = 100
    lr_min: float = 1e-8
    lr_max: float = 2e-4
    step_size: int = 65000
    weight_decay: float = 2e-6
    grad_clip_norm: float = 5.0
    am_margin: float = 0.2
    am_scale: float = 30.0
    augment_prob: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        for name in ("batch_size", "epochs", "step_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.am_margin < 0 or self.am_scale <= 0:
            raise ValueError("margin must be >= 0 and scale > 0")
        if not 0.0 <= self.augment_prob <= 1.0:
            raise ValueError("augment_prob must be in [0, 1]")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """CPU-scale preset for the synthetic-tone experiment."""
        base = dict(batch_size=16, epochs=30, lr_min=1e-5, lr_max=3e-3,
                    step_size=200, weight_decay=2e-6, grad_clip_norm=5.0,
                    augment_prob=0.75, seed=0)
        base.update(overrides)
        return cls(**base)


# ---------------------------------------------------------------------------
# loss and schedule
# ---------------------------------------------------------------------------

def am_softmax_loss(features: Tensor, class_weights: Tensor, labels, margin: float,
                    scale: float, clip_ids=None) -> Tensor:
    """Cross-entropy over scale * (cosine - margin at the true class).

    Features and class weights are L2-normalized internally. A zero-norm
    feature row is a numerical error (named by clip id when given).
    """
    if margin < 0 or scale <= 0:
        raise ValueError("margin must be >= 0 and scale > 0")
    if features.ndim != 2 or class_weights.ndim != 2:
        raise ValueError("features must be [B, D] and class_weights [K, D]")
    labels = np.asarray(labels, dtype=np.int64)
    norms = np.linalg.norm(features.data, axis=-1)
    if (norms < 1e-12).any():
        bad = int(np.argmin(norms))
        who = clip_ids[bad] if clip_ids is not None else f"batch row {bad}"
        raise NumericalError(f"zero-norm feature row for {who}")
    fn = _l2_normalize(features)
    wn = _l2_normalize(class_weights)
    cosine = T.linear(fn, wn)  # [B, K]
    dtype = features.dtype.type
    onehot = np.zeros(cosine.shape, dtype=features.dtype)
    onehot[np.arange(labels.size), labels] = 1.0
    logits = (cosine - Tensor(onehot * dtype(margin))) * dtype(scale)
    # logsumexp with a constant max shift; its gradient is plain softmax
    shift = logits.data.max(axis=-1, keepdims=True)
    lse = T.log(T.exp(logits - Tensor(shift)).sum(axis=-1)) + Tensor(shift[:, 0])
    picked = (logits * Tensor(onehot)).sum(axis=-1)
    return (lse - picked).mean()


def cyclic_lr(step: int, lr_min: float, lr_max: float, step_size: int) -> float:
    """Triangular wave: lr_min -> lr_max over step_size steps, back down, repeat."""
    if step < 0:
        raise ValueError("step must be >= 0")
    pos = step % (2 * step_size)
    if pos > step_size:
        pos = 2 * step_size - pos
    return lr_min + (lr_max - lr_min) * (pos / step_size)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def optimizer_step(params: dict, state: AdamState, lr: float, weight_decay: float = 0.0,
                   clip_norm: float | None = None, betas=(0.9, 0.999), eps: float = 1e-8) -> float:
    """Global-norm clipping, then Adam with decoupled weight decay.

    Returns the pre-clip global gradient norm. Missing gradients count as
    zero; a non-finite gradient aborts naming the parameter path.
    """
    grads = {}
    sq = 0.0
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in parameter {name}")
        grads[name] = g
        sq += float((g.astype(np.float64) ** 2).sum())
    gnorm = float(np.sqrt(sq))
    if clip_norm is not None and gnorm > clip_norm:
        factor = clip_norm / gnorm
        grads = {k: g * g.dtype.type(factor) for k, g in grads.items()}
    state.t += 1
    b1, b2 = betas
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        update = mhat / (np.sqrt(vhat) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - p.data.dtype.type(lr) * update
    return gnorm


# ---------------------------------------------------------------------------
# data containers and the epoch loop
# ---------------------------------------------------------------------------

@dataclass
class ClipSet:
    """Preprocessed model inputs ready for training or evaluation."""

    inputs: np.ndarray  # [N, 3, S, S] float32
    labels: np.ndarray  # [N] int64
    clip_ids: list

    def __post_init__(self):
        if len(self.inputs) != len(self.labels) or len(self.labels) != len(self.clip_ids):
            raise ValueError("inputs, labels and clip_ids must align")

    def __len__(self):
        return len(self.labels)


@dataclass
class Checkpoint:
    params: dict  # name -> ndarray
    optimizer: AdamState
    train_config: TrainConfig
    model_config: FocalNetConfig
    frontend: FrontendConfig
    history: list

    def build_model(self, dtype=np.float32) -> FocalNet:
        model = FocalNet(self.model_config, seed=0, dtype=dtype)
        named = dict(model.named_parameters())
        missing = set(named) ^ set(self.params)
        if missing:
            raise CheckpointError(f"parameter set mismatch: {sorted(missing)}")
        for name, p in named.items():
            stored = self.params[name]
            if stored.shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for {name}")
            p.data = stored.astype(dtype, copy=True)
        return model

    def model_id(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tobytes())
        return h.hexdigest()[:12]


def _snapshot(model: FocalNet, state: AdamState, config: TrainConfig,
              frontend: FrontendConfig, history: list) -> Checkpoint:
    return Checkpoint(
        params={k: p.data.copy() for k, p in model.named_parameters()},
        optimizer=AdamState(
            m={k: v.copy() for k, v in state.m.items()},
            v={k: v.copy() for k, v in state.v.items()},
            t=state.t,
        ),
        train_config=config,
        model_config=model.config,
        frontend=frontend,
        history=[dict(h) for h in history],
    )


@dataclass
class FitResult:
    best: Checkpoint
    last: Checkpoint
    history: list
    log_lines: list


def _clip_seed(seed: int, epoch: int, clip_id: str) -> list:
    return [seed, epoch, zlib.crc32(str(clip_id).encode())]


def evaluate_accuracy(model: FocalNet, data: ClipSet, batch_size: int = 16) -> float:
    logits, _ = batched_logits(model, data.inputs, batch_size)
    return float((np.argmax(logits, axis=-1) == data.labels).mean())


def fit(model: FocalNet, train: ClipSet, val: ClipSet, config: TrainConfig,
        frontend: FrontendConfig | None = None, run_dir=None,
        start_epoch: int = 0, optimizer_state: AdamState | None = None,
        policy: AugmentPolicy | None = None) -> FitResult:
    """Epoch loop with augmentation (training only), per-epoch validation
    accuracy and best-on-validation checkpointing. Deterministic given the
    config seed; supports resuming via `start_epoch` + `optimizer_state`.

    Each step logs `step`, `lr`, `loss` and `grad_norm`, which are
    deterministic, plus `step_s` (wall time of forward, backward and
    optimizer step, augmentation excluded) and `clips_per_s` (batch clips
    over `step_s`), which are not.
    """
    frontend = frontend or FrontendConfig(input_size=train.inputs.shape[-1])
    policy = policy or AugmentPolicy(probability=config.augment_prob)
    params = dict(model.named_parameters())
    state = optimizer_state or AdamState()
    history: list = []
    log_lines: list = []
    best: Checkpoint | None = None
    best_acc = -1.0
    log_file = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        log_file = open(run_dir / "train_log.jsonl", "a")
    try:
        step = state.t
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(len(train))
            losses = []
            lr = cyclic_lr(step, config.lr_min, config.lr_max, config.step_size)
            for lo in range(0, len(order), config.batch_size):
                idx = order[lo : lo + config.batch_size]
                xb = np.stack([
                    augment(Tensor(train.inputs[i]), policy,
                            _clip_seed(config.seed, epoch, train.clip_ids[i])).data
                    for i in idx
                ])
                yb = train.labels[idx]
                t0 = time.perf_counter()
                model.zero_grad()
                feats, _ = model.forward_features(Tensor(xb))
                loss = am_softmax_loss(feats, model.head.weight, yb,
                                       config.am_margin, config.am_scale,
                                       clip_ids=[train.clip_ids[i] for i in idx])
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    ckpt = _snapshot(model, state, config, frontend, history)
                    raise TrainingDiverged(
                        f"loss diverged at epoch {epoch} step {step}", checkpoint=ckpt
                    )
                backward(loss)
                lr = cyclic_lr(step, config.lr_min, config.lr_max, config.step_size)
                gnorm = optimizer_step(params, state, lr,
                                       weight_decay=config.weight_decay,
                                       clip_norm=config.grad_clip_norm)
                step_s = time.perf_counter() - t0
                losses.append(loss_val)
                line = {"step": step, "lr": lr, "loss": loss_val, "grad_norm": gnorm,
                        "step_s": step_s, "clips_per_s": len(idx) / step_s}
                log_lines.append(line)
                if log_file is not None:
                    log_file.write(json.dumps(line) + "\n")
                step += 1
            val_acc = evaluate_accuracy(model, val, batch_size=config.batch_size)
            history.append({
                "epoch": epoch,
                "train_loss": float(np.mean(losses)) if losses else float("nan"),
                "val_acc": val_acc,
                "lr": lr,
            })
            if val_acc > best_acc:
                best_acc = val_acc
                best = _snapshot(model, state, config, frontend, history)
    finally:
        if log_file is not None:
            log_file.close()
    last = _snapshot(model, state, config, frontend, history)
    if best is None:
        best = last
    return FitResult(best=best, last=last, history=history, log_lines=log_lines)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FOCALCK1"
_CKPT_VERSION = 1


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Parameters and Adam moments by path, configs, history and Adam step."""
    header = {
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "frontend": asdict(ckpt.frontend),
        "history": ckpt.history,
        "optimizer_t": ckpt.optimizer.t,
    }
    arrays = {"param": ckpt.params, "adam_m": ckpt.optimizer.m, "adam_v": ckpt.optimizer.v}
    write_container(path, _CKPT_MAGIC, _CKPT_VERSION, header, arrays)


def load_checkpoint(path) -> Checkpoint:
    """The container is validated before anything is built."""
    header, arrays = read_container(path, _CKPT_MAGIC, _CKPT_VERSION)
    return Checkpoint(
        params=arrays.get("param", {}),
        optimizer=AdamState(m=arrays.get("adam_m", {}), v=arrays.get("adam_v", {}),
                            t=header["optimizer_t"]),
        train_config=TrainConfig(**header["train_config"]),
        model_config=FocalNetConfig(**header["model_config"]),
        frontend=FrontendConfig(**header["frontend"]),
        history=header["history"],
    )
