"""Optimization: additive-margin softmax loss, Adam with a cyclic triangular
learning rate and global-norm gradient clipping, the epoch loop, and
checkpoints.

The checkpoint file is the package's one binary format:

    b"FOCALCK1" | <IQ version (3), header length | JSON header | payload
    | SHA-256 of everything before it (32 bytes)

The header is sorted-key JSON: the three configs as `dataclasses.asdict`
dicts (`model_config`, `train_config`, `frontend`), the `history`, the Adam
step `optimizer_t`, and `arrays`, the index of the payload. It holds one
{kind, name, dtype, shape, offset, nbytes} record per little-endian array
(float64 stays "<f8", everything else is stored as "<f4"), written kind by
kind (`param`, `adam_m`, `adam_v`) and by sorted parameter path within a
kind. Version 3's `model_config` holds `stage_depths`, `stage_dims`,
`num_classes` and `kernel_sizes`, and its `frontend` holds `input_size`
alone. Older files are refused by their version: version 1's configs also
held the architecture constants and the loss scale, and version 2's
`frontend` also held the STFT geometry, now `audio`'s constants.

Training is serial and deterministic given the run seed: data order is
shuffled per epoch from (seed, epoch), augmentation randomness is derived
from (seed, epoch, clip id), and the optimizer state round-trips through
checkpoints bitwise, so resuming mid-run reproduces the one-shot loss curve
and Adam state, but restarts `history` and the best-on-validation choice.

Note on the preset schedule: with the standard preset (step size 65000) a
100-epoch run over ~1200 clips at batch 16 performs ~7500 steps, so the
learning rate never leaves the first ascent of the triangular cycle. That is
replicated as configured, not corrected.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
import zlib
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import FrontendConfig, augment
from .data import ClipSet
from .focalnet import LOGIT_SCALE, FocalNet, FocalNetConfig, cosine
from .interpret import logits_and_maps
from .metrics import accuracy
from .tensor import NumericalError, Tensor, backward


class CheckpointError(ValueError):
    """An unreadable checkpoint file, named with the check that failed
    (magic, length, checksum, version or header), or a checkpoint that does
    not fit its model, named with the parameter."""


class TrainingDiverged(RuntimeError):
    """Loss left the finite domain; carries the last finite checkpoint."""

    def __init__(self, message: str, checkpoint: "Checkpoint | None" = None):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; the defaults are the full-scale preset
    (batch 16, 100 epochs, lr 1e-8 to 2e-4 with step size 65000, weight decay
    2e-6, clip 5, margin 0.2, augment probability 0.75). The loss's scale is
    the model head's, `focalnet.LOGIT_SCALE`."""

    batch_size: int = 16
    epochs: int = 100
    lr_min: float = 1e-8
    lr_max: float = 2e-4
    step_size: int = 65000
    weight_decay: float = 2e-6
    grad_clip_norm: float = 5.0
    am_margin: float = 0.2
    augment_prob: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        for name in ("lr_min", "weight_decay", "am_margin"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.grad_clip_norm > 0:
            raise ValueError("grad_clip_norm must be positive")
        for name, least in (("batch_size", 1), ("epochs", 1), ("step_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (type(value) is int and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 <= self.augment_prob <= 1.0:
            raise ValueError("augment_prob must be in [0, 1]")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """CPU-scale preset for the synthetic-tone experiment: the defaults
        with 30 epochs and lr 1e-5 to 3e-3 over step size 200."""
        return cls(**{"epochs": 30, "lr_min": 1e-5, "lr_max": 3e-3, "step_size": 200,
                      **overrides})


# ---------------------------------------------------------------------------
# loss and schedule
# ---------------------------------------------------------------------------

def am_softmax_loss(features: Tensor, class_weights: Tensor, labels, margin: float,
                    scale: float, clip_ids=None) -> Tensor:
    """Cross-entropy over scale * (cosine - margin at the true class).

    The cosine is `focalnet.cosine`, the model head's own, and `fit` passes
    the head's scale, `focalnet.LOGIT_SCALE`. A missing, fractional or
    out-of-range label is a `ValueError` and a zero-norm feature row a
    numerical error, each naming the clip id when given, else the batch row.
    """
    if margin < 0 or scale <= 0:
        raise ValueError("margin must be >= 0 and scale > 0")
    if features.ndim != 2 or class_weights.ndim != 2:
        raise ValueError("features must be [B, D] and class_weights [K, D]")

    def who(row) -> str:
        return f"clip {clip_ids[row]}" if clip_ids is not None else f"batch row {row}"

    rows, classes = features.shape[0], class_weights.shape[0]
    given = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # a NaN label is reported below, not warned about
        labels = given.astype(np.int64)
    if labels.ndim != 1 or labels.size > rows:
        raise ValueError(f"labels of shape {labels.shape} for {rows} feature rows")
    if labels.size < rows:
        raise ValueError(f"no label for {who(labels.size)}: {labels.size} labels "
                         f"for {rows} feature rows")
    bad = np.flatnonzero(labels != given)
    if bad.size:
        raise ValueError(f"label {given[bad[0]]} of {who(bad[0])} is not a whole number")
    bad = np.flatnonzero((labels < 0) | (labels >= classes))
    if bad.size:
        raise ValueError(f"label {labels[bad[0]]} of {who(bad[0])} is outside "
                         f"the {classes} classes [0, {classes})")
    norms = np.linalg.norm(features.data, axis=-1)
    if (norms < 1e-12).any():
        raise NumericalError(f"zero-norm feature row for {who(int(np.argmin(norms)))}")
    cos = cosine(features, class_weights)  # [B, K]
    dtype = features.dtype.type
    onehot = np.zeros(cos.shape, dtype=features.dtype)
    onehot[np.arange(rows), labels] = 1.0
    logits = (cos + Tensor(onehot * dtype(-margin))) * dtype(scale)
    return T.cross_entropy(logits, onehot)


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
                   clip_norm: float | None = None) -> float:
    """Global-norm clipping, then Adam (betas 0.9 and 0.999, eps 1e-8) with
    decoupled weight decay.

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
    b1, b2, eps = 0.9, 0.999, 1e-8
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
class Checkpoint:
    params: dict  # name -> ndarray
    optimizer: AdamState
    train_config: TrainConfig
    model_config: FocalNetConfig
    frontend: FrontendConfig
    history: list

    def build_model(self) -> FocalNet:
        """A float32 model holding the stored parameters."""
        model = FocalNet(self.model_config, seed=0)
        named = dict(model.named_parameters())
        missing = set(named) ^ set(self.params)
        if missing:
            raise CheckpointError(f"parameter set mismatch: {sorted(missing)}")
        for name, p in named.items():
            stored = self.params[name]
            if stored.shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for {name}")
            p.data = stored.astype(np.float32, copy=True)
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
    logits, _ = logits_and_maps(model, data.inputs, batch_size)
    return accuracy(np.argmax(logits, axis=-1), data.labels)


def fit(model: FocalNet, train: ClipSet, val: ClipSet, config: TrainConfig,
        frontend: FrontendConfig, run_dir=None,
        start_epoch: int = 0, optimizer_state: AdamState | None = None) -> FitResult:
    """Epoch loop with augmentation (training only), per-epoch validation
    accuracy and best-on-validation checkpointing. Deterministic given the
    config seed. `frontend` is the config that made the inputs; every
    checkpoint records it. A resume from `start_epoch` with the earlier run's
    `optimizer_state` (updated in place) keeps its loss curve and Adam state
    bitwise but loses its `history` and best-on-validation choice: `history`
    starts at `start_epoch` and `best` is chosen among the resumed epochs.
    The loss is `am_softmax_loss` at the head's scale, `focalnet.LOGIT_SCALE`,
    the one `predict_proba`, FID-I and FA score at.

    Each step logs `step` (Adam's `t` before it), `lr`, `loss` and
    `grad_norm`, which are deterministic, plus `step_s` (wall time of
    forward, backward and optimizer step, augmentation excluded) and
    `clips_per_s` (batch clips over `step_s`), which are not.
    """
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
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(len(train))
            losses = []
            lr = cyclic_lr(state.t, config.lr_min, config.lr_max, config.step_size)
            for lo in range(0, len(order), config.batch_size):
                idx = order[lo : lo + config.batch_size]
                xb = np.stack([
                    augment(train.inputs[i], config.augment_prob,
                            _clip_seed(config.seed, epoch, train.clip_ids[i]))
                    for i in idx
                ])
                yb = train.labels[idx]
                t0 = time.perf_counter()
                model.zero_grad()
                feats, _ = model.forward_features(xb)
                loss = am_softmax_loss(feats, model.head.weight, yb,
                                       config.am_margin, LOGIT_SCALE,
                                       clip_ids=[train.clip_ids[i] for i in idx])
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    ckpt = _snapshot(model, state, config, frontend, history)
                    raise TrainingDiverged(
                        f"loss diverged at epoch {epoch} step {state.t}", checkpoint=ckpt
                    )
                backward(loss)
                lr = cyclic_lr(state.t, config.lr_min, config.lr_max, config.step_size)
                gnorm = optimizer_step(params, state, lr,
                                       weight_decay=config.weight_decay,
                                       clip_norm=config.grad_clip_norm)
                step_s = time.perf_counter() - t0
                losses.append(loss_val)
                line = {"step": state.t - 1, "lr": lr, "loss": loss_val, "grad_norm": gnorm,
                        "step_s": step_s, "clips_per_s": len(idx) / step_s}
                log_lines.append(line)
                if log_file is not None:
                    log_file.write(json.dumps(line) + "\n")
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
_CKPT_VERSION = 3


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Parameters and Adam moments by path, configs, history and Adam step,
    in the layout of the module docstring."""
    index = []
    raws = []
    offset = 0
    for kind, named in (("param", ckpt.params), ("adam_m", ckpt.optimizer.m),
                        ("adam_v", ckpt.optimizer.v)):
        for name in sorted(named):
            arr = named[name]
            dt = "<f8" if arr.dtype == np.float64 else "<f4"
            raw = np.ascontiguousarray(arr, dtype=dt)
            index.append({"kind": kind, "name": name, "dtype": dt,
                          "shape": list(arr.shape), "offset": offset, "nbytes": raw.nbytes})
            raws.append(raw)
            offset += raw.nbytes
    head = json.dumps({
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "frontend": asdict(ckpt.frontend),
        "history": ckpt.history,
        "optimizer_t": ckpt.optimizer.t,
        "arrays": index,
    }, sort_keys=True).encode()
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in (_CKPT_MAGIC + struct.pack("<IQ", _CKPT_VERSION, len(head)) + head, *raws):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def load_checkpoint(path) -> Checkpoint:
    """Magic, length, checksum and version are checked, in that order, before
    the header is parsed or anything is built (a file shorter than the magic
    is reported as truncated). The header's `optimizer_t` must be an integer
    >= 0, and its array index must describe the layout the writer makes:
    each (kind, name) once and of a kind the writer writes, each record at
    the running offset from 0 with size x itemsize bytes, the records
    covering the payload exactly. Then every Adam moment must belong to a
    stored parameter of its shape. Any failure raises `CheckpointError`."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    magic_len = len(_CKPT_MAGIC)
    prefix = magic_len + 12
    if len(blob) < magic_len:
        raise CheckpointError(f"{path}: truncated, {len(blob)} bytes")
    if blob[:magic_len] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: magic mismatch, not a {_CKPT_MAGIC.decode()} container")
    if len(blob) < prefix + 32:
        raise CheckpointError(f"{path}: truncated, {len(blob)} bytes")
    body = blob[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise CheckpointError(f"{path}: checksum mismatch, refusing to load")
    found, hlen = struct.unpack("<IQ", body[magic_len:prefix])
    if found != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {found}, expected {_CKPT_VERSION}")
    payload = body[prefix + hlen :]
    arrays: dict = {}
    try:  # a checksummed file can still come from another writer
        header = json.loads(bytes(body[prefix : prefix + hlen]))
        index, t = header.pop("arrays"), header["optimizer_t"]
        if type(t) is not int or t < 0:
            raise ValueError(f"optimizer_t {t!r} is not an integer >= 0")
        offset = 0  # records lie end to end, in order, from the payload's start
        for a in index:
            what = f"array {a['kind']} {a['name']}"
            if a["kind"] not in ("param", "adam_m", "adam_v"):
                raise ValueError(f"{what} is of no known kind")
            if a["name"] in arrays.get(a["kind"], {}):
                raise ValueError(f"{what} is listed twice")
            shape = a["shape"]
            if not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"{what} has shape {shape}")
            nbytes = int(np.prod(shape)) * np.dtype(a["dtype"]).itemsize
            if (a["offset"], a["nbytes"]) != (offset, nbytes) or offset + nbytes > len(payload):
                raise ValueError(f"{what} at offset {a['offset']} of {a['nbytes']} bytes, expected "
                                 f"offset {offset} of {nbytes} within {len(payload)} payload bytes")
            raw = payload[offset : offset + nbytes]
            arrays.setdefault(a["kind"], {})[a["name"]] = np.frombuffer(
                raw, dtype=a["dtype"]).reshape(shape).copy()
            offset += nbytes
        if offset != len(payload):
            raise ValueError(f"the arrays cover {offset} of the payload's {len(payload)} bytes")
        ckpt = Checkpoint(
            params=arrays.get("param", {}),
            optimizer=AdamState(m=arrays.get("adam_m", {}), v=arrays.get("adam_v", {}), t=t),
            train_config=TrainConfig(**header["train_config"]),
            model_config=FocalNetConfig(**header["model_config"]),
            frontend=FrontendConfig(**header["frontend"]),
            history=header["history"],
        )
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e!r}") from None
    for kind, moments in (("adam_m", ckpt.optimizer.m), ("adam_v", ckpt.optimizer.v)):
        for name, moment in moments.items():
            if name not in ckpt.params:
                raise CheckpointError(f"{path}: {kind} {name} is not a stored parameter")
            if moment.shape != ckpt.params[name].shape:
                raise CheckpointError(f"{path}: {kind} {name} has shape {moment.shape}, "
                                      f"its parameter {ckpt.params[name].shape}")
    return ckpt
