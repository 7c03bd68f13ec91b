"""Optimization: additive-margin softmax loss, Adam with a cyclic triangular
learning rate and global-norm gradient clipping, the epoch loop, and
checkpoints.

The checkpoint file is the package's one binary format:

    b"FOCALCK1" | <IQ version (7), header length | JSON header | payload
    | SHA-256 of everything before it (32 bytes)

The header is sorted-key JSON: the three configs as `dataclasses.asdict`
dicts (`model_config`, `train_config`, `frontend`), the `history`, the Adam
step `optimizer_t`, and `params`, one [name, shape] entry per parameter in
strictly increasing name order. The payload is the parameters as
little-endian float32, the model's one dtype, in that order, followed, when
`optimizer_t` > 0, by every parameter's Adam first moment and then its
second moment, in the same order. `optimizer_step` makes both moments of
every parameter at its first step and, like `save_checkpoint`, refuses at
every step moments that pair otherwise with the parameters, so the step
count says whether they are there. Offsets follow from the shapes. A file
of any other version is refused by its number.

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
import numbers
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
from .interpret import predict
from .metrics import accuracy
from .tensor import NumericalError, Tensor, backward


class CheckpointError(ValueError):
    """An unreadable checkpoint file, named with the check that failed
    (magic, length, checksum, version or header), or a checkpoint that does
    not fit its model or holds an array the file cannot, named with the
    array."""


class TrainingDiverged(NumericalError):
    """A train step met a numerical error: non-finite activations in a block,
    a zero-norm feature row in the loss or a non-finite gradient. The message
    names the epoch, the Adam step and where, and `checkpoint` holds the state
    after the last finite step."""

    def __init__(self, message: str, checkpoint: "Checkpoint"):
        super().__init__(message)
        self.checkpoint = checkpoint


WEIGHT_DECAY = 2e-6
GRAD_CLIP_NORM = 5.0
AM_MARGIN = 0.2


@dataclass(frozen=True)
class TrainConfig:
    """The optimization hyperparameters a run varies; the defaults are the
    full-scale preset (batch 16, 100 epochs, lr 1e-8 to 2e-4 with step size
    65000). The rest of the recipe is fixed: `WEIGHT_DECAY`, `GRAD_CLIP_NORM`,
    `AM_MARGIN`, `audio.AUGMENT_PROB` and the loss scale `focalnet.LOGIT_SCALE`."""

    batch_size: int = 16
    epochs: int = 100
    lr_min: float = 1e-8
    lr_max: float = 2e-4
    step_size: int = 65000
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_min", "lr_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if not self.lr_min >= 0:
            raise ValueError("lr_min must be >= 0")
        if not np.isfinite(self.lr_max):
            raise ValueError(f"lr_max must be finite, got {self.lr_max!r}")
        for name, least in (("batch_size", 1), ("epochs", 1), ("step_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (type(value) is int and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

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
    `AM_MARGIN` and the head's scale, `focalnet.LOGIT_SCALE`. A missing,
    fractional or out-of-range label is a `ValueError` and a zero-norm
    feature row a numerical error, each naming the clip id when given, else
    the batch row.
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


def _moment_mismatch(shapes: dict, state: AdamState) -> str | None:
    """The first way the Adam moments fail to pair with parameters of these
    shapes, or None: at step 0 there are no moments, and after it both
    moment sets hold one moment per parameter, of its shape."""
    for kind, moments in (("adam_m", state.m), ("adam_v", state.v)):
        unpaired = moments.keys() ^ (shapes.keys() if state.t else set())
        if unpaired:
            return (f"{kind} at optimizer_t {state.t} differs from the parameters "
                    f"in {sorted(unpaired)}")
        for name, moment in moments.items():
            if moment.shape != shapes[name]:
                return f"{kind} {name} has shape {moment.shape}, its parameter {shapes[name]}"
    return None


def optimizer_step(params: dict, state: AdamState, lr: float) -> float:
    """Global-norm clipping at `GRAD_CLIP_NORM`, then Adam (betas 0.9 and
    0.999, eps 1e-8) with decoupled weight decay `WEIGHT_DECAY`.

    Returns the pre-clip global gradient norm. Missing gradients count as
    zero; a non-finite gradient aborts naming the parameter path. Moments
    that do not pair with `params` as `_moment_mismatch` requires are a
    `ValueError` naming the first mismatch. Both refusals come before any
    parameter or `state` changes.
    """
    mismatch = _moment_mismatch({name: p.shape for name, p in params.items()}, state)
    if mismatch:
        raise ValueError(mismatch)
    grads = {}
    sq = 0.0
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in parameter {name}")
        grads[name] = g
        sq += float((g.astype(np.float64) ** 2).sum())
    gnorm = float(np.sqrt(sq))
    if gnorm > GRAD_CLIP_NORM:
        factor = GRAD_CLIP_NORM / gnorm
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
        update = mhat / (np.sqrt(vhat) + eps) + WEIGHT_DECAY * p.data
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
        """A model holding copies of the stored arrays, which `model_id` names."""
        model = FocalNet(self.model_config, seed=0)
        named = dict(model.named_parameters())
        missing = set(named) ^ set(self.params)
        if missing:
            raise CheckpointError(f"parameter set mismatch: {sorted(missing)}")
        for name, p in named.items():
            stored = self.params[name]
            if stored.shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for {name}")
            p.data = stored.copy()
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


def evaluate_accuracy(model: FocalNet, data: ClipSet) -> float:
    classes, _, _ = predict(model, data.inputs)
    return accuracy(classes, data.labels)


def fit(model: FocalNet, train: ClipSet, val: ClipSet, config: TrainConfig,
        frontend: FrontendConfig, run_dir=None,
        start_epoch: int = 0, optimizer_state: AdamState | None = None) -> FitResult:
    """Epoch loop with augmentation (training only), per-epoch validation
    accuracy and best-on-validation checkpointing; an empty `train` or `val`
    set, or a `start_epoch` outside [0, `config.epochs`), is a `ValueError`
    naming it. Deterministic given the config seed.
    `frontend` is the config that made the inputs; every checkpoint records
    it. A resume from `start_epoch` with the earlier run's `optimizer_state`
    (updated in place) keeps its loss curve and Adam state bitwise but loses
    its `history` and best-on-validation choice: `history` starts at
    `start_epoch` and `best` is chosen among the resumed epochs. The loss is
    `am_softmax_loss` at margin `AM_MARGIN` and the head's scale,
    `focalnet.LOGIT_SCALE`, the one `predict_proba`, FID-I and FA score at.

    Each step logs `step` (Adam's `t` before it), `lr`, `loss` and
    `grad_norm`, which are deterministic, plus `step_s` (wall time of
    forward, backward and optimizer step, augmentation excluded) and
    `clips_per_s` (batch clips over `step_s`), which are not.

    Returns a `FitResult`, or raises `TrainingDiverged` when a step meets a
    numerical error, carrying the checkpoint of the last finite step; the
    model is left at that state. The step runs with numpy's overflow and
    invalid-value warnings off, so this holds under any warning filter.
    A bad label is the loss's `ValueError`.
    """
    for name, clips in (("train", train), ("val", val)):
        if len(clips) == 0:
            raise ValueError(f"the {name} set is empty")
    if not (type(start_epoch) is int and 0 <= start_epoch < config.epochs):
        raise ValueError(f"start_epoch must be an integer in [0, epochs) = "
                         f"[0, {config.epochs}), got {start_epoch!r}")
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
            for lo in range(0, len(order), config.batch_size):
                idx = order[lo : lo + config.batch_size]
                xb = np.stack([
                    augment(train.inputs[i], _clip_seed(config.seed, epoch, train.clip_ids[i]))
                    for i in idx
                ])
                yb = train.labels[idx]
                t0 = time.perf_counter()
                model.zero_grad()
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        feats, _ = model.forward_features(xb)
                        loss = am_softmax_loss(feats, model.head.weight, yb, AM_MARGIN, LOGIT_SCALE,
                                               clip_ids=[train.clip_ids[i] for i in idx])
                        backward(loss)
                        lr = cyclic_lr(state.t, config.lr_min, config.lr_max, config.step_size)
                        gnorm = optimizer_step(params, state, lr)
                except NumericalError as e:
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch} step {state.t}: {e}",
                        checkpoint=_snapshot(model, state, config, frontend, history),
                    ) from e
                step_s = time.perf_counter() - t0
                loss_val = float(loss.data)
                losses.append(loss_val)
                line = {"step": state.t - 1, "lr": lr, "loss": loss_val, "grad_norm": gnorm,
                        "step_s": step_s, "clips_per_s": len(idx) / step_s}
                log_lines.append(line)
                if log_file is not None:
                    log_file.write(json.dumps(line) + "\n")
            val_acc = evaluate_accuracy(model, val)
            history.append({
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_acc": val_acc,
                "lr": lr,
            })
            if val_acc > best_acc:
                best_acc = val_acc
                best = _snapshot(model, state, config, frontend, history)
    finally:
        if log_file is not None:
            log_file.close()
    return FitResult(best=best, last=_snapshot(model, state, config, frontend, history),
                     history=history, log_lines=log_lines)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FOCALCK1"
_CKPT_VERSION = 7
_CKPT_DTYPE = np.dtype("<f4")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Parameters, configs, history, Adam step and, after the first step,
    the Adam moments, in the layout of the module docstring. Arrays that the
    layout cannot hold are refused, by name, before anything is written: a
    parameter or moment that is not float32, any moment at step 0, and after
    it any set that is not one moment per parameter, of its shape."""
    opt = ckpt.optimizer
    mismatch = _moment_mismatch({name: p.shape for name, p in ckpt.params.items()}, opt)
    if mismatch:
        raise CheckpointError(mismatch)
    for kind, arrays in (("parameter", ckpt.params), ("adam_m", opt.m), ("adam_v", opt.v)):
        for name, arr in arrays.items():
            if arr.dtype != np.float32:
                raise CheckpointError(f"{kind} {name} is {arr.dtype}, not float32")
    index = [[name, list(ckpt.params[name].shape)] for name in sorted(ckpt.params)]
    head = json.dumps({
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "frontend": asdict(ckpt.frontend),
        "history": ckpt.history,
        "optimizer_t": opt.t,
        "params": index,
    }, sort_keys=True).encode()
    raws = (np.ascontiguousarray(named[name], dtype=_CKPT_DTYPE)
            for named in ((ckpt.params, opt.m, opt.v) if opt.t else (ckpt.params,))
            for name, _ in index)
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
    >= 0 and its `params` must list strictly increasing names, each with a
    shape of whole counts, and the payload must hold exactly those float32
    arrays, three times over if `optimizer_t` > 0. Any failure raises
    `CheckpointError`."""
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
    try:  # a checksummed file can still come from another writer
        header = json.loads(bytes(body[prefix : prefix + hlen]))
        index, t = header.pop("params"), header["optimizer_t"]
        if type(t) is not int or t < 0:
            raise ValueError(f"optimizer_t {t!r} is not an integer >= 0")
        names = [name for name, _ in index]
        for a, b in zip(names, names[1:]):
            if b <= a:
                raise ValueError(f"parameter {b} follows {a}: names must be unique and sorted")
        for name, shape in index:
            if not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"parameter {name} has shape {shape}")
        sizes = [int(np.prod(shape)) * _CKPT_DTYPE.itemsize for _, shape in index]
        copies = 3 if t else 1
        if len(payload) != copies * sum(sizes):
            raise ValueError(f"payload of {len(payload)} bytes, expected {copies} x "
                             f"{sum(sizes)} for {len(index)} parameters at optimizer_t {t}")
        groups, offset = [], 0
        for _ in range(copies):  # parameters, then adam_m and adam_v
            group = {}
            for (name, shape), size in zip(index, sizes):
                group[name] = np.frombuffer(payload[offset : offset + size],
                                            dtype=_CKPT_DTYPE).reshape(shape).copy()
                offset += size
            groups.append(group)
        params, m, v = groups if t else (groups[0], {}, {})
        return Checkpoint(
            params=params,
            optimizer=AdamState(m=m, v=v, t=t),
            train_config=TrainConfig(**header["train_config"]),
            model_config=FocalNetConfig(**header["model_config"]),
            frontend=FrontendConfig(**header["frontend"]),
            history=header["history"],
        )
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e!r}") from None
