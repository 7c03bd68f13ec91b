"""The three benchmark workloads: setup, one operation, and the output checks.

Every input comes from the workload seed: it seeds the synthetic clips
(`data.generate_synthetic_dataset`), the model weights and
`TrainConfig.seed`. The program only ever sees the generated files and
arrays.

Outputs are checked twice:

* each timed operation against itself: a result must be finite and in range,
  and an input seen before must give the result it gave the first time;
* a reference pass on the inputs of `REF_SEED`, compared with the values in
  `reference.json` (written by `make_reference.py`) under the float32
  tolerances stated beside each comparison below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from focalaudio import audio, data, metrics, interpret, training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig

REF_SEED = 0
SAMPLE_RATE = 44100
CLIP_SECONDS = 5.0
Q_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)
Q_LISTEN = 0.9
N_CLASSES = len(data.SYNTH_CLASSES)
BATCH = training.TrainConfig.desk().batch_size
PERTURBED_PARAM = "stem.proj.weight"


@dataclass
class OpRecord:
    """One timed operation: wall latency, clips it completed, output check."""

    latency_s: float
    clips: int
    ok: bool


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


def close(got, ref, rtol: float, atol: float) -> tuple[bool, str]:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return False, f"shape {got.shape} != {ref.shape}"
    err = np.abs(got - ref)
    ok = bool(np.all(np.isfinite(got)) and np.all(err <= atol + rtol * np.abs(ref)))
    return ok, f"max abs err {float(err.max(initial=0.0)):.3g}"


def _synth(seed: int, workdir, clips_per_class: int, tracer):
    with tracer.span("data.generate_synthetic_dataset"):
        return data.generate_synthetic_dataset(
            workdir / f"synth{seed}", clips_per_class=clips_per_class,
            seconds=CLIP_SECONDS, sample_rate=SAMPLE_RATE, seed=seed)


class Workload:
    """Base: `setup` builds the state and runs one untimed warm-up operation,
    `run_op` runs timed work and returns its records, `reference_outputs`
    computes the checked outputs on `REF_SEED` inputs and `compare` checks
    them against the stored ones."""

    name = ""
    tail_pct = 50.0

    def __init__(self, perturb: float = 0.0):
        # `perturb` is added to one row of the stem weights of every model the
        # workload builds; the self-test uses it to show the checks catch it.
        self.perturb = perturb

    def _model(self, config: FocalNetConfig, seed: int, tracer) -> FocalNet:
        with tracer.span("focalnet.build"):
            model = FocalNet(config, seed=seed)
        if self.perturb:
            dict(model.named_parameters())[PERTURBED_PARAM].data[0] += np.float32(self.perturb)
        return model

    def state_checks(self, st) -> list:
        """Checks on the set-up state itself, counted with the reference checks."""
        return []


# ---------------------------------------------------------------------------
# train_desk: the only workload that builds the tape and runs backward
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    model: FocalNet
    train: training.ClipSet
    val: training.ClipSet
    frontend: FrontendConfig
    seed: int
    optimizer: training.AdamState = field(default_factory=training.AdamState)
    epoch: int = 0
    warmup: training.FitResult | None = None


class TrainDesk(Workload):
    """`training.fit`, one epoch per call, resumed from the previous call's
    optimizer state. An operation is one train step; a step ends when
    `optimizer_step` returns. Validation runs inside `fit` and counts in the
    wall time of the phase, not in any step."""

    name = "train_desk"
    clips_per_class = 20  # 48 train clips (three full batches of 16), 16 val
    tail_pct = 90.0
    # Reference tolerances: a float64 model's losses differ from these float32
    # ones by < 1e-7 relative, so rtol 1e-3 leaves room for reordered float32
    # sums; validation accuracy must match to the clip.
    loss_rtol, loss_atol = 1e-3, 1e-4

    def setup(self, seed: int, workdir, tracer) -> TrainState:
        manifest = _synth(seed, workdir, self.clips_per_class, tracer)
        frontend = FrontendConfig(input_size=96)
        with tracer.span("data.load_split"):
            train, _ = data.load_split(manifest, "train", frontend)
            val, _ = data.load_split(manifest, "val", frontend)
        model = self._model(FocalNetConfig.desk(N_CLASSES), seed, tracer)
        st = TrainState(model=model, train=train, val=val, frontend=frontend, seed=seed)
        first = training.ClipSet(train.inputs[:BATCH], train.labels[:BATCH], train.clip_ids[:BATCH])
        with tracer.span("warmup_op"):
            st.warmup = self._epoch(st, first)
        return st

    def _epoch(self, st: TrainState, clips: training.ClipSet) -> training.FitResult:
        config = training.TrainConfig.desk(epochs=st.epoch + 1, seed=st.seed)
        res = training.fit(st.model, clips, st.val, config, frontend=st.frontend,
                           start_epoch=st.epoch, optimizer_state=st.optimizer)
        st.epoch += 1
        return res

    def run_op(self, st: TrainState) -> list:
        clock = training.optimizer_step
        ends = []

        def clocked(*args, **kwargs):
            out = clock(*args, **kwargs)
            ends.append(time.perf_counter())
            return out

        training.optimizer_step = clocked
        start = time.perf_counter()
        try:
            res = self._epoch(st, st.train)
        finally:
            training.optimizer_step = clock
        val_ok = 0.0 <= res.history[-1]["val_acc"] <= 1.0
        records = []
        for i, (line, end) in enumerate(zip(res.log_lines, ends)):
            ok = val_ok and np.isfinite(line["loss"]) and np.isfinite(line["grad_norm"])
            clips = min(BATCH, len(st.train) - i * BATCH)
            records.append(OpRecord(end - start, clips, bool(ok)))
            start = end
        return records

    def shapes(self, st: TrainState) -> dict:
        return {"batch": [BATCH, *st.train.inputs.shape[1:]], "train_clips": len(st.train),
                "val_clips": len(st.val), "clip_samples": int(CLIP_SECONDS * SAMPLE_RATE),
                "sample_rate": SAMPLE_RATE}

    def reference_outputs(self, workdir, tracer) -> dict:
        """Losses and final validation accuracy of the warm-up call and the
        first two timed calls of a `REF_SEED` run."""
        st = self.setup(REF_SEED, workdir, tracer)
        calls = [st.warmup, self._epoch(st, st.train), self._epoch(st, st.train)]
        return {"calls": [{"losses": [line["loss"] for line in r.log_lines],
                           "val_acc": r.history[-1]["val_acc"], "val_clips": len(st.val)}
                          for r in calls]}

    def compare(self, got: dict, ref: dict) -> list:
        checks = []
        for i, (g, r) in enumerate(zip(got["calls"], ref["calls"], strict=True)):
            ok, detail = close(g["losses"], r["losses"], self.loss_rtol, self.loss_atol)
            acc_ok = abs(g["val_acc"] - r["val_acc"]) <= 0.5 / r["val_clips"]
            checks.append(Check(f"fit call {i}", ok and acc_ok,
                                f"loss {detail}; val_acc {g['val_acc']} vs {r['val_acc']}"))
        return checks


# ---------------------------------------------------------------------------
# interpret_desk: frontend, quantile sweep and listenable interpretation
# ---------------------------------------------------------------------------

@dataclass
class InterpretState:
    model: FocalNet
    paths: list
    frontend: FrontendConfig
    next: int = 0
    first: dict = field(default_factory=dict)


class InterpretDesk(Workload):
    """One operation is one clip: read the WAV, preprocess, run the 5-q
    sweep, reconstruct the q = 0.9 interpretation. The clips cycle through a
    pool of eight; the model is not trained, since weights do not change
    its speed."""

    name = "interpret_desk"
    clips_per_class = 2  # pool of 8 WAVs
    tail_pct = 90.0
    # Reference tolerances: classes and per-clip FID-I (0 or 1) exact. A
    # float64 model moves FA by < 1e-6 and leaves the masks, hence the RMS,
    # unchanged; FA and RMS are held to 1e-4.
    fa_atol = 1e-4
    rms_rtol = 1e-4

    def setup(self, seed: int, workdir, tracer) -> InterpretState:
        manifest = _synth(seed, workdir, self.clips_per_class, tracer)
        model = self._model(FocalNetConfig.desk(N_CLASSES), seed, tracer)
        st = InterpretState(model=model, paths=[r.path for r in manifest.records],
                            frontend=FrontendConfig(input_size=96))
        with tracer.span("warmup_op"):
            self._ok(st, 0, self._interpret(st, st.paths[0]))
        st.next = 1
        return st

    def _interpret(self, st: InterpretState, path) -> dict:
        wav = audio.load_wav(path)
        spec, x = audio.preprocess(wav, st.frontend)
        sweep = metrics.quantile_sweep(st.model, [spec], Q_SWEEP, input_size=st.frontend.input_size)
        listen = interpret.listenable_interpretation(wav, st.model, st.frontend, q=Q_LISTEN)
        rms = float(np.sqrt(np.mean(listen.samples.astype(np.float64) ** 2)))
        return {"entries": [list(e) for e in sweep.entries], "rms": rms, "input": x}

    def _ok(self, st: InterpretState, i: int, out: dict) -> bool:
        entries = np.asarray(out["entries"])
        valid = (np.isfinite(entries).all() and np.isin(entries[:, 1], (0.0, 1.0)).all()
                 and (np.abs(entries[:, 2]) <= 1.0).all() and np.isfinite(out["rms"]))
        first = st.first.setdefault(i, out)
        same = (first["entries"] == out["entries"]
                and close(out["rms"], first["rms"], self.rms_rtol, 0.0)[0])
        return bool(valid and same)

    def run_op(self, st: InterpretState) -> list:
        i = st.next % len(st.paths)
        st.next += 1
        start = time.perf_counter()
        out = self._interpret(st, st.paths[i])
        latency = time.perf_counter() - start
        return [OpRecord(latency, 1, self._ok(st, i, out))]

    def shapes(self, st: InterpretState) -> dict:
        return {"clip_samples": int(CLIP_SECONDS * SAMPLE_RATE), "sample_rate": SAMPLE_RATE,
                "model_input": [3, st.frontend.input_size, st.frontend.input_size],
                "q_sweep": list(Q_SWEEP), "pool_clips": len(st.paths)}

    def reference_outputs(self, workdir, tracer) -> dict:
        """Per pool clip of `REF_SEED`: predicted class, sweep entries, RMS."""
        st = self.setup(REF_SEED, workdir, tracer)
        clips = []
        for path in st.paths:
            out = self._interpret(st, path)
            pred = int(np.argmax(st.model.predict_proba(out["input"])))
            clips.append({"predicted": pred, "entries": out["entries"], "rms": out["rms"]})
        return {"clips": clips}

    def compare(self, got: dict, ref: dict) -> list:
        checks = []
        for i, (g, r) in enumerate(zip(got["clips"], ref["clips"], strict=True)):
            ge, re_ = np.asarray(g["entries"]), np.asarray(r["entries"])
            fa_ok, detail = close(ge[:, 2], re_[:, 2], 0.0, self.fa_atol)
            rms_ok, rms_detail = close(g["rms"], r["rms"], self.rms_rtol, 0.0)
            ok = (g["predicted"] == r["predicted"] and np.array_equal(ge[:, :2], re_[:, :2])
                  and fa_ok and rms_ok)
            checks.append(Check(f"clip {i}", bool(ok),
                                f"class {g['predicted']} vs {r['predicted']}; FA {detail}; "
                                f"rms {rms_detail}"))
        return checks


# ---------------------------------------------------------------------------
# infer_base: the 80.2M-parameter model behind a checkpoint round trip
# ---------------------------------------------------------------------------

@dataclass
class InferState:
    model: FocalNet
    pairs: list
    roundtrip_ok: bool
    next: int = 0
    first: dict = field(default_factory=dict)


class InferBase(Workload):
    """One operation is one `metrics.predict_batch` call on two spectrograms
    at 224x224 with batch size 2. Setup saves the freshly built model with
    `save_checkpoint`, reads it back and rebuilds it with `build_model`."""

    name = "infer_base"
    clips_per_class = 1  # 4 clips, two pairs
    input_size = 224
    # Reference tolerance: logits are 30 x cosine, so |logit| <= 30.
    logit_atol = 2e-3

    def _pairs(self, seed: int, workdir, tracer) -> list:
        manifest = _synth(seed, workdir, self.clips_per_class, tracer)
        with tracer.span("data.load_split"):
            _, specs = data.load_split(manifest, "train", FrontendConfig(input_size=self.input_size),
                                       with_spectrograms=True)
        return [specs[i : i + 2] for i in range(0, len(specs) - 1, 2)]

    def setup(self, seed: int, workdir, tracer) -> InferState:
        pairs = self._pairs(seed, workdir, tracer)
        model = self._model(FocalNetConfig.default(50), seed, tracer)
        ckpt = training.Checkpoint(
            params={k: p.data for k, p in model.named_parameters()},
            optimizer=training.AdamState(), train_config=training.TrainConfig(seed=seed),
            model_config=model.config, frontend=FrontendConfig(input_size=self.input_size),
            history=[])
        saved_id = ckpt.model_id()
        path = workdir / "base.ckpt"
        with tracer.span("training.save_checkpoint"):
            training.save_checkpoint(ckpt, path)
        del model, ckpt
        with tracer.span("training.load_checkpoint"):
            loaded = training.load_checkpoint(path)
        with tracer.span("focalnet.build"):
            model = loaded.build_model()
        st = InferState(model=model, pairs=pairs, roundtrip_ok=loaded.model_id() == saved_id)
        del loaded
        path.unlink()
        with tracer.span("warmup_op"):
            st.first[0] = self._predict(st.model, st.pairs[0])
        st.next = 1
        return st

    def _predict(self, model: FocalNet, pair: list) -> list:
        return metrics.predict_batch(model, pair, input_size=self.input_size, batch_size=2).tolist()

    def run_op(self, st: InferState) -> list:
        i = st.next % len(st.pairs)
        st.next += 1
        start = time.perf_counter()
        preds = self._predict(st.model, st.pairs[i])
        latency = time.perf_counter() - start
        valid = len(preds) == 2 and all(0 <= p < st.model.config.num_classes for p in preds)
        return [OpRecord(latency, 2, valid and st.first.setdefault(i, preds) == preds)]

    def state_checks(self, st: InferState) -> list:
        return [Check("checkpoint round trip", st.roundtrip_ok, "model_id before save == after load")]

    def shapes(self, st: InferState) -> dict:
        spec = st.pairs[0][0]
        return {"batch": [2, 3, self.input_size, self.input_size],
                "spectrogram": list(spec.log_mag.shape), "clip_samples": int(CLIP_SECONDS * SAMPLE_RATE),
                "sample_rate": SAMPLE_RATE, "parameters": st.model.num_parameters()}

    def reference_outputs(self, workdir, tracer) -> dict:
        """Logits and classes of one `predict_batch` call on the first
        `REF_SEED` pair, read from the forward that call makes."""
        pairs = self._pairs(REF_SEED, workdir, tracer)
        model = self._model(FocalNetConfig.default(50), REF_SEED, tracer)
        logits = []
        forward = model.forward

        def capturing_forward(x, **kwargs):
            out = forward(x, **kwargs)
            logits.append(out[0].data.tolist())
            return out

        model.forward = capturing_forward
        preds = self._predict(model, pairs[0])
        return {"logits": logits[0], "predicted": preds}

    def compare(self, got: dict, ref: dict) -> list:
        ok, detail = close(got["logits"], ref["logits"], 0.0, self.logit_atol)
        argmax = np.argmax(np.asarray(got["logits"]), axis=-1).tolist()
        ok = ok and got["predicted"] == ref["predicted"] == argmax
        return [Check("predict_batch pair 0", bool(ok),
                      f"logits {detail}; classes {got['predicted']} vs {ref['predicted']}")]


WORKLOADS = {w.name: w for w in (TrainDesk, InterpretDesk, InferBase)}
