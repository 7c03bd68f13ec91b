"""Print one SHA-256 per evaluation and training output, to show that a
change leaves the numbers bit for bit where they were.

    PYTHONPATH=src python tests/output_hashes.py

Run it on two trees and compare the lines. It pins no values: the hashes
depend on the BLAS build, so they are only comparable on one machine.

First, one no_grad `FocalNet.forward` of an untrained seed-0 desk model on
a fixed float32 batch (4 standard-normal inputs of seed 0 at 96x96): its
logits and modulator bytes. A change to a forward kernel shows there
apart from the fit.

Then, on the `interpret_desk` benchmark pool of seed 0 (8 synthetic
clips, 5 s at 44.1 kHz, an untrained seed-0 desk model at 96x96):
`evaluate` at 5 q, hashed as one (clip id, q, predicted class, class on
the interpretation, probability, probability on the removal) row per clip
and q, clip-major; the per-clip sweep entries, `predict_batch` at
batch size 3 and the q = 0.9 listening waveforms. Then a 2-epoch desk `fit`
on the 16 kHz, 1 s, 80-clip synthetic set of seed 0: its log lines without
the timing keys, its history and the `model_id` of its last and best
checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from focalaudio import audio, data, interpret, metrics, training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.tensor import Tensor, no_grad

Q = (0.1, 0.3, 0.5, 0.7, 0.9)
TIMING_KEYS = ("step_s", "clips_per_s")


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def forward_hashes() -> dict:
    model = FocalNet(FocalNetConfig.desk(len(data.SYNTH_CLASSES)), seed=0)
    x = np.random.default_rng(0).standard_normal((4, 3, 96, 96)).astype(np.float32)
    with no_grad():
        logits, modulator = model.forward(Tensor(x))
    return {"desk_forward": sha(np.ascontiguousarray(logits.data).tobytes(),
                                np.ascontiguousarray(modulator).tobytes())}


def interpretation_hashes(root: Path) -> dict:
    manifest = data.generate_synthetic_dataset(root / "pool", clips_per_class=2, seconds=5.0,
                                               sample_rate=44100, seed=0)
    frontend = FrontendConfig(input_size=96)
    model = FocalNet(FocalNetConfig.desk(len(data.SYNTH_CLASSES)), seed=0)
    waves = [audio.load_wav(r.path) for r in manifest.records]
    specs = [audio.preprocess(w, frontend)[0] for w in waves]
    ids = [r.clip_id for r in manifest.records]
    ev = metrics.evaluate(model, specs, Q, frontend.input_size)
    sweeps = [metrics.quantile_sweep(model, [s], Q, frontend.input_size).entries for s in specs]
    preds = metrics.predict_batch(model, specs, frontend.input_size, batch_size=3)
    listen = [interpret.listenable_interpretation(w, model, frontend, q=0.9) for w in waves]
    return {
        "evaluate_records": sha([[cid, q, int(ev.predicted[c]),
                                  int(ev.predicted_on_interpretation[c, i]),
                                  float(ev.prob_predicted[c]),
                                  float(ev.prob_predicted_on_removal[c, i])]
                                 for c, cid in enumerate(ids) for i, q in enumerate(ev.qs)]),
        "sweep_entries": sha(sweeps),
        "predict_batch_3": sha(preds.tolist()),
        "listening_q0.9": sha(*(w.samples.tobytes() + str(w.sample_rate).encode()
                                for w in listen)),
    }


def fit_hashes(root: Path) -> dict:
    manifest = data.generate_synthetic_dataset(root / "fit", clips_per_class=20, seconds=1.0,
                                               sample_rate=16000, seed=0)
    frontend = FrontendConfig(input_size=96)
    train, _ = data.load_split(manifest, "train", frontend)
    val, _ = data.load_split(manifest, "val", frontend)
    model = FocalNet(FocalNetConfig.desk(len(data.SYNTH_CLASSES)), seed=0)
    res = training.fit(model, train, val, training.TrainConfig.desk(epochs=2, seed=0), frontend)
    lines = [{k: v for k, v in line.items() if k not in TIMING_KEYS} for line in res.log_lines]
    return {"fit_log": sha(lines), "fit_history": sha(res.history),
            "fit_model_ids": sha([res.last.model_id(), res.best.model_id()])}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = {**forward_hashes(), **interpretation_hashes(Path(tmp)), **fit_hashes(Path(tmp))}
    for name, digest in out.items():
        print(f"{name} {digest}")


if __name__ == "__main__":
    main()
