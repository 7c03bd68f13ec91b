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

    PYTHONPATH=src python tests/output_hashes.py --dump DIR

also writes the arrays behind each line, `DIR/<line>/<name>.npy`, and the
printed lines, `DIR/hashes.txt`, for `tests/output_diff.py` to say how far
two trees' outputs are apart. Floating arrays are numbers (logits,
probabilities, samples, losses, parameters), integer arrays are classes and
boolean arrays are mask cells: the q-quantile masks of each modulator's
map, at spectrogram resolution for the pool's clips and at 96x96 for the
desk forward's inputs.
"""

from __future__ import annotations

import argparse
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


def masks(maps, shapes) -> np.ndarray:
    """[n, |Q|, *shape] boolean masks of the [h, w] maps, as `evaluate` thresholds them."""
    return np.stack([interpret.threshold_mask(m, Q, shape) for m, shape in zip(maps, shapes)])


def columns(rows: list) -> dict:
    """A list of dicts with numeric values as one float64 array per key."""
    return {k: np.array([row[k] for row in rows], dtype=np.float64) for k in rows[0]}


def forward_outputs() -> dict:
    """line -> (digest, arrays) for the desk forward."""
    model = FocalNet(FocalNetConfig.desk(len(data.SYNTH_CLASSES)), seed=0)
    x = np.random.default_rng(0).standard_normal((4, 3, 96, 96)).astype(np.float32)
    with no_grad():
        logits, modulator = model.forward(Tensor(x))
    digest = sha(np.ascontiguousarray(logits.data).tobytes(),
                 np.ascontiguousarray(modulator).tobytes())
    return {"desk_forward": (digest, {
        "logits": logits.data, "modulator": modulator,
        "classes": np.argmax(logits.data, axis=-1),
        "masks": masks(interpret.modulation_map(modulator), [x.shape[2:]] * len(x)),
    })}


def interpretation_outputs(root: Path) -> dict:
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
    _, maps = interpret.logits_and_maps(
        model, (audio.to_model_input(s, out=frontend.input_size) for s in specs))
    return {
        "evaluate_records": (
            sha([[cid, q, int(ev.predicted[c]), int(ev.predicted_on_interpretation[c, i]),
                  float(ev.prob_predicted[c]), float(ev.prob_predicted_on_removal[c, i])]
                 for c, cid in enumerate(ids) for i, q in enumerate(ev.qs)]),
            {"predicted": ev.predicted, "predicted_on_interpretation": ev.predicted_on_interpretation,
             "prob_predicted": ev.prob_predicted,
             "prob_predicted_on_removal": ev.prob_predicted_on_removal,
             "masks": masks(maps, [s.log_mag.shape for s in specs])}),
        "sweep_entries": (sha(sweeps), {"entries": np.array(sweeps, dtype=np.float64)}),
        "predict_batch_3": (sha(preds.tolist()), {"classes": preds}),
        "listening_q0.9": (sha(*(w.samples.tobytes() + str(w.sample_rate).encode()
                                 for w in listen)),
                           {"samples": np.concatenate([w.samples for w in listen])}),
    }


def fit_outputs(root: Path) -> dict:
    manifest = data.generate_synthetic_dataset(root / "fit", clips_per_class=20, seconds=1.0,
                                               sample_rate=16000, seed=0)
    frontend = FrontendConfig(input_size=96)
    train, _ = data.load_split(manifest, "train", frontend)
    val, _ = data.load_split(manifest, "val", frontend)
    model = FocalNet(FocalNetConfig.desk(len(data.SYNTH_CLASSES)), seed=0)
    res = training.fit(model, train, val, training.TrainConfig.desk(epochs=2, seed=0), frontend)
    lines = [{k: v for k, v in line.items() if k not in TIMING_KEYS} for line in res.log_lines]
    params = {f"{which}_params": np.concatenate([ckpt.params[n].reshape(-1)
                                                 for n in sorted(ckpt.params)])
              for which, ckpt in (("last", res.last), ("best", res.best))}
    return {"fit_log": (sha(lines), columns(lines)),
            "fit_history": (sha(res.history), columns(res.history)),
            "fit_model_ids": (sha([res.last.model_id(), res.best.model_id()]), params)}


def dump(outputs: dict, out_dir: Path) -> None:
    """Write `DIR/<line>/<name>.npy` for every array and the hash lines to
    `DIR/hashes.txt`."""
    for line, (_, arrays) in outputs.items():
        (out_dir / line).mkdir(parents=True, exist_ok=True)
        for name, arr in arrays.items():
            np.save(out_dir / line / f"{name}.npy", np.asarray(arr))
    (out_dir / "hashes.txt").write_text(
        "".join(f"{line} {digest}\n" for line, (digest, _) in outputs.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write the arrays behind each line under DIR")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = {**forward_outputs(), **interpretation_outputs(Path(tmp)), **fit_outputs(Path(tmp))}
    for line, (digest, _) in out.items():
        print(f"{line} {digest}")
    if args.dump is not None:
        dump(out, args.dump)


if __name__ == "__main__":
    main()
