"""Classification accuracy and the two interpretation metrics.

Fidelity-to-input (FID-I) is the fraction of clips whose predicted class is
unchanged when the classifier sees the interpretation instead of the input.
Faithfulness (FA) is the drop in predicted-class probability when the
interpretation is removed from the input. Both are computed in
log-spectrogram space: the interpretation keeps the log magnitude where the
mask is 1 and its removal where it is 0, both made by `interpret.apply_mask`
from the one uint8 mask with the default fill 0 elsewhere, and each goes
through the identical resize/standardize path as the original input.

`evaluate` is the one evaluation path: it returns a record per (clip, q)
and `quantile_sweep` averages those records per q into a `SweepResult`.
Neither writes files; serializing results is left to the caller. Every
forward goes through `interpret.logits_and_maps`, which runs no_grad
forwards in chunks of at most 16 inputs and returns logits and saliency
maps. `evaluate` calls it twice: on the clips, whose maps become the masks,
then on every clip's 2·|q| interpretation and removal inputs, whose maps it
does not read; for n clips that is ceil(n/16) + ceil(2·|q|·n/16) forwards.
`predict_batch` and `training.evaluate_accuracy` read only its logits.
Nothing here reads the model beyond what `logits_and_maps` returns.

Probabilities are softmax outputs of the scaled-cosine head; the additive
margin used in training plays no role here.

Full-scale reference results, recorded for context only (87.3M-parameter
backbone, ImageNet-1k pretraining, 100 epochs; not reproducible at desk
scale): ACC 0.774, FID-I 0.305, FA 0.0111 at q = 0.9 on the standard
environmental-sound benchmark's fifth fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .audio import to_model_input
from .interpret import apply_mask, logits_and_maps, threshold_mask


@dataclass
class EvalRecord:
    """One clip at one quantile order q."""

    clip_id: str
    q: float
    predicted: int
    predicted_on_interpretation: int
    prob_predicted: float
    prob_predicted_on_removal: float

    def __post_init__(self):
        for p in (self.prob_predicted, self.prob_predicted_on_removal):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")

    @property
    def agrees(self) -> bool:
        return self.predicted == self.predicted_on_interpretation

    @property
    def fa(self) -> float:
        return self.prob_predicted - self.prob_predicted_on_removal


@dataclass
class SweepResult:
    """(q, FID-I, FA) triples for one model on one clip set."""

    entries: list  # of (q, fid_i, fa)
    n_clips: int


def accuracy(predictions, labels) -> float:
    """Mean exact-match indicator."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    return float((predictions == labels).mean())


def predict_batch(model, clips, input_size: int, batch_size: int = 16) -> np.ndarray:
    """Argmax class per clip, batched."""
    logits, _ = logits_and_maps(model, (to_model_input(s, out=input_size) for s in clips),
                                batch_size)
    return np.argmax(logits, axis=-1).astype(np.int64)


def evaluate(model, clips, q_list, input_size: int, clip_ids=None) -> list[EvalRecord]:
    """One `EvalRecord` per (clip, q), clip-major, for the spectrograms
    `clips` and the strictly increasing quantile orders `q_list`."""
    qs = [float(q) for q in q_list]
    if not qs:
        raise ValueError("no q values")
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q values must lie in [0, 1]")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q values must be strictly increasing")
    if not clips:
        raise ValueError("empty clip set")
    if clip_ids is None:
        clip_ids = [f"clip{i}" for i in range(len(clips))]
    if len(clip_ids) != len(clips):
        raise ValueError(f"{len(clip_ids)} clip_ids for {len(clips)} clips")
    logits, maps = logits_and_maps(model, (to_model_input(s, out=input_size) for s in clips))
    probs = T.softmax(logits).data
    preds = np.argmax(probs, axis=-1)

    def masked_inputs():
        # per clip and q: the interpretation, then its removal
        for spec, m in zip(clips, maps):
            for mask in threshold_mask(m, qs, spec.log_mag.shape):
                yield to_model_input(apply_mask(spec, mask), out=input_size)
                yield to_model_input(apply_mask(spec, 1 - mask), out=input_size)

    masked, _ = logits_and_maps(model, masked_inputs())
    masked = T.softmax(masked).data.reshape(len(clips), len(qs), 2, -1)
    return [EvalRecord(clip_id=cid, q=q, predicted=int(preds[c]),
                       predicted_on_interpretation=int(np.argmax(masked[c, i, 0])),
                       prob_predicted=float(probs[c, preds[c]]),
                       prob_predicted_on_removal=float(masked[c, i, 1, preds[c]]))
            for c, cid in enumerate(clip_ids) for i, q in enumerate(qs)]


def quantile_sweep(model, clips, q_list, input_size: int) -> SweepResult:
    """FID-I and FA across quantile orders: per-q means of `evaluate`'s records."""
    records = evaluate(model, clips, q_list, input_size)
    fid = np.array([r.agrees for r in records], dtype=np.float64).reshape(len(clips), -1).mean(0)
    fa = np.array([r.fa for r in records]).reshape(len(clips), -1).mean(0)
    entries = [(r.q, float(f), float(d)) for r, f, d in zip(records[:fid.size], fid, fa)]
    return SweepResult(entries=entries, n_clips=len(clips))
