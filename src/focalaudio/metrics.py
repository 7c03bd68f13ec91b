"""Classification accuracy and the two interpretation metrics.

Fidelity-to-input (FID-I) is the fraction of clips whose predicted class is
unchanged when the classifier sees the interpretation instead of the input.
Faithfulness (FA) is the drop in predicted-class probability when the
interpretation is removed from the input. Both are computed in
log-spectrogram space: the interpretation is `interpret.apply_mask` of the
log magnitude with the clip's boolean mask and fill 0, its removal the same
with the negated mask, and each goes through the same shrink,
standardization and stacking as the original input. `evaluate` masks only
the cells that shrink reads, an `audio.ShrinkGrid` of the log magnitude and
of the clip's masks gathered once per clip, so its inputs equal the shrink
of the full-resolution masked spectrograms bit for bit, with none of them
built.

`evaluate` is the one evaluation path: it returns one `Evaluation`, whose
arrays hold a row per clip and a column per q, and `quantile_sweep` averages
its columns into a `SweepResult`.
Neither writes files; serializing results is left to the caller. Every
forward goes through `interpret.predict`, which runs no_grad forwards in
chunks of at most 16 inputs and returns each input's class, its class
probabilities and its saliency map: the one place a class (the argmax of
the logits) and a probability are read. `evaluate` calls it twice: on the
clips, whose maps become the masks, then on every clip's 2·|q|
interpretation and removal inputs, whose maps it does not read; for n
clips that is ceil(n/16) + ceil(2·|q|·n/16) forwards. `predict_batch` and
`training.evaluate_accuracy` read only its classes. This module reaches
neither a model nor the tape beyond what `predict` returns.

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

from .audio import ShrinkGrid, to_model_input
from .interpret import apply_mask, predict, threshold_mask


@dataclass
class Evaluation:
    """Every clip at every quantile order: row c is clip c and column i is
    q = `qs[i]`. Both probabilities are float64, so `fa` subtracts in
    float64."""

    qs: list
    predicted: np.ndarray  # [n]
    prob_predicted: np.ndarray  # [n]
    predicted_on_interpretation: np.ndarray  # [n, |q|]
    prob_predicted_on_removal: np.ndarray  # [n, |q|]

    @property
    def agrees(self) -> np.ndarray:
        return self.predicted[:, None] == self.predicted_on_interpretation

    @property
    def fa(self) -> np.ndarray:
        return self.prob_predicted[:, None] - self.prob_predicted_on_removal


@dataclass
class SweepResult:
    """(q, FID-I, FA) triples for one model on one clip set."""

    entries: list  # of (q, fid_i, fa)


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
    """`interpret.predict`'s class per clip, batched."""
    classes, _, _ = predict(model, (to_model_input(s, out=input_size) for s in clips), batch_size)
    return classes


def evaluate(model, clips, q_list, input_size: int) -> Evaluation:
    """The spectrograms `clips` scored at the strictly increasing quantile
    orders `q_list`."""
    qs = [float(q) for q in q_list]
    if not qs:
        raise ValueError("no q values")
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q values must lie in [0, 1]")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q values must be strictly increasing")
    if not clips:
        raise ValueError("empty clip set")
    preds, probs, maps = predict(model, (to_model_input(s, out=input_size) for s in clips))

    def masked_inputs():
        # per clip and q: the interpretation, then its removal, built from
        # the cells the shrink reads
        for spec, m in zip(clips, maps):
            grid = ShrinkGrid(spec.log_mag.shape, input_size)
            cells = grid.gather(spec.log_mag)
            for keep in grid.gather(threshold_mask(m, qs, spec.log_mag.shape)):
                yield grid.model_input(apply_mask(cells, keep, 0.0))
                yield grid.model_input(apply_mask(cells, ~keep, 0.0))

    masked_preds, masked_probs, _ = predict(model, masked_inputs())
    masked_preds = masked_preds.reshape(len(clips), len(qs), 2)
    masked_probs = masked_probs.reshape(len(clips), len(qs), 2, -1)
    removal = np.take_along_axis(masked_probs[:, :, 1], preds[:, None, None], axis=-1)[..., 0]
    return Evaluation(qs=qs, predicted=preds,
                      prob_predicted=probs[np.arange(len(clips)), preds].astype(np.float64),
                      predicted_on_interpretation=masked_preds[:, :, 0],
                      prob_predicted_on_removal=removal.astype(np.float64))


def quantile_sweep(model, clips, q_list, input_size: int) -> SweepResult:
    """FID-I and FA across quantile orders: the per-q means of `evaluate`."""
    ev = evaluate(model, clips, q_list, input_size)
    entries = [(q, float(f), float(d)) for q, f, d in zip(ev.qs, ev.agrees.mean(axis=0),
                                                         ev.fa.mean(axis=0))]
    return SweepResult(entries=entries)
