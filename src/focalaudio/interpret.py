"""From the model's modulator to mask, interpretation spectrogram and audio.

`logits_and_maps(model, inputs)` is the one place a model is evaluated for
scoring or interpretation: it runs no_grad forwards over chunks of at most
16 stacked inputs and returns the logits and one saliency map per input,
the channel-wise L2 norm (`modulation_map`) of the modulator the forward
returns, nonnegative and at feature resolution. A second map source
replaces that one function. Each map is bilinearly upsampled once to full
spectrogram resolution and thresholded at its q-quantile for every
requested q (ties kept, so q = 0 retains everything, and the retained
fraction is close to 1 - q), giving one boolean mask per q, True where a
cell is kept. `apply_mask(log_mag, keep, fill)` is the one fill rule: it
keeps the log magnitude where `keep` is True and sets every other cell to
`fill`. `metrics.evaluate` calls it with fill 0 (magnitude 1) on the cells
the model input's shrink reads, with the mask for the interpretation and
its negation for the removal; `listenable_interpretation` calls it with
`log(LOG_EPS)` on the whole spectrogram, so masked cells reconstruct as
silence, and returns `istft_reconstruct` of the result; `audio.save_wav`
writes it.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np

from .audio import LOG_EPS, Waveform, bilinear_resize_array, istft_reconstruct, preprocess
from .tensor import no_grad


def modulation_map(modulator: np.ndarray) -> np.ndarray:
    """Saliency maps [B, h, w], float64: the L2 norm across channels of a
    modulator [B, C, h, w], one map per input of the batch."""
    return np.sqrt((modulator.astype(np.float64) ** 2).sum(axis=1))


def logits_and_maps(model, inputs, batch_size: int = 16) -> tuple:
    """(logits [N, K], maps [N, h, w]) of `inputs`, an iterable of [3, S, S]
    model inputs, from no_grad forwards of at most `batch_size` stacked
    inputs; each chunk's maps are the `modulation_map` of its modulator."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    logits, maps = [], []
    inputs = iter(inputs)
    while chunk := list(islice(inputs, batch_size)):
        with no_grad():
            out, modulator = model.forward(np.stack(chunk))
        logits.append(out.data)
        maps.append(modulation_map(modulator))
    if not logits:
        raise ValueError("empty input set: no logits or maps to compute")
    return np.concatenate(logits), np.concatenate(maps)


def threshold_mask(m: np.ndarray, qs, target_shape: tuple) -> np.ndarray:
    """Boolean masks [len(qs), *target_shape], True where a cell is kept: for
    each quantile order in `qs`, the cells of the finite nonnegative [h, w]
    map `m`, bilinearly upsampled to `target_shape`, at or above its
    q-quantile (type 7; ties retained). The map is upsampled once for all
    orders and the thresholds come from one `np.quantile` call."""
    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 1 or ((qs < 0.0) | (qs > 1.0)).any():
        raise ValueError(f"quantile orders must be a sequence in [0, 1], got {qs}")
    if m.ndim != 2 or not np.isfinite(m).all() or (m < 0).any():
        raise ValueError(f"a saliency map must be a finite nonnegative [h, w] array, "
                         f"got shape {m.shape}")
    up = bilinear_resize_array(m, *target_shape)
    return up >= np.quantile(up, qs)[:, None, None]


def apply_mask(log_mag: np.ndarray, keep: np.ndarray, fill) -> np.ndarray:
    """The float32 `log_mag` where the boolean `keep` (of its shape) is
    True and `fill`, as float32, everywhere else: the one fill rule, for
    the model's inputs (fill 0) and for listening (fill log(LOG_EPS))."""
    if log_mag.dtype != np.float32 or keep.dtype != bool:
        raise ValueError(f"apply_mask needs a float32 log magnitude and a boolean mask, "
                         f"got {log_mag.dtype} and {keep.dtype}")
    if keep.shape != log_mag.shape:
        raise ValueError(f"mask shape {keep.shape} != log magnitude shape {log_mag.shape}")
    return np.where(keep, log_mag, np.float32(fill))


def listenable_interpretation(clip: Waveform, model, frontend, q: float) -> Waveform:
    """Full pipeline: preprocess, forward, `apply_mask` to log(LOG_EPS), reconstruct."""
    spec, x = preprocess(clip, frontend)
    _, [m] = logits_and_maps(model, [x])
    [mask] = threshold_mask(m, [q], spec.log_mag.shape)
    return istft_reconstruct(replace(spec, log_mag=apply_mask(spec.log_mag, mask, np.log(LOG_EPS))))
