"""From the model's modulator to mask, interpretation spectrogram and audio.

`logits_and_maps(model, inputs)` is the one place a model is evaluated for
scoring or interpretation: it runs no_grad forwards over chunks of at most
16 stacked inputs and returns the logits and one saliency map per input,
the channel-wise L2 norm (`modulation_map`) of the modulator the forward
returns, nonnegative and at feature resolution. A second map source
replaces that one function. Each map is bilinearly upsampled once to full
spectrogram resolution and thresholded at its q-quantile for every
requested q (ties kept, so q = 0 retains everything, and the retained
fraction is close to 1 - q), giving one uint8 0/1 mask per q.
`apply_mask(spec, mask, fill)` keeps the log magnitude of the cells the mask
keeps and sets every other cell to `fill`: `log(LOG_EPS)` for listening, so
masked cells reconstruct as silence. Its rule with fill 0 (magnitude 1)
defines the inputs the metrics evaluate, the interpretation and, with
`1 - mask`, its removal; `metrics.evaluate` applies that rule to the cells
the model input's shrink reads, not to whole spectrograms.
`listenable_interpretation` runs that whole path for one clip and returns
the waveform, `istft_reconstruct(spec)` of the listening spectrogram;
`audio.save_wav` writes it.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np

from .audio import (LOG_EPS, Spectrogram, Waveform, bilinear_resize_array, istft_reconstruct,
                    preprocess)
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
    """Binary masks [len(qs), *target_shape], uint8: for each quantile order
    in `qs`, the cells of the finite nonnegative [h, w] map `m`, bilinearly
    upsampled to `target_shape`, at or above its q-quantile (type 7; ties
    retained). The map is upsampled once for all orders and the thresholds
    come from one `np.quantile` call."""
    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 1 or ((qs < 0.0) | (qs > 1.0)).any():
        raise ValueError(f"quantile orders must be a sequence in [0, 1], got {qs}")
    if m.ndim != 2 or not np.isfinite(m).all() or (m < 0).any():
        raise ValueError(f"a saliency map must be a finite nonnegative [h, w] array, "
                         f"got shape {m.shape}")
    up = bilinear_resize_array(m, *target_shape)
    return (up >= np.quantile(up, qs)[:, None, None]).astype(np.uint8)


def apply_mask(s: Spectrogram, mask: np.ndarray, fill: float = 0.0) -> Spectrogram:
    """`s` with the log magnitude of every cell where the 0/1 `mask` (of its
    shape) is 0 set to `fill`; phase passes through untouched. Called once
    per listened clip; `metrics.evaluate` masks only the cells its inputs
    read, with this rule and fill 0."""
    if mask.shape != s.log_mag.shape:
        raise ValueError(f"mask shape {mask.shape} != spectrogram shape {s.log_mag.shape}")
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    return replace(s, log_mag=np.where(mask == 1, s.log_mag, np.float32(fill)))


def listenable_interpretation(clip: Waveform, model, frontend, q: float) -> Waveform:
    """Full pipeline: preprocess, forward, mask to log(LOG_EPS), reconstruct."""
    spec, x = preprocess(clip, frontend)
    _, [m] = logits_and_maps(model, [x])
    [mask] = threshold_mask(m, [q], spec.log_mag.shape)
    return istft_reconstruct(apply_mask(spec, mask, fill=np.log(LOG_EPS)))
