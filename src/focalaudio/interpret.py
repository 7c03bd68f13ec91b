"""From the model's modulator to mask, interpretation spectrogram and audio.

The pipeline runs on plain arrays: the channel-wise L2 norm of the
modulator the model's forward returns gives a nonnegative saliency map at
feature resolution, one per clip; the map is bilinearly upsampled once to
full spectrogram resolution and thresholded at its q-quantile for every
requested q (ties kept, so q = 0 retains everything, and the retained
fraction is close to 1 - q), giving one uint8 0/1 mask per q; a mask
multiplies the log-spectrogram ("for_model" mode, what the metrics evaluate,
for the interpretation and, with `1 - mask`, for its removal) or floors
masked cells to silence ("for_listening" mode, what gets reconstructed into
a playable waveform). `listenable_interpretation` runs that whole path for
one clip and returns the waveform, `istft_reconstruct(spec)` of the listening
spectrogram; `audio.save_wav` writes it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .audio import Spectrogram, Waveform, bilinear_resize_array, istft_reconstruct, preprocess
from .tensor import no_grad


def modulation_map(modulator: np.ndarray) -> np.ndarray:
    """Saliency maps [B, h, w], float64: the L2 norm across channels of a
    modulator [B, C, h, w], one map per input of the batch."""
    return np.sqrt((modulator.astype(np.float64) ** 2).sum(axis=1))


def threshold_mask(m: np.ndarray, qs, target_shape: tuple) -> np.ndarray:
    """Binary masks [len(qs), *target_shape], uint8: for each quantile order
    in `qs`, the cells of the nonnegative [h, w] map `m`, bilinearly upsampled
    to `target_shape`, at or above its q-quantile (type 7; ties retained).
    The map is upsampled once for all orders and the thresholds come from
    one `np.quantile` call."""
    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 1 or ((qs < 0.0) | (qs > 1.0)).any():
        raise ValueError(f"quantile orders must be a sequence in [0, 1], got {qs}")
    if m.ndim != 2 or (m < 0).any():
        raise ValueError(f"a saliency map must be a nonnegative [h, w] array, got shape {m.shape}")
    up = bilinear_resize_array(m, *target_shape)
    return (up >= np.quantile(up, qs)[:, None, None]).astype(np.uint8)


def apply_mask(s: Spectrogram, mask: np.ndarray, mode: str = "for_model") -> Spectrogram:
    """Mask a spectrogram with a 0/1 `mask` of its shape.

    for_model: elementwise product of the log magnitude with the mask (the
    masked cells read log-magnitude 0, i.e. magnitude 1).
    for_listening: masked cells floored to log(eps) so they reconstruct as
    silence. Phase passes through untouched in both modes.
    """
    if mask.shape != s.log_mag.shape:
        raise ValueError(f"mask shape {mask.shape} != spectrogram shape {s.log_mag.shape}")
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    if mode == "for_model":
        out = s.log_mag * mask
    elif mode == "for_listening":
        out = np.where(mask == 1, s.log_mag, np.float32(np.log(s.frontend.eps)))
    else:
        raise ValueError(f"unknown masking mode {mode!r}")
    return replace(s, log_mag=out.astype(np.float32))


def listenable_interpretation(clip: Waveform, model, frontend, q: float) -> Waveform:
    """Full pipeline: preprocess, forward, mask, reconstruct."""
    spec, x = preprocess(clip, frontend)
    with no_grad():
        _, modulator = model.forward(x)
    [mask] = threshold_mask(modulation_map(modulator)[0], [q], spec.log_mag.shape)
    return istft_reconstruct(apply_mask(spec, mask, mode="for_listening"))
