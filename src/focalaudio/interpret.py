"""From cached modulator to mask, interpretation spectrogram and audio.

The pipeline: the channel-wise L2 norm of the final block's modulator gives a
nonnegative saliency map at feature resolution, one per clip; the map is
bilinearly upsampled once to full spectrogram resolution and thresholded at
its q-quantile for every requested q (ties kept, so q = 0 retains
everything, and the retained fraction is close to 1 - q); each binary mask
multiplies the log-spectrogram ("for_model" mode, what the metrics evaluate)
or floors masked cells to silence ("for_listening" mode, what gets
reconstructed into a playable waveform). `listenable_interpretation` runs
that whole path for one clip and returns the waveform; `audio.save_wav`
writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Spectrogram, Waveform, bilinear_resize_array, istft_reconstruct, preprocess
from .focalnet import ModulatorCache
from .tensor import no_grad


@dataclass
class ModulationMap:
    """Saliency at feature resolution: per-location L2 norm over channels."""

    values: np.ndarray  # [h, w], nonnegative

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("modulation map must be 2-d")
        if (self.values < 0).any():
            raise ValueError("modulation map must be nonnegative")


@dataclass
class InterpretationMask:
    """Binary time-frequency mask at spectrogram resolution."""

    mask: np.ndarray  # uint8, entries in {0, 1}
    quantile_order: float
    threshold: float

    def __post_init__(self):
        if not ((self.mask == 0) | (self.mask == 1)).all():
            raise ValueError("mask entries must be 0 or 1")

    @property
    def retained_fraction(self) -> float:
        return float(self.mask.mean())


def modulation_map(cache: ModulatorCache) -> list[ModulationMap]:
    """One map per input of the cached batch: the L2 norm of the modulator
    [B, C, h, w] across channels, cropped to the feature cells covering the
    unpadded input. A forward of a single input gives a list of one."""
    if cache is None:
        raise ValueError("no modulator cache: run forward with cache_modulator=True")
    vh, vw = cache.valid_hw
    values = np.sqrt((cache.modulator.astype(np.float64) ** 2).sum(axis=1))[:, :vh, :vw]
    return [ModulationMap(values=v) for v in values]


def threshold_mask(m: ModulationMap, qs, target_shape: tuple) -> list[InterpretationMask]:
    """One binary mask per quantile order in `qs`, each keeping the cells of
    the map, bilinearly upsampled to `target_shape`, at or above its
    q-quantile (type 7; ties retained). The map is upsampled once for all
    orders and the thresholds come from one `np.quantile` call."""
    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 1 or ((qs < 0.0) | (qs > 1.0)).any():
        raise ValueError(f"quantile orders must be a sequence in [0, 1], got {qs}")
    up = bilinear_resize_array(m.values, *target_shape)
    return [InterpretationMask(mask=(up >= thr).astype(np.uint8), quantile_order=float(q),
                               threshold=float(thr))
            for q, thr in zip(qs, np.quantile(up, qs))]


def apply_mask(s: Spectrogram, m: InterpretationMask, mode: str = "for_model") -> Spectrogram:
    """Mask a spectrogram.

    for_model: elementwise product of the log magnitude with the mask (the
    masked cells read log-magnitude 0, i.e. magnitude 1).
    for_listening: masked cells floored to log(eps) so they reconstruct as
    silence. Phase passes through untouched in both modes.
    """
    if m.mask.shape != s.log_mag.shape:
        raise ValueError(f"mask shape {m.mask.shape} != spectrogram shape {s.log_mag.shape}")
    if mode == "for_model":
        out = s.log_mag * m.mask
    elif mode == "for_listening":
        out = np.where(m.mask == 1, s.log_mag, np.float32(np.log(s.params.eps)))
    else:
        raise ValueError(f"unknown masking mode {mode!r}")
    return s.copy_with(out.astype(np.float32))


def listenable_interpretation(clip: Waveform, model, frontend, q: float) -> Waveform:
    """Full pipeline: preprocess, forward with cache, mask, reconstruct."""
    spec, x = preprocess(clip, frontend)
    with no_grad():
        _, cache = model.forward(x, cache_modulator=True)
    [mmap] = modulation_map(cache)
    [mask] = threshold_mask(mmap, [q], spec.log_mag.shape)
    masked = apply_mask(spec, mask, mode="for_listening")
    return istft_reconstruct(masked.log_mag, masked.phase, masked.params)
