"""Waveform ingestion, STFT/log-spectrogram frontend and reconstruction.

The frontend turns a clip into the image-like input the classifier consumes:

    waveform -> resample to SAMPLE_RATE -> centered STFT -> log magnitude
             -> bilinear shrink to NxN -> standardize -> 3 stacked replicas

and back again: a (possibly masked) log magnitude plus the retained phase is
inverted with a window-sum-normalized overlap-add, so interpretations stay
listenable.

The STFT convention is fixed, and the module constants state it: clips at
`SAMPLE_RATE` (16 kHz), a periodic Hann window of `WIN_LENGTH` samples
(23 ms) zero-padded symmetrically to `N_FFT` (1024) points (`WINDOW`),
frames centered via reflect padding of ``N_FFT // 2`` on both ends, a hop
of `HOP_LENGTH` samples (11.625 ms) and ``1 + len(samples) // HOP_LENGTH``
frames, log magnitudes floored at `LOG_EPS`. A 5 s clip maps to exactly
513 x 431 cells. `FrontendConfig` holds only what varies, the model input's
side. A clip's last sample can sit up to HOP_LENGTH - 2 = 184 samples past
the last frame's centre, one beyond the window's reach of 183, so the
inverse returns the last sample of a clip whose length is 185 mod 186 as 0:
no frame saw it.

Bilinear resizing (the input shrink here, the mask upsampling in
`interpret`) uses align-corners sampling: output corner pixels map onto
input corner pixels, and a singleton output axis samples coordinate 0. The
shrink to an N x N input reads at most 2N rows and 2N columns, its
`ShrinkGrid`; `to_model_input` gathers those cells and shrinks only them.

`resample` always targets `SAMPLE_RATE`, with scipy's default Kaiser
low-pass, designed once per rate pair. `load_wav` reads PCM16 and float32
files, since it reads input made elsewhere; `save_wav` writes float32 only.

Everything here works on plain numpy arrays: a model input is an
``np.ndarray`` [3, S, S], and only the model wraps it for the autograd tape.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

SAMPLE_RATE = 16000
N_FFT = 1024
WIN_LENGTH = 368  # 23 ms
# 11.625 ms; a literal 11 ms hop (176 samples) would give a 5 s clip 455
# frames, not the published 431
HOP_LENGTH = 186
LOG_EPS = 1e-10

_SUPPORT = (N_FFT - WIN_LENGTH) // 2  # where the Hann window starts in WINDOW
# the periodic Hann window, zero-padded symmetrically to N_FFT points
WINDOW = np.pad(0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WIN_LENGTH) / WIN_LENGTH)),
                _SUPPORT)
WINDOW.flags.writeable = False


class WavFormatError(ValueError):
    """Malformed or unsupported RIFF/WAVE content."""


@dataclass
class Waveform:
    """Mono float32 audio in [-1, 1] at an integer sample rate. This is the
    one place that clips, before the cast, so that a finite float64 sample
    beyond float32's range clips to ±1 instead of turning infinite."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("Waveform needs a non-empty 1-d sample array")
        if not np.isfinite(s).all():
            raise ValueError("Waveform contains NaN/Inf samples")
        if not (type(self.sample_rate) is int and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        self.samples = np.clip(s, -1.0, 1.0).astype(np.float32, copy=False)


@dataclass(frozen=True)
class FrontendConfig:
    """The frontend setting that varies, checkpointable: the model input's
    side, which must be a multiple of the model's total stride (8 for the
    tiny and desk models, 32 for the default). The STFT geometry is the
    module constants."""

    input_size: int = 224

    def __post_init__(self):
        if not (type(self.input_size) is int and self.input_size >= 1):
            raise ValueError(f"input_size must be an integer >= 1, got {self.input_size!r}")


@dataclass
class Spectrogram:
    """Log-magnitude and phase [N_FFT // 2 + 1, frames] of a clip of
    `num_samples` samples; `istft_reconstruct` inverts them."""

    log_mag: np.ndarray
    phase: np.ndarray
    num_samples: int

    def __post_init__(self):
        if self.log_mag.shape[0] != N_FFT // 2 + 1:
            raise ValueError(
                f"freq_bins {self.log_mag.shape[0]} != n_fft/2+1 = {N_FFT // 2 + 1}"
            )
        if self.log_mag.shape != self.phase.shape:
            raise ValueError("log_mag and phase shapes differ")


# ---------------------------------------------------------------------------
# WAV files (RIFF, PCM16 or float32)
# ---------------------------------------------------------------------------

def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file; stereo is downmixed by channel mean."""
    with open(path, "rb") as f:
        blob = f.read()

    def need(offset: int, n: int, what: str) -> bytes:
        if offset + n > len(blob):
            raise WavFormatError(f"{path}: truncated while reading {what} at byte {offset}")
        return blob[offset : offset + n]

    if need(0, 4, "RIFF magic") != b"RIFF":
        raise WavFormatError(f"{path}: missing RIFF magic at byte 0")
    if need(8, 4, "WAVE tag") != b"WAVE":
        raise WavFormatError(f"{path}: missing WAVE tag at byte 8")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = need(pos, 4, "chunk id")
        (size,) = struct.unpack("<I", need(pos + 4, 4, "chunk size"))
        body = need(pos + 8, size, f"chunk {cid!r} body")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short at byte {pos}")
            fmt = (pos, struct.unpack("<HHIIHH", body[:16]))
        elif cid == b"data":
            data = (pos + 8, body)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk found")
    if data is None:
        raise WavFormatError(f"{path}: no data chunk found")
    fmt_pos, (audio_format, channels, rate, _, block_align, bits) = fmt
    offset, payload = data

    if rate == 0:
        raise WavFormatError(f"{path}: sample rate 0 in fmt chunk at byte {fmt_pos}")
    if channels == 0:
        raise WavFormatError(f"{path}: 0 channels in fmt chunk at byte {fmt_pos}")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise WavFormatError(
            f"{path}: unsupported codec (format {audio_format}, {bits}-bit) at byte {offset}"
        )
    if block_align != channels * bits // 8:
        raise WavFormatError(
            f"{path}: block align {block_align} is not {channels} channels x {bits // 8} "
            f"bytes in fmt chunk at byte {fmt_pos}"
        )
    if len(payload) % block_align:
        raise WavFormatError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number of "
            f"{channels}-channel frames of {bits}-bit samples at byte {offset}"
        )
    if bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
    else:
        raw = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if channels > 1:
        raw = raw.reshape(-1, channels).mean(axis=1)
    if raw.size == 0:
        raise WavFormatError(f"{path}: empty data chunk at byte {offset}")
    return Waveform(samples=raw, sample_rate=rate)


def save_wav(w: Waveform, path) -> None:
    """Write a mono float32 WAV (a lossless round trip through `load_wav`)."""
    wavfile.write(path, w.sample_rate, w.samples)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _lowpass(max_rate: int) -> np.ndarray:
    """`resample_poly`'s default filter when the larger reduced rate factor is
    `max_rate`: 20·max_rate + 1 Kaiser (beta 5) taps, cutoff 1/max_rate of
    Nyquist. Read-only; `resample_poly` copies it and scales it by `up`."""
    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def resample(w: Waveform) -> Waveform:
    """Polyphase resampling to `SAMPLE_RATE`; output length is
    round(len * SAMPLE_RATE / source rate). A clip already at `SAMPLE_RATE`
    comes back as an equal copy."""
    g = math.gcd(SAMPLE_RATE, w.sample_rate)
    up, down = SAMPLE_RATE // g, w.sample_rate // g
    if up == down:  # firwin rejects the cutoff 1 an identity would ask for
        return Waveform(w.samples.copy(), SAMPLE_RATE)
    out = resample_poly(w.samples.astype(np.float64), up, down, window=_lowpass(max(up, down)))
    # resample_poly returns ceil(len * up / down) samples, never fewer than wanted
    return Waveform(out[: round(w.samples.size * SAMPLE_RATE / w.sample_rate)], SAMPLE_RATE)


# ---------------------------------------------------------------------------
# STFT / inverse STFT
# ---------------------------------------------------------------------------

def stft(w: Waveform) -> Spectrogram:
    """Centered STFT with reflect padding; see module docstring for the
    frame-count convention. The clip must already be at `SAMPLE_RATE`."""
    if w.sample_rate != SAMPLE_RATE:
        raise ValueError(
            f"clip at {w.sample_rate} Hz, frontend at {SAMPLE_RATE} Hz; resample first"
        )
    if w.samples.size < WIN_LENGTH:
        raise ValueError(
            f"clip of {w.samples.size} samples is shorter than one window ({WIN_LENGTH})"
        )
    x = np.pad(w.samples.astype(np.float64), N_FFT // 2, mode="reflect")
    starts = np.arange(1 + w.samples.size // HOP_LENGTH) * HOP_LENGTH
    frames = np.lib.stride_tricks.sliding_window_view(x, N_FFT)[starts] * WINDOW
    spec = np.fft.rfft(frames, axis=1).T  # [freq_bins, frames]
    log_mag = np.log(np.abs(spec) + LOG_EPS).astype(np.float32)
    phase = np.angle(spec).astype(np.float32)
    return Spectrogram(log_mag=log_mag, phase=phase, num_samples=int(w.samples.size))


def istft_reconstruct(spec: Spectrogram) -> Waveform:
    """Overlap-add inverse with window-sum normalization, at `SAMPLE_RATE`.

    Masked-out cells floored at log(LOG_EPS) synthesize as (near) zero
    magnitude, so an all-masked spectrogram reconstructs as silence. Samples
    past the reach of the last frame's window come back as 0: the STFT holds
    nothing of them. That is the last sample of a clip whose length is 185
    mod 186, 184 samples past the last frame's centre against the window's
    183.
    """
    mag = np.exp(spec.log_mag.astype(np.float64)) - LOG_EPS
    np.clip(mag, 0.0, None, out=mag)
    # the phase is stored as float32, so float32 trig loses nothing more
    z = np.empty(mag.shape, np.complex128)
    np.multiply(mag, np.cos(spec.phase), out=z.real)
    np.multiply(mag, np.sin(spec.phase), out=z.imag)
    frames = np.fft.irfft(z.T, n=N_FFT, axis=1)
    # Each frame's window support, WIN_LENGTH <= 2 * HOP_LENGTH samples from
    # _SUPPORT, is two hop-sized blocks: block j of frame i lands on output
    # block i + j, counted from sample _SUPPORT of the padded signal.
    n = frames.shape[0]
    win = WINDOW[_SUPPORT : _SUPPORT + 2 * HOP_LENGTH].reshape(2, HOP_LENGTH)
    seg = frames[:, _SUPPORT : _SUPPORT + 2 * HOP_LENGTH].reshape(n, 2, HOP_LENGTH) * win
    y = np.zeros((n + 1, HOP_LENGTH))
    env = np.zeros((n + 1, HOP_LENGTH))
    y[:n] = seg[:, 0]
    y[1:] += seg[:, 1]
    env[:n] = win[0] * win[0]
    env[1:] += win[1] * win[1]
    y /= np.maximum(env, 1e-12)  # where no window reaches, y and env are both 0
    start = N_FFT // 2 - _SUPPORT
    return Waveform(y.reshape(-1)[start : start + spec.num_samples], SAMPLE_RATE)


# ---------------------------------------------------------------------------
# bilinear resizing (align-corners, see the module docstring)
# ---------------------------------------------------------------------------

def _interp_coeffs(in_len: int, out_len: int, dtype):
    """Align-corners source indices and blend weights for one axis."""
    if out_len < 1:
        raise ValueError("bilinear_resize_array: output size must be >= 1")
    if in_len == 1 or out_len == 1:
        pos = np.zeros(out_len, dtype=np.float64)
    else:
        pos = np.arange(out_len, dtype=np.float64) * (in_len - 1) / (out_len - 1)
    i0 = np.minimum(pos.astype(np.int64), max(in_len - 2, 0))
    i1 = np.minimum(i0 + 1, in_len - 1)
    w = (pos - i0).astype(dtype)
    return i0, i1, w


def _resize_axis(data: np.ndarray, coeffs: tuple, axis: int) -> np.ndarray:
    i0, i1, w = coeffs
    shape = [1] * data.ndim
    shape[axis] = w.size
    w = w.reshape(shape)
    a = np.take(data, i0, axis=axis)
    b = np.take(data, i1, axis=axis)
    # a + (b - a) * w is exact for equal endpoints (constant images resize exactly)
    return a + (b - a) * w


def bilinear_resize_array(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the two trailing axes (align-corners)."""
    rows = _interp_coeffs(data.shape[-2], out_h, data.dtype)
    cols = _interp_coeffs(data.shape[-1], out_w, data.dtype)
    return _resize_axis(_resize_axis(data, rows, data.ndim - 2), cols, data.ndim - 1)


# ---------------------------------------------------------------------------
# model input packing and augmentation
# ---------------------------------------------------------------------------

class ShrinkGrid:
    """The cells that the out x out bilinear shrink of a [rows, cols] array
    reads: at most 2·out rows and 2·out columns, the union of each axis's
    `_interp_coeffs` indices. `gather` copies those cells out of any array
    whose trailing axes have that shape (a log magnitude, a stack of masks),
    and `model_input` shrinks gathered cells with the blend coefficients
    re-indexed into the grid, so it equals the shrink of the whole array."""

    def __init__(self, shape: tuple, out: int):
        self.index, self.coeffs = [], []
        for n in shape:
            i0, i1, w = _interp_coeffs(n, out, np.float32)
            idx = np.union1d(i0, i1)
            self.index.append(idx)
            self.coeffs.append((np.searchsorted(idx, i0), np.searchsorted(idx, i1), w))

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The grid's cells of `a` [..., rows, cols], as a new C-ordered array."""
        rows, cols = self.index
        return np.take(np.take(a, rows, axis=-2), cols, axis=-1)

    def model_input(self, cells: np.ndarray) -> np.ndarray:
        """Shrink gathered cells [|rows|, |cols|] to out x out, standardize,
        stack 3 identical channels into a [3, out, out] float32 array."""
        rows, cols = self.coeffs
        resized = _resize_axis(_resize_axis(cells.astype(np.float32, copy=False), rows, 0), cols, 1)
        mu = resized.mean()
        sd = resized.std()
        if sd < 1e-8:
            normed = np.zeros_like(resized)
        else:
            normed = (resized - mu) / sd
        return np.stack([normed, normed, normed])


def to_model_input(s: Spectrogram, out: int) -> np.ndarray:
    """Shrink to out x out, standardize per input, stack 3 identical channels
    into a [3, out, out] float32 array. Only the `ShrinkGrid` cells of the
    log magnitude are read."""
    grid = ShrinkGrid(s.log_mag.shape, out)
    return grid.model_input(grid.gather(s.log_mag))


def preprocess(w: Waveform, cfg: FrontendConfig) -> tuple[Spectrogram, np.ndarray]:
    """Full clip-to-input path: resample, STFT, pack."""
    spec = stft(resample(w))
    return spec, to_model_input(spec, out=cfg.input_size)


AUGMENT_PROB = 0.75
AUGMENT_MAX_REGIONS = 3
AUGMENT_MAX_FRACTION = 0.15


def augment(x: np.ndarray, rng_seed) -> np.ndarray:
    """Zero out random frequency bands and/or time chunks of a model input;
    returns a new array, `x` is left as it is.

    Deterministic given the seed. With probability `AUGMENT_PROB` (0.75) one of
    {frequency drop, time drop, both} is applied; each drop zeroes 1 to
    `AUGMENT_MAX_REGIONS` (3) contiguous regions, each at most
    `AUGMENT_MAX_FRACTION` (0.15) of the axis.
    """
    rng = np.random.default_rng(rng_seed)
    data = x.copy()
    if rng.random() >= AUGMENT_PROB:
        return data
    n_freq, n_time = data.shape[-2], data.shape[-1]
    mode = int(rng.integers(3))  # 0: freq, 1: time, 2: both

    def drop(axis_len: int, axis: int):
        for _ in range(int(rng.integers(1, AUGMENT_MAX_REGIONS + 1))):
            width = int(rng.integers(1, max(1, int(axis_len * AUGMENT_MAX_FRACTION)) + 1))
            start = int(rng.integers(0, axis_len - width + 1))
            if axis == -2:
                data[..., start : start + width, :] = 0.0
            else:
                data[..., start : start + width] = 0.0

    if mode in (0, 2):
        drop(n_freq, -2)
    if mode in (1, 2):
        drop(n_time, -1)
    return data
