"""Waveform ingestion, STFT/log-spectrogram frontend and reconstruction.

The frontend turns a clip into the image-like input the classifier consumes:

    waveform -> resample to 16 kHz -> centered STFT -> log magnitude
             -> bilinear shrink to NxN -> standardize -> 3 stacked replicas

and back again: a (possibly masked) log magnitude plus the retained phase is
inverted with a window-sum-normalized overlap-add, so interpretations stay
listenable.

STFT convention (fixed): Hann window (periodic) of ``round(win_ms * rate /
1000)`` samples, zero-padded symmetrically to ``n_fft``; frames centered via
reflect padding of ``n_fft // 2`` on both ends; frame count ``1 +
len(samples) // hop``. With the defaults (16 kHz, n_fft 1024, 23 ms window,
11.625 ms hop = 186 samples) a 5 s clip maps to exactly 513 x 431 cells.
A literal 11 ms hop (176 samples) would give 455 frames and contradict the
published spectrogram size, so the default hop is the one that reproduces
it; both are accepted as parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np
from scipy.signal import resample_poly

from .tensor import Tensor, bilinear_resize_array

LOG_EPS = 1e-10


class WavFormatError(ValueError):
    """Malformed or unsupported RIFF/WAVE content."""


class ConfigError(ValueError):
    """STFT parameters outside the supported (invertible) regime."""


@dataclass
class Waveform:
    """Mono audio in [-1, 1] at an integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("Waveform needs a non-empty 1-d sample array")
        if not np.isfinite(s).all():
            raise ValueError("Waveform contains NaN/Inf samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.samples = np.clip(s, -1.0, 1.0)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class StftParams:
    n_fft: int
    win_length: int
    hop_length: int
    window: str
    eps: float
    sample_rate: int
    num_samples: int


@dataclass
class Spectrogram:
    """Log-magnitude plus the phase needed to reconstruct a waveform."""

    log_mag: np.ndarray
    phase: np.ndarray
    params: StftParams

    def __post_init__(self):
        expected = self.params.n_fft // 2 + 1
        if self.log_mag.shape[0] != expected:
            raise ValueError(
                f"freq_bins {self.log_mag.shape[0]} != n_fft/2+1 = {expected}"
            )
        if self.log_mag.shape != self.phase.shape:
            raise ValueError("log_mag and phase shapes differ")

    @property
    def freq_bins(self) -> int:
        return self.log_mag.shape[0]

    @property
    def frames(self) -> int:
        return self.log_mag.shape[1]

    def copy_with(self, log_mag: np.ndarray) -> "Spectrogram":
        return Spectrogram(log_mag=log_mag, phase=self.phase, params=self.params)


@dataclass(frozen=True)
class FrontendConfig:
    """Everything needed to map a clip to a model input, checkpointable."""

    sample_rate: int = 16000
    n_fft: int = 1024
    win_ms: float = 23.0
    hop_ms: float = 11.625
    eps: float = LOG_EPS
    input_size: int = 224


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
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = (pos + 8, body)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk found")
    if data is None:
        raise WavFormatError(f"{path}: no data chunk found")
    audio_format, channels, rate, _, _, bits = fmt
    offset, payload = data

    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    else:
        raise WavFormatError(
            f"{path}: unsupported codec (format {audio_format}, {bits}-bit) at byte {offset}"
        )
    if channels > 1:
        usable = (raw.size // channels) * channels
        raw = raw[:usable].reshape(-1, channels).mean(axis=1)
    if raw.size == 0:
        raise WavFormatError(f"{path}: empty data chunk at byte {offset}")
    return Waveform(samples=raw, sample_rate=rate)


def save_wav(w: Waveform, path, pcm16: bool = False) -> None:
    """Write a mono WAV; float32 by default (lossless round trip)."""
    if pcm16:
        payload = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        payload = w.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    byte_rate = w.sample_rate * bits // 8
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, w.sample_rate, byte_rate, bits // 8, bits,
        b"data", len(payload),
    )
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(payload)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def resample(w: Waveform, target_rate: int) -> Waveform:
    """Polyphase resampling; output length is round(len * target / source)."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    g = math.gcd(target_rate, w.sample_rate)
    out = resample_poly(w.samples.astype(np.float64), target_rate // g, w.sample_rate // g)
    want = round(w.samples.size * target_rate / w.sample_rate)
    if out.size > want:
        out = out[:want]
    elif out.size < want:
        out = np.pad(out, (0, want - out.size))
    return Waveform(np.clip(out, -1.0, 1.0).astype(np.float32), target_rate)


# ---------------------------------------------------------------------------
# STFT / inverse STFT
# ---------------------------------------------------------------------------

def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def _reflect_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Mirror padding without the np.pad restriction pad < len(x)."""
    n = x.size
    if n == 1:
        return np.full(n + 2 * pad, x[0])
    idx = np.arange(-pad, n + pad)
    period = 2 * n - 2
    m = np.mod(idx, period)
    m = np.where(m >= n, period - m, m)
    return x[m]


def _padded_window(win_length: int, n_fft: int) -> np.ndarray:
    w = _periodic_hann(win_length)
    lead = (n_fft - win_length) // 2
    return np.pad(w, (lead, n_fft - win_length - lead))


def stft(w: Waveform, n_fft: int = 1024, win_ms: float = 23.0,
         hop_ms: float = 11.625, eps: float = LOG_EPS) -> Spectrogram:
    """Centered STFT with reflect padding; see module docstring for the
    frame-count convention."""
    win_length = round(win_ms * w.sample_rate / 1000.0)
    hop_length = round(hop_ms * w.sample_rate / 1000.0)
    if win_length > n_fft:
        raise ConfigError(f"window of {win_length} samples exceeds n_fft {n_fft}")
    if hop_length < 1:
        raise ConfigError("hop must be at least one sample")
    if w.samples.size < win_length:
        raise ValueError(
            f"clip of {w.samples.size} samples is shorter than one window ({win_length})"
        )
    params = StftParams(
        n_fft=n_fft, win_length=win_length, hop_length=hop_length, window="hann",
        eps=eps, sample_rate=w.sample_rate, num_samples=int(w.samples.size),
    )
    window = _padded_window(win_length, n_fft)
    half = n_fft // 2
    x = _reflect_pad(w.samples.astype(np.float64), half)
    n_frames = 1 + w.samples.size // hop_length
    starts = np.arange(n_frames) * hop_length
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[starts] * window
    spec = np.fft.rfft(frames, axis=1).T  # [freq_bins, frames]
    log_mag = np.log(np.abs(spec) + eps).astype(np.float32)
    phase = np.angle(spec).astype(np.float32)
    return Spectrogram(log_mag=log_mag, phase=phase, params=params)


def _nola_check(window: np.ndarray, hop: int, total: int, half: int, n: int) -> np.ndarray:
    """Accumulated squared-window envelope; error out if it has holes."""
    wsq = window * window
    env = np.zeros(total)
    for s in range(0, total - window.size + 1, hop):
        env[s : s + window.size] += wsq
    interior = env[half : half + n]
    if interior.min() < 1e-10:
        raise ConfigError(
            "window/hop combination violates the nonzero-overlap-add condition; "
            "the inverse STFT would divide by ~0"
        )
    return env


def istft_reconstruct(log_mag: np.ndarray, phase: np.ndarray, params: StftParams) -> Waveform:
    """Overlap-add inverse with window-sum normalization.

    Masked-out cells floored at log(eps) synthesize as (near) zero magnitude,
    so an all-masked spectrogram reconstructs as silence.
    """
    if log_mag.shape != phase.shape:
        raise ValueError("log_mag and phase shapes differ")
    if log_mag.shape[0] != params.n_fft // 2 + 1:
        raise ValueError("spectrogram does not match stft params")
    mag = np.exp(log_mag.astype(np.float64)) - params.eps
    np.clip(mag, 0.0, None, out=mag)
    spec = mag * np.exp(1j * phase.astype(np.float64))
    frames = np.fft.irfft(spec.T, n=params.n_fft, axis=1)
    window = _padded_window(params.win_length, params.n_fft)
    hop, n_fft = params.hop_length, params.n_fft
    half = n_fft // 2
    total = (frames.shape[0] - 1) * hop + n_fft
    env = _nola_check(window, hop, total, half, params.num_samples)
    y = np.zeros(total)
    for i in range(frames.shape[0]):
        y[i * hop : i * hop + n_fft] += frames[i] * window
    y /= np.maximum(env, 1e-12)
    out = y[half : half + params.num_samples]
    if out.size < params.num_samples:
        out = np.pad(out, (0, params.num_samples - out.size))
    return Waveform(np.clip(out, -1.0, 1.0).astype(np.float32), params.sample_rate)


# ---------------------------------------------------------------------------
# model input packing and augmentation
# ---------------------------------------------------------------------------

def to_model_input(s: Spectrogram, out: int = 224) -> Tensor:
    """Shrink to out x out, standardize per input, stack 3 identical channels."""
    resized = bilinear_resize_array(s.log_mag.astype(np.float32), out, out)
    mu = resized.mean()
    sd = resized.std()
    if sd < 1e-8:
        normed = np.zeros_like(resized)
    else:
        normed = (resized - mu) / sd
    return Tensor(np.stack([normed, normed, normed]))


def preprocess(w: Waveform, cfg: FrontendConfig) -> tuple[Spectrogram, Tensor]:
    """Full clip-to-input path: resample, STFT, pack."""
    if w.sample_rate != cfg.sample_rate:
        w = resample(w, cfg.sample_rate)
    spec = stft(w, n_fft=cfg.n_fft, win_ms=cfg.win_ms, hop_ms=cfg.hop_ms, eps=cfg.eps)
    return spec, to_model_input(spec, out=cfg.input_size)


@dataclass(frozen=True)
class AugmentPolicy:
    """Random spectrogram dropout: contiguous frequency bands and/or time chunks."""

    probability: float = 0.75
    max_regions: int = 3
    max_fraction: float = 0.15


def augment(x: Tensor, policy: AugmentPolicy, rng_seed) -> Tensor:
    """Zero out random frequency bands and/or time chunks of a model input.

    Deterministic given the seed. With probability `policy.probability` one
    of {frequency drop, time drop, both} is applied; each drop zeroes 1 to
    `max_regions` contiguous regions, each at most `max_fraction` of the axis.
    """
    rng = np.random.default_rng(rng_seed)
    if rng.random() >= policy.probability:
        return Tensor(x.data.copy())
    data = x.data.copy()
    n_freq, n_time = data.shape[-2], data.shape[-1]
    mode = int(rng.integers(3))  # 0: freq, 1: time, 2: both

    def drop(axis_len: int, axis: int):
        for _ in range(int(rng.integers(1, policy.max_regions + 1))):
            width = int(rng.integers(1, max(1, int(axis_len * policy.max_fraction)) + 1))
            start = int(rng.integers(0, axis_len - width + 1))
            if axis == -2:
                data[..., start : start + width, :] = 0.0
            else:
                data[..., start : start + width] = 0.0

    if mode in (0, 2):
        drop(n_freq, -2)
    if mode in (1, 2):
        drop(n_time, -1)
    return Tensor(data)


# ---------------------------------------------------------------------------
# exports: the checksummed binary container, spectrograms and greymaps
# ---------------------------------------------------------------------------
#
# Checkpoints (`training`) and spectrograms share one container layout:
#
#     magic (8 bytes) | <IQ version, header length | JSON header | payload
#     | SHA-256 of everything before it (32 bytes)
#
# The header is sorted-key JSON. Its `arrays` entry indexes the payload: one
# {kind, name, dtype, shape, offset, nbytes} record per little-endian array
# (float64 stays "<f8", everything else is stored as "<f4"), written kind by
# kind in the caller's order and by sorted name within a kind.


class ContainerError(ValueError):
    """Unreadable container file: the message names the path and the check
    that failed (magic, length, checksum, version or header). `training`
    also raises it, as `CheckpointError`, when a loaded checkpoint does not
    fit its model; that message names the parameter instead."""


def write_container(path, magic: bytes, version: int, header: dict, arrays: dict) -> None:
    """Write `header` plus `arrays` ({kind: {name: ndarray}}) as a container."""
    index = []
    raws = []
    offset = 0
    for kind, named in arrays.items():
        for name in sorted(named):
            arr = named[name]
            dt = "<f8" if arr.dtype == np.float64 else "<f4"
            raw = np.ascontiguousarray(arr, dtype=dt)
            index.append({"kind": kind, "name": name, "dtype": dt,
                          "shape": list(arr.shape), "offset": offset, "nbytes": raw.nbytes})
            raws.append(raw)
            offset += raw.nbytes
    head = json.dumps({**header, "arrays": index}, sort_keys=True).encode()
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in (magic + struct.pack("<IQ", version, len(head)) + head, *raws):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def read_container(path, magic: bytes, version: int) -> tuple[dict, dict]:
    """Read a container written by `write_container` with the same magic and
    version; returns the header (without the index) and {kind: {name: ndarray}}.

    Magic, length, checksum and version are checked, in that order, before
    the header is parsed (a file shorter than the magic is reported as
    truncated); any failure raises `ContainerError`.
    """
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    prefix = len(magic) + 12
    if len(blob) < len(magic):
        raise ContainerError(f"{path}: truncated, {len(blob)} bytes")
    if blob[: len(magic)] != magic:
        raise ContainerError(f"{path}: magic mismatch, not a {magic.decode()} container")
    if len(blob) < prefix + 32:
        raise ContainerError(f"{path}: truncated, {len(blob)} bytes")
    body = blob[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise ContainerError(f"{path}: checksum mismatch, refusing to load")
    found, hlen = struct.unpack("<IQ", body[len(magic) : prefix])
    if found != version:
        raise ContainerError(f"{path}: unsupported version {found}, expected {version}")
    payload = body[prefix + hlen :]
    arrays: dict = {}
    try:  # a checksummed file can still come from another writer
        header = json.loads(bytes(body[prefix : prefix + hlen]))
        for a in header.pop("arrays"):
            raw = payload[a["offset"] : a["offset"] + a["nbytes"]]
            arr = np.frombuffer(raw, dtype=a["dtype"]).reshape(a["shape"]).copy()
            arrays.setdefault(a["kind"], {})[a["name"]] = arr
    except (ValueError, KeyError, TypeError) as e:
        raise ContainerError(f"{path}: malformed header: {e}") from None
    return header, arrays


_SPEC_MAGIC = b"FOCALSPG"
_SPEC_VERSION = 2


def save_spectrogram(s: Spectrogram, path) -> None:
    """Log magnitude and phase plus the STFT parameters, as a container."""
    write_container(path, _SPEC_MAGIC, _SPEC_VERSION, {"stft_params": asdict(s.params)},
                    {"spectrogram": {"log_mag": s.log_mag, "phase": s.phase}})


def load_spectrogram(path) -> Spectrogram:
    header, arrays = read_container(path, _SPEC_MAGIC, _SPEC_VERSION)
    return Spectrogram(params=StftParams(**header["stft_params"]), **arrays["spectrogram"])


def write_pgm(matrix: np.ndarray, path) -> None:
    """Binary P5 greymap, min-max normalized to 0..255. Row 0 is bin 0 (DC)."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    if hi - lo < 1e-12:
        img = np.zeros(m.shape, dtype=np.uint8)
    else:
        img = np.round((m - lo) / (hi - lo) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
