"""Dataset ingestion (ESC-50 CSV layout) and the synthetic tone dataset.

A dataset's one record is its meta.csv, read by `ingest` into a manifest
of (path, label id, label name, fold) per clip; folds 1-3 train, fold 4
validates, fold 5 tests. The synthetic generator emits clips with known
time-frequency signatures: pure tones at 500 Hz and 2 kHz, white noise, an
amplitude-modulated 1 kHz tone. The tests check that at 16 kHz each tone's
energy peaks at its bin (32, 128 and 64 of the 1024-point STFT) and that
the noise has no dominant bin; masks are not scored against these bins.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import FrontendConfig, Waveform, load_wav, preprocess, save_wav

SPLIT_FOLDS = {"train": (1, 2, 3), "val": (4,), "test": (5,)}

SYNTH_CLASSES = ("tone_500hz", "tone_2000hz", "white_noise", "am_tone_1000hz")
SYNTH_TONE_HZ = {"tone_500hz": 500.0, "tone_2000hz": 2000.0, "am_tone_1000hz": 1000.0}


@dataclass
class ClipRecord:
    path: str
    label: int
    label_name: str
    fold: int
    clip_id: str


@dataclass
class ClipSet:
    """Preprocessed model inputs ready for training or evaluation."""

    inputs: np.ndarray  # [N, 3, S, S] float32
    labels: np.ndarray  # [N] int64
    clip_ids: list

    def __post_init__(self):
        if len(self.inputs) != len(self.labels) or len(self.labels) != len(self.clip_ids):
            raise ValueError("inputs, labels and clip_ids must align")

    def __len__(self):
        return len(self.labels)


@dataclass
class DatasetManifest:
    records: list

    def split(self, name: str) -> list:
        if name not in SPLIT_FOLDS:
            raise ValueError(f"unknown split {name!r} (train/val/test)")
        return [r for r in self.records if r.fold in SPLIT_FOLDS[name]]


def ingest(dataset_root, meta_csv, num_classes: int = 50) -> DatasetManifest:
    """Validate a metadata CSV (columns filename, fold, target, category)
    against the audio files under `dataset_root`/audio.

    Raises with a list of offending rows, by CSV line number, on missing
    files, duplicate filenames or clip ids (a clip is named by its file's
    stem, so `dog.wav` and `a/dog.wav` would share one), non-integer or
    out-of-range folds or labels; missing columns are reported against the
    header, line 1.
    """
    audio_dir = Path(dataset_root) / "audio"
    problems = []
    records = []
    first_row = {}  # clip id (the file's stem) -> (line, filename) of its first row
    with open(meta_csv, newline="") as f:
        reader = csv.DictReader(f)
        required = {"filename", "fold", "target", "category"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{meta_csv}: line 1: metadata must have columns {sorted(required)}")
        for i, row in enumerate(reader, start=2):  # header is line 1
            fname = row["filename"]
            try:
                fold, target = int(row["fold"]), int(row["target"])
            except (TypeError, ValueError):
                problems.append(f"line {i}: fold {row['fold']!r} or label {row['target']!r} "
                                "is not an integer")
                continue
            clip_id = Path(fname).stem
            if clip_id in first_row:  # a repeated filename repeats its stem too
                j, other = first_row[clip_id]
                what = (f"duplicate filename {fname}" if other == fname
                        else f"clip id {clip_id} of {fname} repeats line {j} ({other})")
                problems.append(f"line {i}: {what}")
                continue
            first_row[clip_id] = (i, fname)
            if fold not in (1, 2, 3, 4, 5):
                problems.append(f"line {i}: fold {fold} outside 1..5")
            if not 0 <= target < num_classes:
                problems.append(f"line {i}: label {target} outside [0, {num_classes - 1}]")
            path = audio_dir / fname
            if not path.is_file():
                problems.append(f"line {i}: missing audio file {path}")
            records.append(ClipRecord(
                path=str(path), label=target, label_name=row["category"],
                fold=fold, clip_id=clip_id,
            ))
    if problems:
        raise ValueError("manifest validation failed:\n  " + "\n  ".join(problems))
    if not records:
        raise ValueError(f"{meta_csv}: no clips found")
    return DatasetManifest(records=records)


def _synth_clip(label_name: str, rng: np.random.Generator, seconds: float,
                rate: int) -> np.ndarray:
    """One clip: mild random gain and phase, faint noise floor everywhere."""
    n = int(seconds * rate)
    t = np.arange(n) / rate
    gain = rng.uniform(0.25, 0.8)
    phase = rng.uniform(0, 2 * np.pi)
    floor = 1e-4 * rng.standard_normal(n)
    if label_name == "white_noise":
        sig = gain * 0.2 * rng.standard_normal(n)
    elif label_name == "am_tone_1000hz":
        rate_hz = rng.uniform(4.0, 16.0)
        envelope = 1.0 + 0.9 * np.sin(2 * np.pi * rate_hz * t)
        sig = gain * 0.5 * envelope * np.sin(2 * np.pi * 1000.0 * t + phase) / 1.9
    else:
        freq = SYNTH_TONE_HZ[label_name]
        sig = gain * np.sin(2 * np.pi * freq * t + phase)
    return sig + floor


def generate_synthetic_dataset(out_root, clips_per_class: int = 100, seconds: float = 5.0,
                               sample_rate: int = 16000, seed: int = 0) -> DatasetManifest:
    """Write the 4-class synthetic tone dataset in the ESC-50 file layout
    (audio/ plus meta.csv) and return its validated manifest.

    Folds are assigned round-robin within each class, so every class appears
    in every fold.
    """
    out_root = Path(out_root)
    audio_dir = out_root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, name in enumerate(SYNTH_CLASSES):
        for i in range(clips_per_class):
            rng = np.random.default_rng([seed, label, i])
            fold = (i % 5) + 1
            fname = f"{name}_{i:03d}.wav"
            save_wav(Waveform(_synth_clip(name, rng, seconds, sample_rate), sample_rate),
                     audio_dir / fname)
            rows.append((fname, fold, label, name))
    meta = out_root / "meta.csv"
    with open(meta, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["filename", "fold", "target", "category"])
        w.writerows(rows)
    return ingest(out_root, meta, num_classes=len(SYNTH_CLASSES))


def load_split(manifest: DatasetManifest, split_name: str, frontend: FrontendConfig,
               with_spectrograms: bool = False):
    """Preprocess one split into a training-ready ClipSet.

    Returns (clip_set, spectrograms); spectrograms is None unless requested
    (the interpretation metrics need them, plain training does not).
    """
    records = manifest.split(split_name)
    if not records:
        raise ValueError(f"no clips in split {split_name!r}, folds {list(SPLIT_FOLDS[split_name])}")
    inputs, labels, ids, specs = [], [], [], []
    for r in records:
        wav = load_wav(r.path)
        try:
            spec, x = preprocess(wav, frontend)
        except ValueError as e:
            raise ValueError(f"clip {r.clip_id} ({r.path}): {e}") from e
        inputs.append(x)
        labels.append(r.label)
        ids.append(r.clip_id)
        if with_spectrograms:
            specs.append(spec)
    clip_set = ClipSet(
        inputs=np.stack(inputs), labels=np.asarray(labels, dtype=np.int64), clip_ids=ids
    )
    return clip_set, (specs if with_spectrograms else None)
