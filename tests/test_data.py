"""Dataset tests: metadata validation names every offending CSV line, the
synthetic set's meta.csv is its only record, it puts every class in every
fold, and each class's energy sits at the frequency its name states."""

import csv

import numpy as np
import pytest

from focalaudio import data
from focalaudio.audio import FrontendConfig, Waveform, load_wav, save_wav, stft

HEADER = ["filename", "fold", "target", "category"]


def write_meta(root, rows, header=HEADER, audio=()):
    (root / "audio").mkdir(exist_ok=True)
    for name in audio:
        save_wav(Waveform(np.zeros(160, dtype=np.float32), 16000), root / "audio" / name)
    meta = root / "meta.csv"
    with open(meta, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return meta


class TestIngest:
    def test_valid_rows_become_records(self, tmp_path):
        meta = write_meta(tmp_path, [("a.wav", 1, 0, "dog"), ("b.wav", 5, 3, "cat")],
                          audio=("a.wav", "b.wav"))
        manifest = data.ingest(tmp_path, meta, num_classes=4)
        assert [(r.clip_id, r.fold, r.label, r.label_name) for r in manifest.records] == [
            ("a", 1, 0, "dog"), ("b", 5, 3, "cat")]
        assert manifest.records[0].path == str(tmp_path / "audio" / "a.wav")

    def test_every_bad_row_reported_with_its_line(self, tmp_path):
        rows = [("ok.wav", 1, 0, "dog"),        # line 2
                ("fold.wav", 7, 0, "dog"),      # line 3
                ("label.wav", 2, 4, "dog"),     # line 4
                ("gone.wav", 3, 1, "cat"),      # line 5
                ("ok.wav", 4, 0, "dog"),        # line 6
                ("text.wav", "x", 1, "cat")]    # line 7
        meta = write_meta(tmp_path, rows, audio=("ok.wav", "fold.wav", "label.wav", "text.wav"))
        with pytest.raises(ValueError) as err:
            data.ingest(tmp_path, meta, num_classes=4)
        lines = str(err.value).splitlines()[1:]
        assert [s.strip() for s in lines] == [
            "line 3: fold 7 outside 1..5",
            "line 4: label 4 outside [0, 3]",
            f"line 5: missing audio file {tmp_path / 'audio' / 'gone.wav'}",
            "line 6: duplicate filename ok.wav",
            "line 7: fold 'x' or label '1' is not an integer",
        ]

    def test_repeated_clip_id_reported_with_both_lines(self, tmp_path):
        # a clip is named by its file's stem, so two files in different
        # directories would share one id, and with it one augmentation seed
        (tmp_path / "audio" / "sub").mkdir(parents=True)
        rows = [("dog.wav", 1, 0, "dog"),       # line 2
                ("cat.wav", 1, 1, "cat"),       # line 3
                ("sub/dog.wav", 2, 0, "dog")]   # line 4
        meta = write_meta(tmp_path, rows, audio=("dog.wav", "cat.wav", "sub/dog.wav"))
        with pytest.raises(ValueError) as err:
            data.ingest(tmp_path, meta, num_classes=4)
        assert [s.strip() for s in str(err.value).splitlines()[1:]] == [
            "line 4: clip id dog of sub/dog.wav repeats line 2 (dog.wav)"]

    def test_files_beside_the_csv_but_not_under_audio_are_missing(self, tmp_path):
        meta = write_meta(tmp_path, [("a.wav", 1, 0, "dog"), ("b.wav", 2, 1, "cat")])
        (tmp_path / "audio").rmdir()
        for name in ("a.wav", "b.wav"):
            save_wav(Waveform(np.zeros(160, dtype=np.float32), 16000), tmp_path / name)
        with pytest.raises(ValueError) as err:
            data.ingest(tmp_path, meta, num_classes=4)
        assert [s.strip() for s in str(err.value).splitlines()[1:]] == [
            f"line 2: missing audio file {tmp_path / 'audio' / 'a.wav'}",
            f"line 3: missing audio file {tmp_path / 'audio' / 'b.wav'}"]

    def test_missing_columns_reported_on_header_line(self, tmp_path):
        meta = write_meta(tmp_path, [("a.wav", 1, 0)], header=["filename", "fold", "target"],
                          audio=("a.wav",))
        with pytest.raises(ValueError, match=r"meta.csv: line 1: .*'category'"):
            data.ingest(tmp_path, meta, num_classes=4)

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no clips"):
            data.ingest(tmp_path, write_meta(tmp_path, []), num_classes=4)


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return root, data.generate_synthetic_dataset(root, clips_per_class=5, seconds=0.1,
                                                 sample_rate=8000, seed=0)


class TestManifest:
    def test_meta_csv_is_the_only_record(self, synthetic):
        root, manifest = synthetic
        assert sorted(p.name for p in root.iterdir()) == ["audio", "meta.csv"]
        assert data.ingest(root, root / "meta.csv", num_classes=4) == manifest

    def test_round_robin_folds_hold_every_class(self, synthetic):
        _, manifest = synthetic
        for fold in range(1, 6):
            labels = sorted(r.label for r in manifest.records if r.fold == fold)
            assert labels == [0, 1, 2, 3], fold

    def test_splits_partition_the_folds(self, synthetic):
        _, manifest = synthetic
        sizes = {name: len(manifest.split(name)) for name in ("train", "val", "test")}
        assert sizes == {"train": 12, "val": 4, "test": 4}
        assert {r.fold for r in manifest.split("val")} == set(data.SPLIT_FOLDS["val"])

    def test_unknown_split_rejected(self, synthetic):
        _, manifest = synthetic
        with pytest.raises(ValueError, match="unknown split 'dev'"):
            manifest.split("dev")

    def test_empty_split_names_itself(self, tmp_path):
        # two clips per class fill folds 1 and 2 only
        manifest = data.generate_synthetic_dataset(tmp_path, clips_per_class=2, seconds=0.1,
                                                   sample_rate=8000, seed=0)
        with pytest.raises(ValueError, match=r"no clips in split 'val', folds \[4\]"):
            data.load_split(manifest, "val", FrontendConfig())

    def test_clip_failing_preprocessing_is_named(self, tmp_path):
        meta = write_meta(tmp_path, [("short.wav", 4, 0, "dog")], audio=("short.wav",))
        manifest = data.ingest(tmp_path, meta, num_classes=4)
        with pytest.raises(ValueError, match=r"clip short \(.*short\.wav\): clip of 160 samples "
                                             r"is shorter than one window \(368\)"):
            data.load_split(manifest, "val", FrontendConfig())


class TestSyntheticGroundTruth:
    """Each synthetic class puts its energy where its name says, at the
    frontend's 16 kHz and N_FFT = 1024 (15.625 Hz per bin)."""

    PEAK_BIN = {"tone_500hz": 32, "am_tone_1000hz": 64, "tone_2000hz": 128}

    def test_energy_peaks_at_the_stated_bin(self, tmp_path):
        manifest = data.generate_synthetic_dataset(tmp_path, clips_per_class=3, seconds=1.0,
                                                   sample_rate=16000, seed=0)
        for r in manifest.records:
            log_mag = stft(load_wav(r.path)).log_mag.astype(np.float64)
            energy = np.exp(2.0 * log_mag).mean(axis=1)
            share = energy / energy.sum()
            if r.label_name == "white_noise":
                # flat: no bin holds more than 1 % of the energy (uniform is 1/513)
                assert share.max() < 0.01, (r.clip_id, share.max())
            else:
                peak = int(np.argmax(share))
                assert peak == self.PEAK_BIN[r.label_name], (r.clip_id, peak)
                assert share[peak] > 0.1, (r.clip_id, share[peak])
