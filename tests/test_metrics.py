"""Interpretation metrics on a fixed synthetic set.

The reference numbers below were recorded from an evaluator that ran one
batch-1 forward per masked input; the batched path must reproduce them:
classes and FID-I exactly, FA and the listenable waveform's RMS to 1e-5.

Set: `data.generate_synthetic_dataset(clips_per_class=2, seconds=1.0,
sample_rate=16000, seed=0)`, train split (8 clips, 513x87 spectrograms),
an untrained seed-0 desk model at 96x96.
"""

from dataclasses import replace

import numpy as np
import pytest

from focalaudio import audio, data, interpret, metrics, training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.tensor import Tensor

Q = (0.1, 0.3, 0.5, 0.7, 0.9)
INPUT_SIZE = 96

REF_ENTRIES = [
    (0.1, 1.0, 0.7571178691721911),
    (0.3, 0.5, 0.7530278792647138),
    (0.5, 0.125, 0.4656404119741637),
    (0.7, 0.125, -0.06833260506391525),
    (0.9, 0.0, -0.06004241853952408),
]
REF_PREDICTIONS = [3, 3, 3, 3, 2, 0, 3, 3]
REF_RMS_Q09 = [3.130637204138954e-05, 3.245070166308908e-05, 3.0579629280043336e-05,
               3.132355661558409e-05, 0.018154053046423087, 0.03286633972265749,
               0.008819676922575565, 0.00016956525341377775]


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    manifest = data.generate_synthetic_dataset(
        tmp_path_factory.mktemp("synth"), clips_per_class=2, seconds=1.0,
        sample_rate=16000, seed=0)
    frontend = FrontendConfig(input_size=INPUT_SIZE)
    _, specs = data.load_split(manifest, "train", frontend, with_spectrograms=True)
    paths = [r.path for r in manifest.split("train")]
    return FocalNet(FocalNetConfig.desk(4), seed=0), specs, paths, frontend


def test_sweep_matches_reference(synth):
    model, specs, _, _ = synth
    sweep = metrics.quantile_sweep(model, specs, Q, input_size=INPUT_SIZE)
    assert len(specs) == 8
    got = np.asarray(sweep.entries)
    ref = np.asarray(REF_ENTRIES)
    np.testing.assert_array_equal(got[:, :2], ref[:, :2])
    np.testing.assert_allclose(got[:, 2], ref[:, 2], rtol=0, atol=1e-5)


def test_predictions_match_reference(synth):
    model, specs, _, _ = synth
    preds = metrics.predict_batch(model, specs, input_size=INPUT_SIZE)
    assert preds.tolist() == REF_PREDICTIONS
    assert metrics.predict_batch(model, specs, INPUT_SIZE, batch_size=3).tolist() == REF_PREDICTIONS


def test_listenable_rms_matches_reference(synth):
    model, _, paths, frontend = synth
    rms = []
    for path in paths:
        wav = interpret.listenable_interpretation(audio.load_wav(path), model, frontend, q=0.9)
        rms.append(float(np.sqrt(np.mean(wav.samples.astype(np.float64) ** 2))))
    np.testing.assert_allclose(rms, REF_RMS_Q09, rtol=1e-5, atol=0)


def test_listening_waveform_is_the_masked_spectrogram_reconstructed(synth):
    # built here with its own np.where, so the fill rule is checked, not reused
    model, _, paths, frontend = synth
    for path in paths[::3]:
        wav = audio.load_wav(path)
        spec, x = audio.preprocess(wav, frontend)
        _, [m] = interpret.logits_and_maps(model, [x])
        [keep] = interpret.threshold_mask(m, [0.9], spec.log_mag.shape)
        silent = np.float32(np.log(audio.LOG_EPS))
        want = audio.istft_reconstruct(replace(spec, log_mag=np.where(keep, spec.log_mag, silent)))
        got = interpret.listenable_interpretation(wav, model, frontend, q=0.9)
        assert got.sample_rate == want.sample_rate
        np.testing.assert_array_equal(got.samples, want.samples)


def test_records_give_the_sweep_and_do_not_depend_on_batch_company(synth):
    model, specs, _, _ = synth
    ev = metrics.evaluate(model, specs, Q, INPUT_SIZE)
    assert ev.qs == list(Q)
    assert ev.predicted.shape == ev.prob_predicted.shape == (8,)
    assert ev.predicted_on_interpretation.shape == ev.prob_predicted_on_removal.shape == (8, 5)
    assert ev.prob_predicted.dtype == ev.prob_predicted_on_removal.dtype == np.float64
    sweep = metrics.quantile_sweep(model, specs, Q, INPUT_SIZE)
    for i, (q, fid, fa) in enumerate(sweep.entries):
        assert q == Q[i]
        assert fid == np.mean(ev.agrees[:, i])
        assert fa == pytest.approx(np.mean(ev.fa[:, i]), abs=1e-12)
    # the last clip evaluated alone, in a batch of one, gives the same row
    alone = metrics.evaluate(model, specs[-1:], Q, INPUT_SIZE)
    assert alone.predicted.tolist() == ev.predicted[-1:].tolist()
    np.testing.assert_array_equal(alone.predicted_on_interpretation,
                                  ev.predicted_on_interpretation[-1:])
    np.testing.assert_allclose(alone.fa, ev.fa[-1:], rtol=0, atol=1e-5)


@pytest.mark.parametrize("n_clips, qs", [(1, Q), (8, (0.5,)), (24, (0.2, 0.8))])
def test_sweep_forward_count(synth, n_clips, qs):
    _, specs, _, _ = synth
    model = FocalNet(FocalNetConfig.tiny(4), seed=0)
    forward = model.forward
    batches = []

    def counting_forward(x, **kwargs):
        batches.append(x.shape[0])
        return forward(x, **kwargs)

    model.forward = counting_forward
    clips = (specs * 3)[:n_clips]
    metrics.quantile_sweep(model, clips, qs, input_size=32)
    expected = -(-n_clips // 16) + -(-2 * len(qs) * n_clips // 16)
    assert len(batches) == expected
    assert sum(batches) == n_clips * (1 + 2 * len(qs))
    assert max(batches) <= 16


class RecordingModel:
    """Records every batch its forward sees. Its modulator is the input
    sampled every 12 cells (at 96x96 an [8, 8] map), squared so it is
    nonnegative, or all ones for a constant map."""

    def __init__(self, constant_map: bool):
        self.constant_map = constant_map
        self.batches = []

    def forward(self, x):
        self.batches.append(x.copy())
        sampled = x[:, :, ::12, ::12].astype(np.float64)
        modulator = np.ones_like(sampled) if self.constant_map else sampled ** 2
        return Tensor(x.mean(axis=(2, 3))[:, :2]), modulator


@pytest.mark.parametrize("seconds, constant_map, qs", [
    (1.0, False, (0.0, 0.3, 0.9, 1.0)),  # 513 x 87: fewer frames than the side
    (5.0, False, (0.1, 0.5, 0.9)),  # 513 x 431
    (1.0, True, (0.0, 0.5, 1.0)),
], ids=["513x87", "513x431", "constant_map"])
def test_masked_inputs_match_the_full_resolution_path(seconds, constant_map, qs):
    rng = np.random.default_rng(7)
    clips = [audio.stft(audio.Waveform(rng.uniform(-0.5, 0.5, int(16000 * seconds)), 16000))
             for _ in range(2)]
    model = RecordingModel(constant_map)
    metrics.evaluate(model, clips, qs, INPUT_SIZE)
    inputs, masked = model.batches[0], np.concatenate(model.batches[1:])
    _, maps = interpret.logits_and_maps(RecordingModel(constant_map), inputs)
    expected = []
    for spec, m in zip(clips, maps):
        for mask in interpret.threshold_mask(m, qs, spec.log_mag.shape):
            for keep in (mask, ~mask):
                masked_spec = replace(spec, log_mag=np.where(keep, spec.log_mag, np.float32(0)))
                expected.append(audio.to_model_input(masked_spec, INPUT_SIZE))
    assert masked.shape == (len(clips) * 2 * len(qs), 3, INPUT_SIZE, INPUT_SIZE)
    np.testing.assert_array_equal(masked, np.stack(expected))


@pytest.mark.parametrize("n_clips, qs", [(1, Q), (3, (0.5,))])
def test_evaluate_packs_each_clip_through_to_model_input_once(synth, monkeypatch, n_clips, qs):
    model, specs, _, _ = synth
    calls = []

    def counting(s, out):
        calls.append(out)
        return audio.to_model_input(s, out)

    monkeypatch.setattr(metrics, "to_model_input", counting)
    metrics.evaluate(model, specs[:n_clips], qs, INPUT_SIZE)
    assert calls == [INPUT_SIZE] * n_clips


@pytest.mark.parametrize("n_clips, qs", [(1, Q), (3, (0.5,))])
def test_evaluate_fills_every_masked_input_through_apply_mask(synth, monkeypatch, n_clips, qs):
    model, specs, _, _ = synth
    fills = []

    def counting(log_mag, keep, fill):
        fills.append(fill)
        return interpret.apply_mask(log_mag, keep, fill)

    monkeypatch.setattr(metrics, "apply_mask", counting)
    metrics.evaluate(model, specs[:n_clips], qs, INPUT_SIZE)
    assert fills == [0.0] * (2 * len(qs) * n_clips)


def test_evaluate_accuracy_and_predict_batch_agree(synth):
    model, specs, _, _ = synth
    inputs = np.stack([audio.to_model_input(s, out=INPUT_SIZE) for s in specs])
    labels = np.repeat(np.arange(4), 2)  # the train split is class-major
    clip_set = training.ClipSet(inputs, labels, [f"c{i}" for i in range(8)])
    expected = metrics.accuracy(np.asarray(REF_PREDICTIONS), labels)
    assert training.evaluate_accuracy(model, clip_set) == expected == 0.375


def test_accuracy_is_the_exact_match_rate():
    assert metrics.accuracy([1, 0, 2, 2], np.array([1, 1, 2, 0])) == 0.5
    with pytest.raises(ValueError, match="empty prediction set"):
        metrics.accuracy([], [])
    with pytest.raises(ValueError, match="equal length"):
        metrics.accuracy([1, 0, 2], [1, 0])
