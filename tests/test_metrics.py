"""Interpretation metrics on a fixed synthetic set.

The reference numbers below were recorded from an evaluator that ran one
batch-1 forward per masked input; the batched path must reproduce them:
classes and FID-I exactly, FA and the listenable waveform's RMS to 1e-5.

Set: `data.generate_synthetic_dataset(clips_per_class=2, seconds=1.0,
sample_rate=16000, seed=0)`, train split (8 clips, 513x87 spectrograms),
an untrained seed-0 desk model at 96x96.
"""

import numpy as np
import pytest

from focalaudio import audio, data, interpret, metrics, training
from focalaudio.audio import FrontendConfig
from focalaudio.focalnet import FocalNet, FocalNetConfig

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
    assert sweep.n_clips == len(specs) == 8
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


def test_sweep_rejects_clip_ids_of_another_length(synth):
    model, specs, _, _ = synth
    with pytest.raises(ValueError, match="clip_ids"):
        metrics.evaluate(model, specs[:3], (0.5,), INPUT_SIZE, clip_ids=["a", "b"])


def test_records_give_the_sweep_and_do_not_depend_on_batch_company(synth):
    model, specs, _, _ = synth
    records = metrics.evaluate(model, specs, Q, INPUT_SIZE, clip_ids=[f"c{i}" for i in range(8)])
    assert [(r.clip_id, r.q) for r in records] == [(f"c{c}", q) for c in range(8) for q in Q]
    sweep = metrics.quantile_sweep(model, specs, Q, INPUT_SIZE)
    for q, fid, fa in sweep.entries:
        at_q = [r for r in records if r.q == q]
        assert fid == np.mean([r.agrees for r in at_q])
        assert fa == pytest.approx(np.mean([r.fa for r in at_q]), abs=1e-12)
    # the last clip evaluated alone, in a batch of one, gives the same record
    alone = metrics.evaluate(model, specs[-1:], Q, INPUT_SIZE, clip_ids=["c7"])
    for a, r in zip(alone, records[-len(Q):], strict=True):
        assert (a.clip_id, a.q, a.predicted, a.predicted_on_interpretation) == \
            (r.clip_id, r.q, r.predicted, r.predicted_on_interpretation)
        assert a.fa == pytest.approx(r.fa, abs=1e-5)


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


def test_evaluate_accuracy_and_predict_batch_agree(synth):
    model, specs, _, _ = synth
    inputs = np.stack([audio.to_model_input(s, out=INPUT_SIZE) for s in specs])
    labels = np.repeat(np.arange(4), 2)  # the train split is class-major
    clip_set = training.ClipSet(inputs, labels, [f"c{i}" for i in range(8)])
    expected = metrics.accuracy(np.asarray(REF_PREDICTIONS), labels)
    assert training.evaluate_accuracy(model, clip_set, batch_size=5) == expected == 0.375
