"""Mask path: the logits-and-maps seam, modulation maps (single and
batched), quantile thresholding, masking for the model and for listening."""

from dataclasses import replace

import numpy as np
import pytest

from focalaudio.audio import LOG_EPS, Waveform, istft_reconstruct, stft
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.interpret import apply_mask, modulation_map, predict, threshold_mask
from focalaudio.tensor import Tensor, no_grad

RNG = np.random.default_rng(11)


def tone_spectrogram():
    t = np.arange(16000) / 16000
    return stft(Waveform((0.8 * np.sin(2 * np.pi * 500.0 * t)).astype(np.float32), 16000))


class TestThresholdMask:
    def test_retained_fraction_close_to_one_minus_q(self):
        qs = (0.0, 0.25, 0.5, 0.9)
        masks = threshold_mask(RNG.uniform(0.0, 2.0, (12, 12)), qs, (513, 87))
        assert masks.shape == (len(qs), 513, 87) and masks.dtype == bool
        cells = 513 * 87
        for q, mk in zip(qs, masks):  # one mask per q, in the order given
            assert abs(mk.mean() - (1.0 - q)) <= 2.0 / cells, q
        assert masks[0].all()  # q = 0 keeps every cell
        for lo, hi in zip(masks, masks[1:]):  # a higher q keeps a subset
            assert (hi <= lo).all()

    def test_constant_map_keeps_everything(self):
        masks = threshold_mask(np.ones((3, 4)), (0.5, 0.99), (20, 10))
        assert masks.all()

    @pytest.mark.parametrize("qs", [(0.5, 1.5), (-0.1,), 0.5])
    def test_rejects_bad_orders(self, qs):
        with pytest.raises(ValueError, match="quantile orders"):
            threshold_mask(np.ones((3, 3)), qs, (6, 6))

    @pytest.mark.parametrize("m", [np.ones((2, 3, 3)), np.full((3, 3), -1.0)], ids=["3d", "negative"])
    def test_rejects_maps_other_than_nonnegative_2d(self, m):
        with pytest.raises(ValueError, match="nonnegative \\[h, w\\] array"):
            threshold_mask(m, (0.5,), (6, 6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_maps(self, bad):
        # NaN compares false with 0, so only a finiteness check catches it;
        # unchecked, it gave all-zero masks and inf gave NaN cells
        m = np.ones((3, 3))
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite nonnegative \\[h, w\\] array"):
            threshold_mask(m, (0.5,), (6, 6))


@pytest.mark.parametrize("log_mag_dtype, keep_dtype", [
    (np.float32, np.uint8), (np.float32, np.float32), (np.float64, bool)],
    ids=["uint8_mask", "float_mask", "float64_log_mag"])
def test_arrays_other_than_float32_and_boolean_are_rejected(log_mag_dtype, keep_dtype):
    # a numeric 0/1 mask is refused rather than read as keep-where-1
    log_mag = tone_spectrogram().log_mag
    keep = np.ones(log_mag.shape, dtype=bool)
    np.testing.assert_array_equal(apply_mask(log_mag, keep, 0.0), log_mag)
    for fill in (0.0, np.log(LOG_EPS)):
        with pytest.raises(ValueError, match="float32 log magnitude and a boolean mask"):
            apply_mask(log_mag.astype(log_mag_dtype), keep.astype(keep_dtype), fill)


def test_mask_of_another_shape_is_rejected():
    log_mag = tone_spectrogram().log_mag
    rows, cols = log_mag.shape
    with pytest.raises(ValueError, match="mask shape"):
        apply_mask(log_mag, np.ones((rows, cols - 1), dtype=bool), 0.0)


def test_interpretation_and_removal_partition_the_spectrogram():
    spec = tone_spectrogram()
    mask = RNG.integers(0, 2, spec.log_mag.shape).astype(bool)
    kept = apply_mask(spec.log_mag, mask, 0.0)
    removed = apply_mask(spec.log_mag, ~mask, 0.0)
    # each cell is kept by exactly one of the two, so the sum is exact
    np.testing.assert_array_equal(kept + removed, spec.log_mag)
    assert ((kept == 0) | (removed == 0)).all()


def test_all_masked_listening_spectrogram_is_silent():
    spec = tone_spectrogram()
    none_kept = np.zeros(spec.log_mag.shape, dtype=bool)
    masked = apply_mask(spec.log_mag, none_kept, np.log(LOG_EPS))
    back = istft_reconstruct(replace(spec, log_mag=masked))
    full = istft_reconstruct(spec)
    rms = lambda w: np.sqrt(np.mean(w.samples.astype(np.float64) ** 2))  # noqa: E731
    assert rms(back) < 1e-3 * rms(full)


class TestModulationMap:
    def test_batched_equals_per_clip(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        x = RNG.standard_normal((3, 3, 32, 24)).astype(np.float32)
        with no_grad():
            _, modulator = model.forward(Tensor(x))
            maps = modulation_map(modulator)
            singles = [modulation_map(model.forward(Tensor(xi))[1])[0] for xi in x]
        # stride 8 over 32 x 24: 4 x 3 cells
        assert maps.shape == (3, 4, 3) and maps.dtype == np.float64
        for batched, single in zip(maps, singles, strict=True):
            assert single.shape == (4, 3)
            np.testing.assert_allclose(batched, single, rtol=1e-5, atol=1e-7)


class TestPredict:
    def test_chunks_give_the_forward_its_classes_and_its_map(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        x = RNG.standard_normal((5, 3, 32, 32)).astype(np.float32)
        classes, probs, maps = predict(model, iter(x), batch_size=2)
        assert classes.shape == (5,) and classes.dtype == np.int64
        assert probs.shape == (5, 4) and maps.shape == (5, 4, 4)
        with no_grad():
            whole, modulator = model.forward(x)
        np.testing.assert_array_equal(classes, np.argmax(whole.data, axis=-1))
        np.testing.assert_allclose(probs, model.predict_proba(x), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(maps, modulation_map(modulator), rtol=1e-5, atol=1e-7)

    def test_no_inputs_and_no_batch_rejected(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        with pytest.raises(ValueError, match="empty input set"):
            predict(model, [])
        with pytest.raises(ValueError, match="batch_size"):
            predict(model, [np.zeros((3, 32, 32), np.float32)], batch_size=0)
