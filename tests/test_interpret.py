"""Mask path: the logits-and-maps seam, modulation maps (single and
batched), quantile thresholding, masking for the model and for listening."""

import numpy as np
import pytest

from focalaudio.audio import LOG_EPS, Waveform, istft_reconstruct, stft
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.interpret import apply_mask, logits_and_maps, modulation_map, threshold_mask
from focalaudio.tensor import Tensor, no_grad

RNG = np.random.default_rng(11)


def tone_spectrogram():
    t = np.arange(16000) / 16000
    return stft(Waveform((0.8 * np.sin(2 * np.pi * 500.0 * t)).astype(np.float32), 16000))


class TestThresholdMask:
    def test_retained_fraction_close_to_one_minus_q(self):
        qs = (0.0, 0.25, 0.5, 0.9)
        masks = threshold_mask(RNG.uniform(0.0, 2.0, (12, 12)), qs, (513, 87))
        assert masks.shape == (len(qs), 513, 87) and masks.dtype == np.uint8
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


def test_mask_entries_other_than_zero_and_one_are_rejected():
    spec = tone_spectrogram()
    mask = np.ones(spec.log_mag.shape, dtype=np.uint8)
    apply_mask(spec, mask)
    mask[2, 3] = 2
    for fill in (0.0, np.log(LOG_EPS)):
        with pytest.raises(ValueError, match="0 or 1"):
            apply_mask(spec, mask, fill=fill)


def test_mask_of_another_shape_is_rejected():
    spec = tone_spectrogram()
    rows, cols = spec.log_mag.shape
    with pytest.raises(ValueError, match="mask shape"):
        apply_mask(spec, np.ones((rows, cols - 1), dtype=np.uint8))


def test_interpretation_and_removal_partition_the_spectrogram():
    spec = tone_spectrogram()
    mask = RNG.integers(0, 2, spec.log_mag.shape).astype(np.uint8)
    kept = apply_mask(spec, mask).log_mag
    removed = apply_mask(spec, 1 - mask).log_mag
    # each cell is kept by exactly one of the two, so the sum is exact
    np.testing.assert_array_equal(kept + removed, spec.log_mag)
    assert ((kept == 0) | (removed == 0)).all()


def test_all_masked_listening_spectrogram_is_silent():
    spec = tone_spectrogram()
    none_kept = np.zeros(spec.log_mag.shape, dtype=np.uint8)
    masked = apply_mask(spec, none_kept, fill=np.log(LOG_EPS))
    back = istft_reconstruct(masked)
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


class TestLogitsAndMaps:
    def test_chunks_give_the_forward_and_its_map(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        x = RNG.standard_normal((5, 3, 32, 32)).astype(np.float32)
        logits, maps = logits_and_maps(model, iter(x), batch_size=2)
        assert logits.shape == (5, 4) and maps.shape == (5, 4, 4)
        with no_grad():
            whole, modulator = model.forward(x)
        np.testing.assert_allclose(logits, whole.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(maps, modulation_map(modulator), rtol=1e-5, atol=1e-7)

    def test_no_inputs_and_no_batch_rejected(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        with pytest.raises(ValueError, match="empty input set"):
            logits_and_maps(model, [])
        with pytest.raises(ValueError, match="batch_size"):
            logits_and_maps(model, [np.zeros((3, 32, 32), np.float32)], batch_size=0)
