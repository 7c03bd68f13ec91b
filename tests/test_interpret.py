"""Mask path: modulation maps (single and batched), quantile thresholding
and masking for listening."""

import numpy as np
import pytest

from focalaudio.audio import Waveform, istft_reconstruct, stft
from focalaudio.focalnet import FocalNet, FocalNetConfig
from focalaudio.interpret import (
    InterpretationMask,
    ModulationMap,
    apply_mask,
    modulation_map,
    threshold_mask,
)
from focalaudio.tensor import Tensor, no_grad

RNG = np.random.default_rng(11)


def tone_spectrogram():
    t = np.arange(16000) / 16000
    return stft(Waveform((0.8 * np.sin(2 * np.pi * 500.0 * t)).astype(np.float32), 16000))


class TestThresholdMask:
    def test_retained_fraction_close_to_one_minus_q(self):
        m = ModulationMap(values=RNG.uniform(0.0, 2.0, (12, 12)))
        qs = (0.0, 0.25, 0.5, 0.9)
        masks = threshold_mask(m, qs, (513, 87))
        assert [mk.quantile_order for mk in masks] == list(qs)
        cells = 513 * 87
        for q, mk in zip(qs, masks):
            assert mk.mask.shape == (513, 87)
            assert abs(mk.retained_fraction - (1.0 - q)) <= 2.0 / cells, q
        assert masks[0].mask.all()  # q = 0 keeps every cell
        for lo, hi in zip(masks, masks[1:]):  # a higher q keeps a subset
            assert lo.threshold <= hi.threshold
            assert (hi.mask <= lo.mask).all()

    def test_constant_map_keeps_everything(self):
        masks = threshold_mask(ModulationMap(values=np.ones((3, 4))), (0.5, 0.99), (20, 10))
        assert all(mk.mask.all() for mk in masks)

    @pytest.mark.parametrize("qs", [(0.5, 1.5), (-0.1,), 0.5])
    def test_rejects_bad_orders(self, qs):
        with pytest.raises(ValueError, match="quantile orders"):
            threshold_mask(ModulationMap(values=np.ones((3, 3))), qs, (6, 6))


def test_mask_entries_other_than_zero_and_one_are_rejected():
    mask = np.ones((4, 5), dtype=np.uint8)
    InterpretationMask(mask, 0.5, 1.0)
    mask[2, 3] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        InterpretationMask(mask, 0.5, 1.0)


def test_all_masked_listening_spectrogram_is_silent():
    spec = tone_spectrogram()
    none_kept = InterpretationMask(np.zeros(spec.log_mag.shape, dtype=np.uint8), 1.0, np.inf)
    masked = apply_mask(spec, none_kept, mode="for_listening")
    back = istft_reconstruct(masked.log_mag, masked.phase, masked.params)
    full = istft_reconstruct(spec.log_mag, spec.phase, spec.params)
    rms = lambda w: np.sqrt(np.mean(w.samples.astype(np.float64) ** 2))  # noqa: E731
    assert rms(back) < 1e-3 * rms(full)


class TestModulationMap:
    def test_batched_equals_per_clip(self):
        model = FocalNet(FocalNetConfig.tiny(4), seed=0)
        x = RNG.standard_normal((3, 3, 30, 28)).astype(np.float32)
        with no_grad():
            _, cache = model.forward(Tensor(x), cache_modulator=True)
            maps = modulation_map(cache)
            singles = [modulation_map(model.forward(Tensor(xi), cache_modulator=True)[1])[0]
                       for xi in x]
        assert len(maps) == 3
        for batched, single in zip(maps, singles, strict=True):
            assert batched.values.shape == single.values.shape == cache.valid_hw
            np.testing.assert_allclose(batched.values, single.values, rtol=1e-5, atol=1e-7)

    def test_missing_cache_raises(self):
        with pytest.raises(ValueError, match="cache_modulator"):
            modulation_map(None)
