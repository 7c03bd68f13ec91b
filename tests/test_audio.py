"""Frontend tests: WAV round trips and malformed files, resampling, the STFT
contract (513x431 for 5 s at 16 kHz), inverse-STFT reconstruction quality,
bilinear resizing, input packing and augmentation determinism."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import resample_poly

from focalaudio import audio
from focalaudio.audio import (
    AUGMENT_PROB,
    HOP_LENGTH,
    LOG_EPS,
    N_FFT,
    WIN_LENGTH,
    FrontendConfig,
    Spectrogram,
    Waveform,
    WavFormatError,
    augment,
    bilinear_resize_array,
    istft_reconstruct,
    load_wav,
    preprocess,
    resample,
    save_wav,
    stft,
    to_model_input,
)

RNG = np.random.default_rng(99)


def sine(freq, seconds, rate, amp=0.5, phase=0.0):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform((amp * np.sin(2 * np.pi * freq * t + phase)).astype(np.float32), rate)


def write_pcm16(path, samples: np.ndarray, channels: int, rate: int):
    """A PCM16 WAV of interleaved `samples` in [-1, 1), built by hand:
    `save_wav` writes float32 only."""
    payload = np.round(samples * 32768.0).astype("<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16,
        b"data", len(payload),
    )
    path.write_bytes(hdr + payload)


def snr_db(ref, est):
    noise = ref - est
    return 10 * np.log10(np.sum(ref**2) / max(np.sum(noise**2), 1e-30))


class TestWavIO:
    def test_float32_round_trip(self, tmp_path):
        w = Waveform(RNG.uniform(-1, 1, 4321).astype(np.float32), 16000)
        p = tmp_path / "x.wav"
        save_wav(w, p)
        back = load_wav(p)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-7)

    def test_pcm16_round_trip_close(self, tmp_path):
        w = Waveform(RNG.uniform(-0.9, 0.9, 1000).astype(np.float32), 8000)
        p = tmp_path / "x.wav"
        write_pcm16(p, w.samples, channels=1, rate=8000)
        back = load_wav(p)
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32000)

    def test_stereo_downmix(self, tmp_path):
        left = np.array([0.5, -0.5, 0.25], dtype=np.float32)
        right = np.array([0.1, 0.3, -0.25], dtype=np.float32)
        inter = np.empty(6, dtype=np.float32)
        inter[0::2], inter[1::2] = left, right
        p = tmp_path / "st.wav"
        write_pcm16(p, inter, channels=2, rate=16000)
        w = load_wav(p)
        np.testing.assert_allclose(w.samples, (left + right) / 2, atol=1e-3)

    def test_truncated_file_names_offset(self, tmp_path):
        w = Waveform(RNG.uniform(-1, 1, 100).astype(np.float32), 16000)
        p = tmp_path / "t.wav"
        save_wav(w, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WavFormatError, match="byte"):
            load_wav(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="byte 0"):
            load_wav(p)

    @pytest.mark.parametrize("audio_format, rate, bits, payload, check", [
        (1, 16000, 16, b"\x00" * 7, "data chunk of 7 bytes .* 16-bit samples at byte 44"),
        (3, 16000, 32, b"\x00" * 6, "data chunk of 6 bytes .* 32-bit samples at byte 44"),
        (1, 0, 16, b"\x00" * 8, "sample rate 0 in fmt chunk at byte 12"),
    ], ids=["pcm16_odd_bytes", "float32_partial_sample", "zero_rate"])
    def test_malformed_fmt_or_data_names_path_and_byte(self, tmp_path, audio_format, rate,
                                                       bits, payload, check):
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, audio_format, 1, rate, rate * bits // 8, bits // 8, bits,
            b"data", len(payload),
        )
        p = tmp_path / "odd.wav"
        p.write_bytes(hdr + payload)
        with pytest.raises(WavFormatError, match=f"odd.wav: {check}"):
            load_wav(p)

    @pytest.mark.parametrize("channels, block_align, payload, check", [
        (0, 0, b"\x00" * 8, "0 channels in fmt chunk at byte 12"),
        (2, 2, b"\x00" * 8, "block align 2 is not 2 channels x 2 bytes in fmt chunk at byte 12"),
        (1, 4, b"\x00" * 8, "block align 4 is not 1 channels x 2 bytes in fmt chunk at byte 12"),
        (2, 4, b"\x00" * 6, "data chunk of 6 bytes .* 2-channel frames of 16-bit samples at byte 44"),
    ], ids=["zero_channels", "stereo_align_of_mono", "mono_align_of_stereo", "stereo_partial_frame"])
    def test_inconsistent_channels_name_path_and_byte(self, tmp_path, channels, block_align,
                                                      payload, check):
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, channels, 16000, 16000 * block_align, block_align, 16,
            b"data", len(payload),
        )
        p = tmp_path / "chan.wav"
        p.write_bytes(hdr + payload)
        with pytest.raises(WavFormatError, match=f"chan.wav: {check}"):
            load_wav(p)

    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.array([np.nan], dtype=np.float32), 16000)
        with pytest.raises(ValueError):
            Waveform(np.array([], dtype=np.float32), 16000)

    @pytest.mark.parametrize(
        "rate", [44100.0, 16000.0, True, np.int64(16000), 0, -8000],
        ids=["float_44100", "float_16000", "bool", "numpy_int", "zero", "negative"])
    def test_rate_that_is_not_a_positive_int_rejected(self, rate):
        # a float rate must not get as far as resample's math.gcd
        msg = f"sample_rate must be a positive integer, got {rate!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            Waveform(np.zeros(16, dtype=np.float32), rate)

    def test_waveform_clips_before_the_float32_cast(self):
        w = Waveform(np.array([0.5, 1.5, 1e300, -1e300]), 16000)
        assert w.samples.dtype == np.float32
        np.testing.assert_array_equal(w.samples, [0.5, 1.0, 1.0, -1.0])


class TestResample:
    def test_length_contract_44k_to_16k(self):
        w = sine(440, 5.0, 44100)
        assert w.samples.size == 220500
        out = resample(w)
        assert out.samples.size == 80000
        assert out.sample_rate == 16000
        # resample_poly returns ceil(n * up / down) samples; these round below it
        for rate, n, want in [(22050, 1001, 726), (32000, 5, 2), (48000, 7, 2)]:
            out = resample(Waveform(np.ones(n, np.float32), rate))
            assert (out.samples.size, out.sample_rate) == (want, 16000), rate

    def test_identity_when_equal(self):
        w = sine(440, 0.5, 16000)
        out = resample(w)
        assert out.samples is not w.samples
        np.testing.assert_array_equal(out.samples, w.samples)

    @pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
    def test_matches_scipys_own_filter_design(self, rate):
        w = Waveform(RNG.uniform(-0.5, 0.5, rate // 2 + 7).astype(np.float32), rate)
        g = np.gcd(16000, rate)
        ref = resample_poly(w.samples.astype(np.float64), 16000 // g, rate // g)
        n = round(w.samples.size * 16000 / rate)
        np.testing.assert_array_equal(resample(w).samples, ref[:n].astype(np.float32))

    def test_cached_filter_is_read_only_and_left_unscaled(self):
        resample(sine(440, 0.1, 44100))
        h = audio._lowpass(441)  # 44.1 kHz -> 16 kHz is up 160, down 441
        assert h.size == 20 * 441 + 1 and not h.flags.writeable
        before = h.copy()
        resample(sine(440, 0.1, 44100))
        np.testing.assert_array_equal(audio._lowpass(441), before)

    def test_sine_peak_survives(self):
        w = resample(sine(1000, 5.0, 44100))
        s = stft(w)
        peak_bin = int(np.argmax(s.log_mag.mean(axis=1)))
        expect = round(1000 * 1024 / 16000)
        assert abs(peak_bin - expect) <= 1


class TestStft:
    def test_paper_size_5s_16k(self):
        w = sine(500, 5.0, 16000)
        s = stft(w)
        assert s.log_mag.shape == (513, 431)
        assert s.log_mag.shape[0] == N_FFT // 2 + 1

    def test_geometry_constants(self):
        # a 23 ms window and an 11.625 ms hop at 16 kHz; the hop of at most
        # half a frame plus one lets the centered frames reach a clip's end
        assert (WIN_LENGTH, HOP_LENGTH) == (round(23 * 16), round(11.625 * 16))
        assert WIN_LENGTH <= N_FFT
        assert HOP_LENGTH <= N_FFT // 2 + 1

    def test_pure_sine_bin(self):
        s = stft(sine(2000, 5.0, 16000))
        assert int(np.argmax(s.log_mag.mean(axis=1))) == 128

    def test_sine_energy_concentration(self):
        # >= 80% of spectral energy within one bin of the analytic bin at the
        # 23 ms window's own resolution; that is ceil(1024/368) = 3 bins of
        # the zero-padded 1024-point grid
        s = stft(sine(2000, 2.0, 16000))
        mag2 = np.exp(2 * s.log_mag.astype(np.float64))
        band = mag2[125:132].sum()
        assert band / mag2.sum() >= 0.8

    def test_all_zero_input(self):
        w = Waveform(np.zeros(16000, dtype=np.float32), 16000)
        s = stft(w)
        np.testing.assert_allclose(s.log_mag, np.log(LOG_EPS), atol=1e-4)

    def test_clip_shorter_than_the_centering_pad(self):
        # 400 samples against a 512-sample reflect pad on each side
        x = RNG.uniform(-1, 1, 400).astype(np.float32)
        s = stft(Waveform(x, 16000))
        assert s.log_mag.shape == (513, 1 + 400 // 186)
        assert np.isfinite(s.log_mag).all()

    def test_too_short_clip(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(Waveform(np.zeros(100, dtype=np.float32), 16000))

    def test_clip_at_another_rate_rejected(self):
        with pytest.raises(ValueError, match="44100 Hz.*16000 Hz"):
            stft(sine(440, 0.5, 44100))

    @pytest.mark.parametrize("cfg, match", [
        (dict(input_size=0), "input_size must be an integer >= 1"),
        # a non-integer side would fail later, in the bilinear resize
        (dict(input_size=96.5), "input_size must be an integer >= 1, got 96.5"),
        (dict(input_size=96.0), "input_size must be an integer >= 1, got 96.0"),
        (dict(input_size=True), "input_size must be an integer >= 1, got True"),
    ], ids=["input_size_zero", "input_size_fractional", "input_size_float",
            "input_size_bool"])
    def test_impossible_frontend_rejected(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            FrontendConfig(**cfg)


class TestIstft:
    def test_round_trip_snr_over_seeds(self):
        worst = np.inf
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = Waveform(rng.uniform(-0.8, 0.8, 16000).astype(np.float32), 16000)
            s = stft(w)
            back = istft_reconstruct(s)
            worst = min(worst, snr_db(w.samples.astype(np.float64), back.samples.astype(np.float64)))
        assert worst >= 30.0

    def test_all_masked_is_silent(self):
        w = sine(500, 1.0, 16000, amp=0.8)
        s = stft(w)
        floored = np.full_like(s.log_mag, np.log(LOG_EPS))
        back = istft_reconstruct(replace(s, log_mag=floored))
        rms_orig = np.sqrt(np.mean(w.samples**2))
        rms_back = np.sqrt(np.mean(back.samples**2))
        assert rms_back < 1e-3 * rms_orig

    def test_doubling_magnitude_doubles_rms(self):
        w = sine(700, 1.0, 16000, amp=0.2)
        s = stft(w)
        base = istft_reconstruct(s)
        doubled = istft_reconstruct(replace(s, log_mag=s.log_mag + np.float32(np.log(2.0))))
        r = np.sqrt(np.mean(doubled.samples**2)) / np.sqrt(np.mean(base.samples**2))
        assert abs(r - 2.0) < 0.1

    def test_preprocessed_clip_reconstructs_at_the_frontend_rate(self):
        w = sine(440, 2.0, 44100)
        spec, _ = preprocess(w, FrontendConfig(input_size=96))
        back = istft_reconstruct(spec)
        ref = resample(w)
        assert back.sample_rate == 16000
        assert back.samples.size == ref.samples.size == round(w.samples.size * 16000 / 44100)
        assert snr_db(ref.samples.astype(np.float64), back.samples.astype(np.float64)) >= 30.0

    def test_every_length_over_one_hop_round_trips(self):
        # each tail position against the last frame's centre occurs once;
        # only the last sample of a length 185 mod 186 lies past the window
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.8, 0.8, WIN_LENGTH + HOP_LENGTH).astype(np.float32)
        for n in range(WIN_LENGTH, WIN_LENGTH + HOP_LENGTH + 1):
            back = istft_reconstruct(stft(Waveform(x[:n], 16000))).samples
            assert back.size == n
            unseen = n % HOP_LENGTH == HOP_LENGTH - 1
            assert (back[-1] == 0.0) == unseen, n
            seen = n - 1 if unseen else n
            np.testing.assert_allclose(back[:seen], x[:seen], rtol=0, atol=1e-3, err_msg=str(n))

    def test_sample_past_the_last_window_comes_back_as_zero(self):
        # 1,115 = 5 * 186 + 185: the last sample sits 184 samples past the
        # last frame's centre, one beyond the default window's reach of 183
        rng = np.random.default_rng(7)
        w = Waveform(rng.uniform(-0.8, 0.8, 1115).astype(np.float32), 16000)
        back = istft_reconstruct(stft(w)).samples
        assert back.size == 1115 and back[-1] == 0.0
        assert snr_db(w.samples[:-1].astype(np.float64), back[:-1].astype(np.float64)) >= 30.0


class TestBilinearResize:
    def test_constant_stays_constant(self):
        x = np.full((2, 5, 7), 4.2)
        y = bilinear_resize_array(x, 9, 3)
        assert y.shape == (2, 9, 3)
        np.testing.assert_allclose(y, 4.2, rtol=1e-12)

    def test_same_size_is_identity(self):
        x = RNG.standard_normal((1, 6, 8))
        np.testing.assert_allclose(bilinear_resize_array(x, 6, 8), x, atol=1e-6)

    def test_row_midpoint(self):
        x = np.array([[[0.0, 1.0]]])
        y = bilinear_resize_array(x, 1, 3)
        np.testing.assert_allclose(y[0, 0], [0.0, 0.5, 1.0])

    def test_resize_roundtrip_constant_exact(self):
        x = np.full((1, 4, 4), 1.7)
        y = bilinear_resize_array(bilinear_resize_array(x, 11, 5), 4, 4)
        np.testing.assert_allclose(y, 1.7, rtol=0)


class TestModelInput:
    def test_replicated_channels_and_shape(self):
        s = stft(sine(500, 5.0, 16000))
        x = to_model_input(s, out=224)
        assert isinstance(x, np.ndarray) and x.dtype == np.float32
        assert x.shape == (3, 224, 224)
        np.testing.assert_array_equal(x[0], x[1])
        np.testing.assert_array_equal(x[0], x[2])

    def test_standardized(self):
        s = stft(sine(1234, 5.0, 16000))
        x = to_model_input(s, out=96)[0]
        assert abs(x.mean()) < 1e-4
        assert abs(x.std() - 1.0) < 1e-3

    def test_constant_spectrogram_maps_to_zero(self):
        w = Waveform(np.zeros(16000, dtype=np.float32), 16000)
        x = to_model_input(stft(w), out=64)
        np.testing.assert_array_equal(x, 0.0)

    def test_shape_idempotence(self):
        # a square spectrogram already at target size only gets standardized:
        # 1 + 95232 // 186 = 513 frames of 513 bins
        w = sine(1500, 95232 / 16000, 16000)
        s = stft(w)
        assert s.log_mag.shape == (513, 513)
        x = to_model_input(s, out=513)[0]
        ref = (s.log_mag - s.log_mag.mean()) / s.log_mag.std()
        np.testing.assert_allclose(x, ref, atol=1e-4)

    @pytest.mark.parametrize("frames", [1, 87, 431])
    @pytest.mark.parametrize("out", [1, 8, 96, 224])
    def test_reads_only_the_shrink_grid_and_matches_the_full_resize(self, out, frames):
        # the full-resolution definition: shrink the whole log magnitude,
        # standardize, stack; the grid path must give the same bits
        log_mag = RNG.normal(-3.0, 2.0, (N_FFT // 2 + 1, frames)).astype(np.float32)
        s = Spectrogram(log_mag, np.zeros_like(log_mag), num_samples=HOP_LENGTH * frames)
        resized = bilinear_resize_array(log_mag, out, out)
        sd = resized.std()
        normed = (resized - resized.mean()) / sd if sd >= 1e-8 else np.zeros_like(resized)
        x = to_model_input(s, out=out)
        assert x.dtype == np.float32 and x.shape == (3, out, out)
        np.testing.assert_array_equal(x, np.stack([normed, normed, normed]))

    def test_preprocess_resamples(self):
        w = sine(440, 5.0, 44100)
        spec, x = preprocess(w, FrontendConfig(input_size=96))
        assert spec.log_mag.shape == (513, 431)
        assert x.shape == (3, 96, 96)


class TestAugment:
    def test_undrawn_seed_is_an_unchanged_copy(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        assert np.random.default_rng(4).random() >= AUGMENT_PROB  # seed 4 draws no drop
        y = augment(x, rng_seed=4)
        assert y is not x
        np.testing.assert_array_equal(x, y)

    def test_deterministic_given_seed(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        a = augment(x, rng_seed=42)
        b = augment(x, rng_seed=42)
        np.testing.assert_array_equal(a, b)

    def test_drops_are_zero_and_complement_unchanged(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        x += 5.0  # keep zero out of the natural value range
        kept = x.copy()
        found = False
        for seed in range(30):
            y = augment(x, rng_seed=seed)
            dropped = y == 0.0
            if dropped.any():
                found = True
                np.testing.assert_array_equal(y[~dropped], x[~dropped])
        np.testing.assert_array_equal(x, kept)  # the input is not written
        assert found
