"""Frontend tests: WAV round trips, resampling, the STFT contract (513x431
for 5 s at 16 kHz), inverse-STFT reconstruction quality, input packing and
augmentation determinism."""

import numpy as np
import pytest

from focalaudio.audio import (
    AugmentPolicy,
    ConfigError,
    ContainerError,
    FrontendConfig,
    Spectrogram,
    Waveform,
    WavFormatError,
    augment,
    istft_reconstruct,
    load_spectrogram,
    load_wav,
    preprocess,
    resample,
    save_spectrogram,
    save_wav,
    stft,
    to_model_input,
    write_pgm,
)

RNG = np.random.default_rng(99)


def sine(freq, seconds, rate, amp=0.5, phase=0.0):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform((amp * np.sin(2 * np.pi * freq * t + phase)).astype(np.float32), rate)


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
        save_wav(w, p, pcm16=True)
        back = load_wav(p)
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32000)

    def test_stereo_downmix(self, tmp_path):
        # hand-build a 2-channel PCM16 file
        import struct

        left = np.array([0.5, -0.5, 0.25], dtype=np.float32)
        right = np.array([0.1, 0.3, -0.25], dtype=np.float32)
        inter = np.empty(6, dtype=np.float32)
        inter[0::2], inter[1::2] = left, right
        payload = (inter * 32767).astype("<i2").tobytes()
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 2, 16000, 16000 * 4, 4, 16,
            b"data", len(payload),
        )
        p = tmp_path / "st.wav"
        p.write_bytes(hdr + payload)
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

    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.array([np.nan], dtype=np.float32), 16000)
        with pytest.raises(ValueError):
            Waveform(np.array([], dtype=np.float32), 16000)


class TestResample:
    def test_length_contract_44k_to_16k(self):
        w = sine(440, 5.0, 44100)
        assert w.samples.size == 220500
        out = resample(w, 16000)
        assert out.samples.size == 80000
        assert out.sample_rate == 16000

    def test_identity_when_equal(self):
        w = sine(440, 0.5, 16000)
        out = resample(w, 16000)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_sine_peak_survives(self):
        w = resample(sine(1000, 5.0, 44100), 16000)
        s = stft(w)
        peak_bin = int(np.argmax(s.log_mag.mean(axis=1)))
        expect = round(1000 * 1024 / 16000)
        assert abs(peak_bin - expect) <= 1


class TestStft:
    def test_paper_size_5s_16k(self):
        w = sine(500, 5.0, 16000)
        s = stft(w)
        assert s.log_mag.shape == (513, 431)
        assert s.freq_bins == s.params.n_fft // 2 + 1

    def test_freq_bins_invariant_other_configs(self):
        w = sine(500, 1.0, 16000)
        for n_fft, win_ms, hop_ms in ((256, 10.0, 5.0), (512, 20.0, 10.0), (2048, 23.0, 11.625)):
            s = stft(w, n_fft=n_fft, win_ms=win_ms, hop_ms=hop_ms)
            assert s.freq_bins == n_fft // 2 + 1

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
        np.testing.assert_allclose(s.log_mag, np.log(s.params.eps), atol=1e-4)

    def test_too_short_clip(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(Waveform(np.zeros(100, dtype=np.float32), 16000))


class TestIstft:
    def test_round_trip_snr_over_seeds(self):
        worst = np.inf
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = Waveform(rng.uniform(-0.8, 0.8, 16000).astype(np.float32), 16000)
            s = stft(w)
            back = istft_reconstruct(s.log_mag, s.phase, s.params)
            worst = min(worst, snr_db(w.samples.astype(np.float64), back.samples.astype(np.float64)))
        assert worst >= 30.0

    def test_all_masked_is_silent(self):
        w = sine(500, 1.0, 16000, amp=0.8)
        s = stft(w)
        floored = np.full_like(s.log_mag, np.log(s.params.eps))
        back = istft_reconstruct(floored, s.phase, s.params)
        rms_orig = np.sqrt(np.mean(w.samples**2))
        rms_back = np.sqrt(np.mean(back.samples**2))
        assert rms_back < 1e-3 * rms_orig

    def test_doubling_magnitude_doubles_rms(self):
        w = sine(700, 1.0, 16000, amp=0.2)
        s = stft(w)
        base = istft_reconstruct(s.log_mag, s.phase, s.params)
        doubled = istft_reconstruct(s.log_mag + np.float32(np.log(2.0)), s.phase, s.params)
        r = np.sqrt(np.mean(doubled.samples**2)) / np.sqrt(np.mean(base.samples**2))
        assert abs(r - 2.0) < 0.1

    def test_nola_violation_raises(self):
        w = sine(500, 1.0, 16000)
        # 2 ms window with 20 ms hop leaves gaps between frames
        with pytest.raises(ConfigError):
            s = stft(w, n_fft=1024, win_ms=2.0, hop_ms=20.0)
            istft_reconstruct(s.log_mag, s.phase, s.params)


class TestModelInput:
    def test_replicated_channels_and_shape(self):
        s = stft(sine(500, 5.0, 16000))
        x = to_model_input(s, out=224)
        assert x.shape == (3, 224, 224)
        np.testing.assert_array_equal(x.data[0], x.data[1])
        np.testing.assert_array_equal(x.data[0], x.data[2])

    def test_standardized(self):
        s = stft(sine(1234, 5.0, 16000))
        x = to_model_input(s, out=96).data[0]
        assert abs(x.mean()) < 1e-4
        assert abs(x.std() - 1.0) < 1e-3

    def test_constant_spectrogram_maps_to_zero(self):
        w = Waveform(np.zeros(16000, dtype=np.float32), 16000)
        x = to_model_input(stft(w), out=64)
        np.testing.assert_array_equal(x.data, 0.0)

    def test_shape_idempotence(self):
        # a square spectrogram already at target size only gets standardized:
        # n_fft 446 gives 224 bins; hop 64 over 14272 samples gives 224 frames
        w = sine(1500, 14272 / 16000, 16000)
        s = stft(w, n_fft=446, win_ms=20.0, hop_ms=4.0)
        assert s.log_mag.shape == (224, 224)
        x = to_model_input(s, out=224).data[0]
        ref = (s.log_mag - s.log_mag.mean()) / s.log_mag.std()
        np.testing.assert_allclose(x, ref, atol=1e-4)

    def test_preprocess_resamples(self):
        w = sine(440, 5.0, 44100)
        spec, x = preprocess(w, FrontendConfig(input_size=96))
        assert spec.log_mag.shape == (513, 431)
        assert x.shape == (3, 96, 96)


class TestAugment:
    def test_probability_zero_is_identity(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        y = augment(x, AugmentPolicy(probability=0.0), rng_seed=3)
        np.testing.assert_array_equal(x.data, y.data)

    def test_deterministic_given_seed(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        a = augment(x, AugmentPolicy(), rng_seed=42)
        b = augment(x, AugmentPolicy(), rng_seed=42)
        np.testing.assert_array_equal(a.data, b.data)

    def test_drops_are_zero_and_complement_unchanged(self):
        x = to_model_input(stft(sine(500, 5.0, 16000)), out=64)
        x.data += 5.0  # keep zero out of the natural value range
        found = False
        for seed in range(30):
            y = augment(x, AugmentPolicy(probability=1.0), rng_seed=seed)
            dropped = y.data == 0.0
            if dropped.any():
                found = True
                np.testing.assert_array_equal(y.data[~dropped], x.data[~dropped])
        assert found


class TestSpectrogramContainer:
    def test_binary_round_trip(self, tmp_path):
        s = stft(sine(800, 1.0, 16000))
        p = tmp_path / "s.fasg"
        save_spectrogram(s, p)
        back = load_spectrogram(p)
        np.testing.assert_array_equal(back.log_mag, s.log_mag)
        np.testing.assert_array_equal(back.phase, s.phase)
        assert back.params == s.params

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "s.fasg"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            load_spectrogram(p)

    @pytest.mark.parametrize("size", [6, 11, 40])
    def test_truncated_file_names_path(self, tmp_path, size):
        p = tmp_path / "s.fasg"
        save_spectrogram(stft(sine(800, 1.0, 16000)), p)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(ContainerError, match="s.fasg: truncated"):
            load_spectrogram(p)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        p = tmp_path / "s.fasg"
        save_spectrogram(stft(sine(800, 1.0, 16000)), p)
        blob = bytearray(p.read_bytes())
        blob[-40] ^= 0x01  # last phase value, before the 32-byte trailer
        p.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="s.fasg: checksum mismatch"):
            load_spectrogram(p)

    def test_pgm_writer(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(np.arange(12, dtype=float).reshape(3, 4), p)
        blob = p.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12
