import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
import scipy.io.wavfile
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from kan_ausculta import atomic as atomic_module
from kan_ausculta import features as features_module
from kan_ausculta.errors import ContractViolation, DataError, FingerprintError
from kan_ausculta.features import (
    AudioSignal,
    FeatureConfig,
    _bandpass_sos,
    _bandpass_zi,
    _STFT_BLOCK,
    _chroma_folds,
    _delta,
    _fft_freqs,
    _frame,
    _hann,
    _onset_from_mel,
    _peak,
    _pitch_classes,
    _project_power,
    _resample_lowpass,
    _stream_labels,
    _zero_phase,
    aggregate,
    default_layout,
    extract,
    hz_to_mel,
    load_feature_cache,
    magnitude_spectrogram,
    mel_filterbank,
    mel_to_hz,
    mfcc_from_mel,
    preprocess,
    read_wav,
    resample,
    save_feature_cache,
    streams,
)

CFG = FeatureConfig()
SR = CFG.sample_rate


def mel_band_centers(cfg: FeatureConfig) -> np.ndarray:
    mel_points = np.linspace(
        hz_to_mel(0.0), hz_to_mel(cfg.sample_rate / 2.0), cfg.n_mels + 2
    )
    return mel_to_hz(mel_points)[1:-1]


def chroma(sig):
    frames, _, _ = streams(sig, CFG)
    return frames["chroma_stft"], frames["chroma_logf"]


def spectral(sig):
    frames, _, _ = streams(sig, CFG)
    return frames["centroid"], frames["bandwidth"]


def onsets(sig):
    frames, count, rate = streams(sig, CFG)
    return frames["onset_envelope"], count, rate


# ----------------------------------------------------------------------------
# the loop implementations the vectorised ones replaced, kept as oracles


def aggregate_oracle(series):
    """Seven statistics of one 1-D series, one NumPy reduction at a time."""
    series = np.asarray(series, dtype=float)
    mean = series.mean()
    centered = series - mean
    m2 = np.mean(centered**2)
    std = np.sqrt(m2)
    if std <= 1e-12 * max(1.0, abs(mean)):
        skew = 0.0
        kurt = 0.0
    else:
        skew = np.mean(centered**3) / m2**1.5
        kurt = np.mean(centered**4) / (m2 * m2) - 3.0
    return np.array([mean, std, series.min(), series.max(), np.median(series), skew, kurt])


def aggregate_products_oracle(series):
    """The vectorised statistics with a fresh array for each moment product."""
    series = np.asarray(series, dtype=float)
    mean = series.mean(axis=-1)
    centered = series - mean[..., None]
    squared = centered * centered
    m2 = np.mean(squared, axis=-1)
    std = np.sqrt(m2)
    flat = std <= 1e-12 * np.maximum(1.0, np.abs(mean))
    safe_m2 = np.where(flat, 1.0, m2)
    skew = np.where(flat, 0.0, np.mean(squared * centered, axis=-1) / safe_m2**1.5)
    kurt = np.where(flat, 0.0, np.mean(squared * squared, axis=-1) / (safe_m2 * safe_m2) - 3.0)
    return np.stack(
        [mean, std, series.min(axis=-1), series.max(axis=-1), np.median(series, axis=-1), skew, kurt],
        axis=-1,
    )


def chroma_oracle(power, cfg):
    """Both chroma variants by ``np.add.at`` and a loop over log-frequency bins."""
    freqs = _fft_freqs(cfg)
    positive = freqs > 0
    chroma_stft = np.zeros((cfg.n_chroma, power.shape[1]))
    np.add.at(chroma_stft, _pitch_classes(freqs[positive]), power[positive])

    c1_hz = 32.70319566257483
    n_octaves = int(np.floor(np.log2((cfg.sample_rate / 2.0) / c1_hz)))
    centers = c1_hz * 2.0 ** (np.arange(12 * n_octaves) / 12.0)
    chroma_logf = np.zeros((cfg.n_chroma, power.shape[1]))
    half_step = 2.0 ** (1.0 / 24.0)
    for b, fc in enumerate(centers):
        mask = (freqs >= fc / half_step) & (freqs < fc * half_step)
        if mask.any():
            chroma_logf[b % 12] += power[mask].sum(axis=0)

    for chroma in (chroma_stft, chroma_logf):
        peaks = chroma.max(axis=0)
        nonzero = peaks > 0
        chroma[:, nonzero] /= peaks[nonzero]
    return chroma_stft, chroma_logf


def streams_oracle(sig, cfg):
    """``streams`` as one full-size pass: a one-shot STFT, dense mel and chroma
    products, the outer-product bandwidth and the full DCT cut to n_mfcc rows."""
    frames = _frame(np.asarray(sig.samples, dtype=float), cfg.frame_length, cfg.hop_length)
    mag = np.abs(np.fft.rfft(frames * np.hanning(cfg.frame_length), axis=1)).T
    power = mag * mag
    mel = mel_filterbank(cfg.n_mels, cfg.frame_length, cfg.sample_rate) @ power

    chroma_stft, chroma_logf = (fold @ power for fold in
                                _chroma_folds(cfg.n_chroma, cfg.frame_length, cfg.sample_rate))
    for chroma in (chroma_stft, chroma_logf):
        peaks = chroma.max(axis=0)
        nonzero = peaks > 0
        chroma[:, nonzero] /= peaks[nonzero]

    freqs = _fft_freqs(cfg)
    total = mag.sum(axis=0)
    voiced = total > 0
    centroid = np.zeros(mag.shape[1])
    bandwidth = np.zeros(mag.shape[1])
    if voiced.any():
        centroid[voiced] = (freqs @ mag[:, voiced]) / total[voiced]
        spread = np.subtract.outer(freqs, centroid[voiced]) ** 2 * mag[:, voiced]
        bandwidth[voiced] = np.sqrt(spread.sum(axis=0) / total[voiced])

    cepstra = scipy.fft.dct(np.log(mel + 1e-10), type=2, axis=0, norm="ortho")[: cfg.n_mfcc]
    d1 = _delta(cepstra)
    envelope, n_onsets, onset_rate = _onset_from_mel(mel, sig.duration)
    out = {
        "mel": mel,
        "mfcc": np.vstack([cepstra, d1, _delta(d1)]),
        "chroma_stft": chroma_stft,
        "chroma_logf": chroma_logf,
        "centroid": centroid,
        "bandwidth": bandwidth,
        "onset_envelope": envelope,
    }
    if cfg.subbands:
        out["mel_subband"] = np.vstack([g.mean(axis=0) for g in np.array_split(mel, 4, axis=0)])
    return out, n_onsets, onset_rate


def onset_count_oracle(flux):
    """Peaks above mean + std and 0 that are the max within +/- 3 frames; plateaus once."""
    threshold = flux.mean() + flux.std()
    count = 0
    for t in range(len(flux)):
        if flux[t] <= threshold or flux[t] <= 0:
            continue
        lo, hi = max(0, t - 3), min(len(flux), t + 4)
        if flux[t] < flux[lo:hi].max():
            continue
        if t > 0 and flux[t] == flux[t - 1]:
            continue
        count += 1
    return count


def sine(freq, seconds=1.0, amplitude=0.5, sr=SR):
    t = np.arange(int(sr * seconds)) / sr
    return AudioSignal(samples=amplitude * np.sin(2 * np.pi * freq * t), sample_rate=sr)


def preprocess_oracle(sig, cfg):
    """The scipy pipeline ``preprocess`` stands for, with every design made per call."""
    samples = np.asarray(sig.samples, dtype=float)
    if sig.sample_rate != cfg.sample_rate:
        ratio = Fraction(cfg.sample_rate, sig.sample_rate).limit_denominator(1000)
        samples = scipy.signal.resample_poly(samples, ratio.numerator, ratio.denominator)
    sos = scipy.signal.butter(cfg.filter_order, [cfg.band_low, cfg.band_high],
                              btype="bandpass", fs=cfg.sample_rate, output="sos")
    padlen = min(3 * (2 * len(sos) + 1), max(0, len(samples) - 1))
    filtered = scipy.signal.sosfiltfilt(sos, samples, padlen=padlen)
    return filtered / np.max(np.abs(filtered))


@pytest.fixture(scope="module")
def sine440():
    return preprocess(sine(440), CFG)


class TestFrame:
    @pytest.mark.parametrize("n", [2048, 2049, 2560, 2561, 10_000])
    def test_strided_view_matches_gather(self, n):
        samples = np.random.default_rng(n).normal(size=n)
        count = 1 + (n - 2048) // 512
        idx = np.arange(2048)[None, :] + 512 * np.arange(count)[:, None]
        np.testing.assert_array_equal(_frame(samples, 2048, 512), samples[idx])


class TestPreprocess:
    def test_peak_normalization(self):
        out = preprocess(sine(440, amplitude=0.5), CFG)
        assert np.abs(out.samples).max() == pytest.approx(1.0)

    def test_silent_input_stays_zero(self):
        out = preprocess(AudioSignal(np.zeros(SR), SR), CFG)
        assert np.all(out.samples == 0)

    def test_stopband_tone_attenuated(self):
        # 50 Hz sits an octave below the 100 Hz edge; the two-pass 4th-order
        # Butterworth must remove more than 95% of its RMS
        raw = sine(50, amplitude=1.0)
        import scipy.signal

        sos = scipy.signal.butter(4, [CFG.band_low, CFG.band_high], btype="bandpass",
                                  fs=SR, output="sos")
        filtered = scipy.signal.sosfiltfilt(sos, raw.samples)
        ratio = np.sqrt(np.mean(filtered**2)) / np.sqrt(np.mean(raw.samples**2))
        assert ratio < 0.05

    def test_passband_tone_preserved(self):
        raw = sine(440, amplitude=1.0)
        import scipy.signal

        sos = scipy.signal.butter(4, [CFG.band_low, CFG.band_high], btype="bandpass",
                                  fs=SR, output="sos")
        filtered = scipy.signal.sosfiltfilt(sos, raw.samples)
        ratio = np.sqrt(np.mean(filtered**2)) / np.sqrt(np.mean(raw.samples**2))
        assert abs(1.0 - ratio) < 0.05

    def test_resampling_to_target_rate(self):
        out = preprocess(sine(440, sr=44100), CFG)
        assert out.sample_rate == SR
        assert abs(len(out.samples) - SR) <= 2

    def test_empty_signal_rejected(self):
        with pytest.raises(DataError):
            preprocess(AudioSignal(np.array([]), SR), CFG)

    def test_single_sample_survives(self):
        out = preprocess(AudioSignal(np.array([0.7]), SR), CFG)
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("rate", [4000, 10000, 44100, 22050])
    def test_matches_direct_scipy_pipeline(self, rate):
        raw = np.random.default_rng(rate).normal(size=int(1.5 * rate))
        sig = AudioSignal(raw, rate)
        expected = preprocess_oracle(sig, CFG)
        # the first call may design and cache; the second reuses the cache
        for _ in range(2):
            out = preprocess(sig, CFG)
            assert out.sample_rate == SR
            np.testing.assert_array_equal(out.samples, expected)

    def test_memory_above_the_input_stays_below_two_and_a_half_signals(self):
        # already at the target rate, so nothing depends on preprocess being
        # handed the only reference to its input
        sig = AudioSignal(np.random.default_rng(61).normal(size=60 * SR), SR)
        preprocess(AudioSignal(sig.samples[:SR], SR), CFG)  # design and cache the band-pass
        out, peak = traced_peak(lambda: preprocess(sig, CFG))
        assert out.samples.shape == sig.samples.shape
        assert peak < 2.5 * sig.samples.nbytes

    @pytest.mark.parametrize("rate", [10000, 44100])
    def test_memory_above_a_resampled_input_stays_below_two_and_a_half_signals(self, rate):
        # the resampled signal is preprocess's own, so the band-pass frees it
        # once its odd extension is built; holding it through the forward
        # pass makes three signals
        sig = AudioSignal(np.random.default_rng(62).normal(size=20 * rate), rate)
        preprocess(AudioSignal(sig.samples[:rate], rate), CFG)  # design and cache the filters
        out, peak = traced_peak(lambda: preprocess(sig, CFG))
        assert abs(len(out.samples) - 20 * SR) <= 2
        assert peak < 2.5 * out.samples.nbytes


BAND_CONFIGS = [CFG, FeatureConfig(sample_rate=8000, band_low=50.0, band_high=3000.0)]


class TestZeroPhase:
    @pytest.mark.parametrize("cfg", BAND_CONFIGS, ids=["default", "8k-wide"])
    @pytest.mark.parametrize("n", [1, 2, 27, 28, 29, 4096, 441_000])
    def test_equals_sosfiltfilt(self, cfg, n):
        band = (cfg.filter_order, cfg.band_low, cfg.band_high, cfg.sample_rate)
        sos = _bandpass_sos(*band)
        assert 3 * (2 * len(sos) + 1) == 27
        x = np.random.default_rng(n).normal(size=n)
        before = x.copy()
        signal = [x]
        out = _zero_phase(sos, _bandpass_zi(*band), signal)
        assert signal == []  # the list's reference is taken
        expected = scipy.signal.sosfiltfilt(sos.copy(), x, padlen=min(27, n - 1))
        assert out.shape == (n,)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(5).normal(size=1000),
        np.random.default_rng(6).normal(size=1000) - 3.0,
        np.random.default_rng(7).normal(size=1000) + 3.0,
        np.zeros(100),
        np.array([-0.0]),
        np.array([-0.0, 0.0, -0.0]),
        np.array([-2.5]),
        np.array([1.0, -1.0]),
    ], ids=["random", "negative", "positive", "zeros", "minus-zero", "signed-zeros", "one",
            "tie"])
    def test_peak_equals_max_abs(self, x):
        assert _peak(x) == np.max(np.abs(x))


class TestResample:
    @pytest.mark.parametrize("up, down", [(441, 80), (441, 200), (1, 2), (40, 441), (8961, 10000),
                                          (10000, 11223), (6, 4), (3, 3)])
    def test_matches_resample_poly_bit_for_bit(self, up, down):
        samples = np.random.default_rng(up).normal(size=3000)
        expected = scipy.signal.resample_poly(samples, up, down)
        # the first call may design and cache; the second reuses the cache
        for _ in range(2):
            np.testing.assert_array_equal(resample(samples, up, down), expected)

    def test_float32_input_is_resampled_as_float64(self):
        samples = np.random.default_rng(1).normal(size=800).astype(np.float32)
        out = resample(samples, 80, 441)
        expected = scipy.signal.resample_poly(samples.astype(float), 80, 441)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == np.float64

    def test_cached_designs_are_read_only(self):
        taps = _resample_lowpass(441)
        sos = _bandpass_sos(CFG.filter_order, CFG.band_low, CFG.band_high, CFG.sample_rate)
        for arr in (taps, sos):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert taps.shape == (20 * 441 + 1,)

    def test_cached_filter_state_and_window_are_read_only_and_unchanged(self):
        band = (CFG.filter_order, CFG.band_low, CFG.band_high, CFG.sample_rate)
        zi = _bandpass_zi(*band)
        window = _hann(CFG.frame_length)
        for arr in (zi, window):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert zi.tobytes() == scipy.signal.sosfilt_zi(_bandpass_sos(*band).copy()).tobytes()
        assert window.tobytes() == np.hanning(CFG.frame_length).tobytes()
        assert _bandpass_zi(*band) is zi and _hann(CFG.frame_length) is window


class TestMelStream:
    def test_zero_signal_all_zero(self):
        mel = streams(AudioSignal(np.zeros(SR), SR), CFG)[0]["mel"]
        assert mel.shape[0] == 128
        assert np.all(mel == 0)

    def test_white_noise_excites_every_band(self):
        noise = np.random.default_rng(0).normal(size=SR)
        sig = preprocess(AudioSignal(noise, SR), CFG)
        mel = streams(sig, CFG)[0]["mel"]
        # bands inside the band-pass range carry energy; all means are finite
        assert np.all(np.isfinite(mel))
        centers = mel_band_centers(CFG)
        inband = (centers > CFG.band_low) & (centers < CFG.band_high)
        assert np.all(mel[inband].mean(axis=1) > 0)

    def test_sine_peaks_at_nearest_band(self, sine440):
        mel = streams(sine440, CFG)[0]["mel"]
        centers = mel_band_centers(CFG)
        assert mel.mean(axis=1).argmax() == np.abs(centers - 440).argmin()


class TestMfcc:
    def test_constant_mel_column_keeps_only_dc(self):
        mel = np.full((CFG.n_mels, 7), 2.5)
        cepstra = mfcc_from_mel(mel, CFG)[: CFG.n_mfcc]
        assert np.abs(cepstra[0]).min() > 0
        assert np.abs(cepstra[1:]).max() < 1e-12

    def test_delta_of_constant_rows_is_zero(self):
        mel = np.tile(np.random.default_rng(1).random((CFG.n_mels, 1)), (1, 9))
        stacked = mfcc_from_mel(mel, CFG)
        deltas = stacked[CFG.n_mfcc :]
        assert np.abs(deltas).max() < 1e-12

    def test_row_count_is_three_times_n_mfcc(self, sine440):
        assert streams(sine440, CFG)[0]["mfcc"].shape[0] == 120


class TestChroma:
    def test_a4_dominates_both_variants(self, sine440):
        stft, logf = chroma(sine440)
        assert stft.mean(axis=1).argmax() == 9  # pitch class A
        assert logf.mean(axis=1).argmax() == 9

    def test_zero_signal_zero_chroma(self):
        stft, logf = chroma(AudioSignal(np.zeros(SR), SR))
        assert np.all(stft == 0) and np.all(logf == 0)

    def test_octave_transposition_keeps_pitch_class(self):
        lo = preprocess(sine(330), CFG)
        hi = preprocess(sine(660), CFG)
        for sig_lo, sig_hi in ((lo, hi),):
            a, _ = chroma(sig_lo)
            b, _ = chroma(sig_hi)
            assert a.mean(axis=1).argmax() == b.mean(axis=1).argmax()

    @pytest.mark.parametrize(
        "cfg",
        [CFG, FeatureConfig(frame_length=1024, hop_length=256),
         FeatureConfig(sample_rate=8000, frame_length=512, hop_length=128)],
    )
    def test_fold_matrices_match_loop_oracle(self, cfg):
        rng = np.random.default_rng(cfg.frame_length)
        # (T, F) magnitude over more than one block of frames
        mag = rng.random((_STFT_BLOCK + 8, cfg.frame_length // 2 + 1)) ** 2
        mag[5] = 0.0  # a silent frame keeps its zero column
        power = (mag * mag).T
        _, stft, logf = _project_power(mag, cfg)
        ref_stft, ref_logf = chroma_oracle(power, cfg)
        np.testing.assert_allclose(stft, ref_stft, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(logf, ref_logf, rtol=1e-12, atol=1e-12)
        assert np.all(stft[:, 5] == 0) and np.all(logf[:, 5] == 0)


def _oracle_signals(sr):
    """Noise, a low and a high tone, and noise with exactly silent half seconds."""
    rng = np.random.default_rng(sr)
    t = np.arange(3 * sr) / sr
    return {
        "noise": rng.normal(size=t.size),
        "tone150": np.sin(2 * np.pi * 150 * t),
        "tone1900": np.sin(2 * np.pi * 1900 * t),
        "gaps": np.where(t % 1.0 < 0.5, rng.normal(size=t.size), 0.0),
    }


class TestBlockedStreams:
    @pytest.mark.parametrize("n_frames", [1, _STFT_BLOCK - 1, _STFT_BLOCK, _STFT_BLOCK + 1, 858])
    def test_spectrogram_bytes_match_one_shot_stft(self, n_frames):
        # one frame comes from a signal shorter than a frame, zero-padded
        n = 1000 if n_frames == 1 else CFG.frame_length + (n_frames - 1) * CFG.hop_length
        sig = AudioSignal(np.random.default_rng(n).normal(size=n), SR)
        frames = _frame(sig.samples, CFG.frame_length, CFG.hop_length)
        assert len(frames) == n_frames
        expected = np.abs(np.fft.rfft(frames * np.hanning(CFG.frame_length), axis=1)).T
        np.testing.assert_array_equal(magnitude_spectrogram(sig, CFG), expected)

    @pytest.mark.parametrize(
        "cfg",
        [CFG, FeatureConfig(subbands=True), FeatureConfig(frame_length=1024, hop_length=256),
         FeatureConfig(sample_rate=8000, frame_length=512, hop_length=128)],
    )
    @pytest.mark.parametrize("kind", ["noise", "tone150", "tone1900", "gaps"])
    def test_every_stream_matches_the_full_size_oracle(self, cfg, kind):
        sig = AudioSignal(_oracle_signals(cfg.sample_rate)[kind], cfg.sample_rate)
        got, n_onsets, onset_rate = streams(sig, cfg)
        ref, ref_onsets, ref_rate = streams_oracle(sig, cfg)
        assert list(got) == list(ref)
        assert (n_onsets, onset_rate) == (ref_onsets, ref_rate)
        # float reordering moves a value by about 1e-16 of the scale its sums run
        # at: the stream's largest value, except where they cancel. The bandwidth
        # subtracts squared frequencies (scale: Nyquist) and the onset envelope
        # subtracts mel frames (scale: the largest mel frame sum).
        scales = {name: np.abs(rows).max() for name, rows in ref.items()}
        scales["bandwidth"] = cfg.sample_rate / 2
        scales["onset_envelope"] = ref["mel"].sum(axis=0).max()
        for name, rows in ref.items():
            np.testing.assert_allclose(got[name], rows, rtol=1e-9, atol=1e-12 * scales[name],
                                       err_msg=name)
        if kind == "gaps":  # silent frames: centroid and bandwidth 0 in both
            silent = ref["centroid"] == 0
            assert silent.any()
            assert np.all(got["centroid"][silent] == 0) and np.all(got["bandwidth"][silent] == 0)

    def test_mfcc_matches_the_cut_full_dct(self):
        mel = np.random.default_rng(2).random((CFG.n_mels, 50)) * 10.0
        cepstra = mfcc_from_mel(mel, CFG)[: CFG.n_mfcc]
        expected = scipy.fft.dct(np.log(mel + 1e-10), type=2, axis=0, norm="ortho")[: CFG.n_mfcc]
        np.testing.assert_allclose(cepstra, expected, rtol=1e-12, atol=1e-12)

    def test_extract_peak_memory_stays_below_two_magnitudes(self):
        sig = AudioSignal(np.random.default_rng(60).normal(size=60 * SR), SR)
        layout = default_layout(CFG)
        extract(AudioSignal(sig.samples[: 2 * SR], SR), layout)  # build the cached matrices
        n_frames = 1 + (len(sig.samples) - CFG.frame_length) // CFG.hop_length
        magnitude_bytes = n_frames * (CFG.frame_length // 2 + 1) * 8
        _, peak = traced_peak(lambda: extract(sig, layout))
        assert peak <= 2 * magnitude_bytes


class TestSpectral:
    def test_pure_tone_centroid_within_one_bin(self, sine440):
        centroid, _ = spectral(sine440)
        bin_width = SR / CFG.frame_length
        voiced = centroid > 0
        assert np.all(np.abs(centroid[voiced] - 440.0) < bin_width)

    def test_pure_tone_bandwidth_below_two_bins(self, sine440):
        _, bandwidth = spectral(sine440)
        bin_width = SR / CFG.frame_length
        assert np.median(bandwidth[bandwidth > 0]) < 2 * bin_width

    def test_silence_gives_zeros(self):
        centroid, bandwidth = spectral(AudioSignal(np.zeros(SR), SR))
        assert np.all(centroid == 0) and np.all(bandwidth == 0)


class TestOnsets:
    def test_silence(self):
        envelope, count, rate = onsets(AudioSignal(np.zeros(SR), SR))
        assert np.all(envelope == 0)
        assert count == 0 and rate == 0

    def test_single_click_single_onset(self):
        samples = np.zeros(SR)
        samples[SR // 2] = 1.0
        sig = preprocess(AudioSignal(samples, SR), CFG)
        _, count, rate = onsets(sig)
        assert count == 1
        assert rate == pytest.approx(1.0, abs=0.05)

    def test_rate_invariant_to_duration(self):
        def clicks(seconds):
            samples = np.zeros(int(SR * seconds))
            for k in range(int(seconds / 0.25)):
                samples[int((k + 0.5) * 0.25 * SR)] = 1.0
            return preprocess(AudioSignal(samples, SR), CFG)

        _, _, rate1 = onsets(clicks(1.0))
        _, _, rate2 = onsets(clicks(2.0))
        assert rate1 > 0
        assert abs(rate1 - rate2) <= 0.1 * rate1


class TestOnsetPicking:
    @pytest.mark.parametrize("seed", range(40))
    def test_count_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        # multiples of 1/8 keep cumsum and diff exact, so ties stay ties
        flux = rng.integers(0, 6, size=n) * 0.125
        for _ in range(int(rng.integers(0, 6))):  # plateaus and ties within +/- 3 frames
            t = int(rng.integers(0, n))
            width = int(rng.integers(1, 5))
            flux[t : t + width] = flux[t]
            if t + 3 < n:
                flux[t + 3] = flux[t]
        flux[0] = 0.0  # the envelope has no flux into the first frame
        mel = np.cumsum(flux)[None, :]
        envelope, count, rate = _onset_from_mel(mel, duration=2.0)
        np.testing.assert_array_equal(envelope, flux)
        assert count == onset_count_oracle(flux)
        assert rate == count / 2.0


def _rows_for(kinds, length, rng):
    rows = []
    for kind in kinds:
        if kind == "constant":
            rows.append(np.full(length, rng.normal() * 10.0 ** rng.integers(-3, 7)))
        elif kind == "near_flat":  # |mean| 1e6, spread around the 1e-6 flat threshold
            sign = rng.choice([-1.0, 1.0])
            rows.append(sign * 1e6 + rng.normal(size=length) * 10.0 ** rng.integers(-12, -4))
        elif kind == "skewed":
            rows.append(rng.exponential(size=length) ** 3)
        else:
            rows.append(rng.normal(size=length) * 10.0 ** rng.integers(-3, 4))
    return np.array(rows)


class TestAggregate:
    @settings(max_examples=150, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        length=st.integers(1, 60),
        kinds=st.lists(st.sampled_from(["normal", "constant", "near_flat", "skewed"]),
                       min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_one_dimensional_oracle(self, lead, length, kinds, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(np.prod(lead))
        series = _rows_for([kinds[i % len(kinds)] for i in range(n_rows)], length, rng)
        out = aggregate(series.reshape(*lead, length))
        assert out.shape == (*lead, 7)
        out = out.reshape(n_rows, 7)
        ref = np.array([aggregate_oracle(row) for row in series])
        # mean, std, min, max and median take the same reductions as the oracle
        np.testing.assert_allclose(out[:, :5], ref[:, :5], rtol=1e-12, atol=0)
        # skewness and kurtosis are dimensionless: cubes and fourth powers are
        # now products rather than pow calls, so compare relative to max(1, |ref|)
        assert np.all(np.abs(out[:, 5:] - ref[:, 5:]) <= 1e-12 * np.maximum(1.0, np.abs(ref[:, 5:])))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["normal", "constant", "near_flat", "skewed", "mixed"])
    def test_in_place_products_equal_fresh_products(self, kind, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 900))
        kinds = ["normal", "constant", "near_flat", "skewed"] * 3 if kind == "mixed" else [kind] * 5
        series = _rows_for(kinds, length, rng)
        for shaped in (series, series[0], series.reshape(-1, 1, length)):
            np.testing.assert_array_equal(aggregate(shaped), aggregate_products_oracle(shaped))

    def test_constant_series(self):
        out = aggregate(np.full(7, 3.25))
        np.testing.assert_allclose(out, [3.25, 0, 3.25, 3.25, 3.25, 0, 0], atol=1e-12)

    def test_one_to_five_oracle(self):
        out = aggregate(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_allclose(
            out, [3.0, np.sqrt(2.0), 1.0, 5.0, 3.0, 0.0, -1.3], atol=1e-12
        )

    def test_symmetric_series_zero_skew(self):
        rng = np.random.default_rng(3)
        half = rng.normal(size=500)
        series = np.concatenate([half, -half])
        assert abs(aggregate(series)[5]) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate(np.array([]))


class TestExtract:
    def test_default_dimension(self):
        layout = default_layout(CFG)
        assert layout.dim == 128 * 7 + 120 * 7 + 24 * 7 + 2 * 7 + 7 + 2  # 1927

    def test_subband_flag_adds_four_streams(self):
        layout = default_layout(FeatureConfig(subbands=True))
        assert layout.dim == 1927 + 4 * 7

    def test_zero_signal_all_zero_vector(self):
        fv = extract(AudioSignal(np.zeros(SR), SR), default_layout(CFG))
        assert np.all(fv == 0)

    def test_deterministic(self, sine440):
        layout = default_layout(CFG)
        a = extract(sine440, layout)
        b = extract(sine440, layout)
        assert np.array_equal(a, b)

    def test_scale_covariance(self):
        layout = default_layout(CFG)
        base = sine(440, amplitude=0.25)
        scaled = AudioSignal(base.samples * 2.0, SR)  # power of two: exact
        a = extract(preprocess(base, CFG), layout)
        b = extract(preprocess(scaled, CFG), layout)
        assert np.array_equal(a, b)

    def test_adversarial_corpus_finite(self):
        layout = default_layout(CFG)
        rng = np.random.default_rng(4)
        corpus = [
            np.zeros(SR),                          # silence
            np.clip(rng.normal(scale=10, size=SR), -1, 1),  # clipped noise
            np.array([0.3]),                       # single sample
            np.full(100, 1.0),                     # DC block
            rng.normal(size=37),                   # sub-frame length
        ]
        for samples in corpus:
            fv = extract(preprocess(AudioSignal(samples, SR), CFG), layout)
            assert np.all(np.isfinite(fv))
            assert fv.shape == (layout.dim,)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(FingerprintError):
            extract(AudioSignal(np.zeros(100), 8000), default_layout(CFG))

    @pytest.mark.parametrize("subbands", [False, True])
    def test_one_aggregate_call_per_extract(self, monkeypatch, subbands):
        cfg = FeatureConfig(subbands=subbands)
        sig = preprocess(sine(440), cfg)
        calls = []
        real = features_module.aggregate

        def counting(series):
            calls.append(np.shape(series))
            return real(series)

        monkeypatch.setattr(features_module, "aggregate", counting)
        fv = extract(sig, default_layout(cfg))
        n_streams = len(features_module._stream_labels(cfg))
        assert len(calls) == 1 and calls[0][0] == n_streams
        assert fv.shape == (7 * n_streams + 2,)

    @pytest.mark.parametrize("subbands", [False, True])
    def test_streams_expand_to_stream_labels(self, subbands):
        cfg = FeatureConfig(subbands=subbands)
        frames, _, _ = streams(preprocess(sine(440), cfg), cfg)
        labels = []
        for name, rows in frames.items():
            labels += [name] if rows.ndim == 1 else [f"{name}[{i}]" for i in range(len(rows))]
        assert labels == _stream_labels(cfg)

    def test_one_stft_per_extract(self, monkeypatch, sine440):
        calls = []
        real = features_module.magnitude_spectrogram

        def counting(sig, cfg):
            calls.append(cfg)
            return real(sig, cfg)

        monkeypatch.setattr(features_module, "magnitude_spectrogram", counting)
        extract(sine440, default_layout(CFG))
        assert calls == [CFG]

    def test_subband_extraction_matches_layout(self):
        cfg = FeatureConfig(subbands=True)
        sig = preprocess(sine(440), cfg)
        fv = extract(sig, default_layout(cfg))
        assert fv.shape == (1955,)


class TestWavIO:
    @pytest.mark.parametrize(
        "dtype,scale",
        [(np.int16, 32767), (np.int32, 2**31 - 1), (np.float32, 1.0)],
    )
    def test_reads_common_formats(self, tmp_path, dtype, scale):
        t = np.arange(SR) / SR
        wave = 0.5 * np.sin(2 * np.pi * 200 * t)
        path = tmp_path / f"tone_{np.dtype(dtype).name}.wav"
        if np.issubdtype(dtype, np.integer):
            scipy.io.wavfile.write(path, SR, (wave * scale).astype(dtype))
        else:
            scipy.io.wavfile.write(path, SR, wave.astype(dtype))
        sig = read_wav(path)
        assert sig.sample_rate == SR
        np.testing.assert_allclose(sig.samples, wave, atol=2e-4)

    def test_uint8_offset_binary(self, tmp_path):
        t = np.arange(SR) / SR
        wave = 0.5 * np.sin(2 * np.pi * 200 * t)
        path = tmp_path / "tone_u8.wav"
        scipy.io.wavfile.write(path, SR, ((wave * 127) + 128).astype(np.uint8))
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, wave, atol=2e-2)

    def test_stereo_averaged_to_mono(self, tmp_path):
        t = np.arange(1000) / SR
        left = np.sin(2 * np.pi * 300 * t).astype(np.float32)
        right = np.zeros_like(left)
        path = tmp_path / "stereo.wav"
        scipy.io.wavfile.write(path, SR, np.stack([left, right], axis=1))
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, left / 2, atol=1e-6)

    @pytest.mark.parametrize("dtype,offset,scale,atol", [(np.int16, 0, 32767, 1e-4),
                                                         (np.uint8, 128, 127, 2e-2)])
    def test_pcm_stereo_is_scaled_before_averaging(self, tmp_path, dtype, offset, scale, atol):
        wave = 0.5 * np.sin(2 * np.pi * 200 * np.arange(SR) / SR)
        left = (wave * scale + offset).astype(dtype)
        right = np.full_like(left, offset)  # digital silence
        path = tmp_path / f"stereo_{np.dtype(dtype).name}.wav"
        scipy.io.wavfile.write(path, SR, np.stack([left, right], axis=1))
        np.testing.assert_allclose(read_wav(path).samples, wave / 2, atol=atol)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_in_place_scaling_equals_the_scaled_copy(self, tmp_path, dtype, channels):
        info = np.iinfo(dtype) if np.issubdtype(dtype, np.integer) else None
        rng = np.random.default_rng(channels)
        if info is None:
            data = rng.uniform(-1.0, 1.0, size=(4000, channels)).astype(dtype)
        else:
            data = rng.integers(info.min, info.max, size=(4000, channels), endpoint=True,
                                dtype=dtype)
            data[:2] = [[info.min], [info.max]]
        path = tmp_path / "pcm.wav"
        scipy.io.wavfile.write(path, SR, data.squeeze())
        expected = {
            np.uint8: lambda d: (d.astype(float) - 128.0) / 128.0,
            np.int16: lambda d: d.astype(float) / 32768.0,
            np.int32: lambda d: d.astype(float) / 2147483648.0,
            np.float32: lambda d: d.astype(float),
        }[dtype](data).mean(axis=1)
        np.testing.assert_array_equal(read_wav(path).samples, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_sample_is_a_data_error(self, tmp_path, bad, channels):
        samples = np.zeros((1000, channels), dtype=np.float32)
        samples[500, channels - 1] = bad
        path = tmp_path / "bad.wav"
        scipy.io.wavfile.write(path, SR, samples.squeeze())
        with pytest.raises(DataError, match=f"non-finite samples in audio file {path}"):
            read_wav(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(DataError):
            read_wav(path)


class TestFeatureCache:
    def test_round_trip_and_fingerprint_guard(self, tmp_path):
        path = tmp_path / "cache.npz"
        matrix = np.random.default_rng(5).normal(size=(4, 7))
        save_feature_cache(path, "fp1234", ["a.wav", "b.wav", "c.wav", "d.wav"],
                           matrix, labels=[0, 1, 0, 2])
        fingerprint, paths, loaded, labels = load_feature_cache(path, "fp1234")
        assert fingerprint == "fp1234"
        assert paths == ["a.wav", "b.wav", "c.wav", "d.wav"]
        np.testing.assert_array_equal(loaded, matrix)
        np.testing.assert_array_equal(labels, [0, 1, 0, 2])
        with pytest.raises(FingerprintError):
            load_feature_cache(path, "other")

    def test_path_without_suffix_is_written_as_given(self, tmp_path):
        path = tmp_path / "feats"
        save_feature_cache(path, "fp1234", ["a.wav"], np.ones((1, 3)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["feats"]
        _, paths, matrix, labels = load_feature_cache(path, "fp1234")
        assert paths == ["a.wav"] and labels is None
        np.testing.assert_array_equal(matrix, np.ones((1, 3)))

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "cache.npz"
        save_feature_cache(path, "fp1234", ["a.wav"], np.zeros((1, 3)))
        before = path.read_bytes()

        if failure == "write":
            def half_write(fh, **payload):
                fh.write(before[: len(before) // 2])
                raise OSError("no space left on device")

            monkeypatch.setattr(features_module.np, "savez_compressed", half_write)
        else:
            def refuse(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(atomic_module.os, "replace", refuse)

        with pytest.raises(OSError):
            save_feature_cache(path, "fp1234", ["b.wav"], np.ones((1, 3)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.npz"]
        _, paths, _, _ = load_feature_cache(path, "fp1234")
        assert paths == ["a.wav"]

    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.5, 0.95])
    def test_truncated_file_is_a_data_error(self, tmp_path, fraction):
        path = tmp_path / "cache.npz"
        save_feature_cache(path, "fp1234", ["a.wav"], np.random.default_rng(7).normal(size=(1, 50)))
        data = path.read_bytes()
        path.write_bytes(data[: int(fraction * len(data))])
        with pytest.raises(DataError):
            load_feature_cache(path, "fp1234")

    def test_bare_npy_array_is_a_data_error(self, tmp_path):
        path = tmp_path / "cache.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((3, 4)))
        with pytest.raises(DataError, match="not an .npz archive"):
            load_feature_cache(path, "fp1234")

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_feature_cache(tmp_path / "absent.npz")

    def test_empty_paths_round_trip(self, tmp_path):
        path = tmp_path / "cache.npz"
        save_feature_cache(path, "fp1234", [], np.zeros((0, 3)), labels=[])
        fingerprint, paths, matrix, labels = load_feature_cache(path, "fp1234")
        assert fingerprint == "fp1234" and paths == []
        assert matrix.shape == (0, 3) and labels.shape == (0,)

    def test_pickled_paths_are_rejected_unopened(self, tmp_path):
        marker = tmp_path / "unpickled"

        class SideEffect:
            def __reduce__(self):
                return os.mkdir, (str(marker),)

        path = tmp_path / "crafted.npz"
        np.savez(path, version=np.array(features_module.CACHE_VERSION),
                 fingerprint=np.array("fp1234"),
                 paths=np.array([SideEffect()], dtype=object), matrix=np.zeros((1, 3)))
        with pytest.raises(DataError):
            load_feature_cache(path, "fp1234")
        assert not marker.exists()

    def test_version_1_cache_is_unsupported(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(path, version=np.array(1), fingerprint=np.array("fp1234"),
                            paths=np.array(["a.wav"], dtype=object), matrix=np.zeros((1, 3)))
        with pytest.raises(DataError, match="unsupported feature cache version 1"):
            load_feature_cache(path, "fp1234")
