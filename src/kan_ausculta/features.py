"""Audio preprocessing and statistical feature extraction.

Pipeline per recording: decode WAV -> resample to 22 050 Hz (polyphase)
-> zero-phase Butterworth band-pass 100-2000 Hz -> peak normalize ->
compute mel / MFCC(+delta,+delta-delta) / chroma / spectral / onset
streams -> summarize each stream row with seven statistics (mean, std,
min, max, median, skewness, excess kurtosis) -> concatenate into one
feature vector, imputing NaN/Inf as zero.

``preprocess`` drops its input signal once it has resampled it. The
zero-phase band-pass is ``scipy.signal.sosfiltfilt`` bit for bit, as two
``sosfilt`` passes over an odd-extended copy that is freed after the
forward pass, so the filter keeps two signal-sized buffers alive instead
of three; the peak is ``max(max, -min)``, with no ``|x|`` temporary.

STFT parameters are frame 2048 / hop 512 with a Hann window; frames are
strided views of the signal. ``magnitude_spectrogram`` windows and
transforms ``_STFT_BLOCK`` frames at a time into one preallocated (T, F)
array, so the windowed frames and the complex spectrum exist only one
cache-sized block at a time and its bytes do not depend on the block size.
Standard deviation is the population (1/N) convention throughout. The
"log-f" chroma variant folds a log-frequency (12 bins/octave) spectrogram
rather than a true constant-Q transform. The mel filterbank and both chroma
folds are stacked into one sparse (CSR) projection, and the power spectrum
is squared and projected block by block through it. Spectral centroid and
bandwidth come from the three magnitude moments sum(m), sum(f m) and
sum(f^2 m) of one (T, F) @ (F, 3) product. The MFCCs are the first
n_mfcc rows of the orthonormal DCT-II, as one matrix product.

Cached, read-only and keyed by the config values they depend on: the
sparse power projection (n_mels, n_chroma, frame, rate), the DCT matrix
(n_mfcc, n_mels), the band-pass sections (the band-pass config) and the
polyphase low-pass of ``resample`` (the larger term of the reduced ratio:
one design per source rate of a corpus; ``imbalance.pitch_shift``
resamples without this cache). scipy is imported inside the functions
that call it (decoding, preprocessing and building the projection), so
importing this module, and the CLI, does not load it.

``extract`` is two steps. ``streams`` computes one magnitude STFT and
derives every per-frame stream from it, returned by name in the order of
the layout's stream labels (subbands included), together with the onset
count and rate. ``aggregate`` then computes the seven statistics of every
stacked stream row along the time axis in one vectorised pass.

Extraction is a pure function of (bytes, config): the layout fingerprint
binds feature matrices and model checkpoints to the exact configuration
that produced them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_write, read_npz
from .errors import ContractViolation, DataError, FingerprintError

__all__ = [
    "FeatureConfig",
    "AudioSignal",
    "FeatureLayout",
    "STAT_NAMES",
    "read_wav",
    "preprocess",
    "resample",
    "magnitude_spectrogram",
    "mel_filterbank",
    "mfcc_from_mel",
    "streams",
    "aggregate",
    "default_layout",
    "extract",
    "save_feature_cache",
    "load_feature_cache",
]

log = logging.getLogger(__name__)

STAT_NAMES = ("mean", "std", "min", "max", "median", "skewness", "kurtosis")

CACHE_VERSION = 2


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 22050
    band_low: float = 100.0
    band_high: float = 2000.0
    filter_order: int = 4
    frame_length: int = 2048
    hop_length: int = 512
    n_mels: int = 128
    n_mfcc: int = 40
    n_chroma: int = 12
    subbands: bool = False  # adds 4 equal mel-group energy streams when on

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.frame_length < 1 or self.hop_length < 1:
            raise ValueError("frame_length and hop_length must be positive")
        if not (0 < self.band_low < self.band_high < self.sample_rate / 2):
            raise ValueError(
                f"band ({self.band_low}, {self.band_high}) must sit inside "
                f"(0, {self.sample_rate / 2})"
            )
        if self.n_mfcc > self.n_mels:
            raise ValueError("n_mfcc cannot exceed n_mels")


@dataclass
class AudioSignal:
    samples: np.ndarray  # mono, float, nominally in [-1, 1]
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FeatureLayout:
    """Ordered (stream, statistic) pairs plus the config that generates them."""

    entries: tuple
    config: FeatureConfig

    @property
    def dim(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def fingerprint(self) -> str:
        payload = json.dumps(
            {"entries": list(self.entries), "config": self.config.__dict__},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------
# decoding and preprocessing


def read_wav(path) -> AudioSignal:
    """Decode a PCM/float WAV to mono float samples in [-1, 1].

    PCM channels are scaled by their dtype, in place, before they are
    averaged. Float data holding a NaN or an infinite sample is refused:
    ``preprocess`` would spread it over the whole signal and ``extract`` would
    impute the result to an almost all-zero feature row.
    """
    import scipy.io.wavfile

    try:
        rate, data = scipy.io.wavfile.read(path)
    except Exception as exc:
        raise DataError(f"unreadable audio file {path}: {exc}") from exc
    if data.size == 0:
        raise DataError(f"empty audio file {path}")
    samples = data.astype(float)
    if data.dtype == np.uint8:
        samples -= 128.0
        samples /= 128.0
    elif data.dtype == np.int16:
        samples /= 32768.0
    elif data.dtype == np.int32:
        samples /= 2147483648.0
    elif not np.all(np.isfinite(samples)):
        raise DataError(f"non-finite samples in audio file {path}")
    del data
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioSignal(samples=samples, sample_rate=int(rate))


# one design per source rate of a corpus: 4, 8, 10 and 16 kHz all reduce
# to max rate 441 at 22.05 kHz, 44.1 kHz to 2 and 48 kHz to 320
@functools.lru_cache(maxsize=4)
def _resample_lowpass(max_rate: int) -> np.ndarray:
    """Read-only copy of the Kaiser low-pass ``resample_poly`` designs itself.

    It depends only on ``max(up, down)`` of the reduced ratio: 20 * max_rate
    + 1 taps, cutoff 1 / max_rate of Nyquist.
    """
    import scipy.signal

    taps = scipy.signal.firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    taps.setflags(write=False)
    return taps


def resample(samples: np.ndarray, up: int, down: int) -> np.ndarray:
    """``scipy.signal.resample_poly`` of a float64 signal, bit for bit.

    The signal is filtered with the cached low-pass of the reduced ratio's
    larger term instead of one designed per call. ``preprocess`` is its only
    caller, so the cache holds one design per source rate;
    ``imbalance.pitch_shift`` calls ``resample_poly`` itself, so its ratios
    neither fill the cache nor evict from it.
    """
    import scipy.signal

    samples = np.asarray(samples, dtype=float)
    g = math.gcd(up, down)
    up, down = up // g, down // g
    if up == down:
        return samples.copy()
    return scipy.signal.resample_poly(samples, up, down, window=_resample_lowpass(max(up, down)))


@functools.lru_cache(maxsize=8)
def _bandpass_sos(order: int, low: float, high: float, sample_rate: int) -> np.ndarray:
    """Read-only second-order sections of the Butterworth band-pass."""
    import scipy.signal

    sos = scipy.signal.butter(order, [low, high], btype="bandpass", fs=sample_rate, output="sos")
    sos.setflags(write=False)
    return sos


@functools.lru_cache(maxsize=8)
def _bandpass_zi(order: int, low: float, high: float, sample_rate: int) -> np.ndarray:
    """Read-only ``sosfilt_zi`` of ``_bandpass_sos``: its unit-step initial conditions."""
    import scipy.signal

    zi = scipy.signal.sosfilt_zi(_bandpass_sos(order, low, high, sample_rate).copy())
    zi.setflags(write=False)
    return zi


def _zero_phase(sos: np.ndarray, zi: np.ndarray, signal: list) -> np.ndarray:
    """``sosfiltfilt`` with ``padlen=min(3 * (2 * len(sos) + 1), n - 1)``, bit for bit.

    ``signal`` is a one-element list holding the samples; it is emptied, so
    when it held the only reference the samples are freed as soon as their
    odd extension is built. ``zi`` is ``sosfilt_zi(sos)``, scaled here by
    each pass's first sample. The same odd extension, initial conditions and
    two ``sosfilt`` passes, but the extended input is freed as soon as the
    forward pass has read it: the filter holds two arrays of the extended
    length at a time (the extension and the forward pass, then the forward
    and the backward pass), where ``sosfiltfilt`` holds the samples and all
    three through its backward pass. Returns a reversed view of the backward
    pass with the padding cut off.
    """
    import scipy.signal

    samples = signal.pop()
    n = len(samples)
    pad = min(3 * (2 * len(sos) + 1), n - 1)
    ext = np.empty(n + 2 * pad)
    ext[pad : pad + n] = samples
    if pad:
        ext[:pad] = 2 * samples[0] - samples[pad:0:-1]
        ext[pad + n :] = 2 * samples[-1] - samples[-2 : -(pad + 2) : -1]
    del samples
    sos = sos.copy()  # sosfilt rejects a read-only sos, like the cached one
    forward, _ = scipy.signal.sosfilt(sos, ext, zi=zi * ext[0])
    del ext
    backward, _ = scipy.signal.sosfilt(sos, forward[::-1], zi=zi * forward[-1])
    return backward[::-1][pad : pad + n]


def _peak(samples: np.ndarray):
    """``np.max(np.abs(samples))`` without the ``|x|`` temporary."""
    return max(samples.max(), -samples.min())


def preprocess(sig: AudioSignal, cfg: FeatureConfig = FeatureConfig()) -> AudioSignal:
    """Resample, band-pass (forward-backward, zero phase), peak-normalize.

    What stays alive: ``sig`` is read and dropped, so a caller that passes
    ``read_wav(path)`` straight in frees the decoded source-rate signal as
    soon as it is resampled. The band-pass is handed the only reference to
    the resampled signal and drops it once its odd extension is built, so it
    holds two filter buffers (see ``_zero_phase``); the peak normalisation
    then holds the filtered signal and its normalised copy.
    """
    samples = np.asarray(sig.samples, dtype=float)
    source_rate = sig.sample_rate
    del sig
    if samples.size == 0:
        raise DataError("empty signal")
    if source_rate != cfg.sample_rate:
        ratio = Fraction(cfg.sample_rate, source_rate).limit_denominator(1000)
        samples = resample(samples, ratio.numerator, ratio.denominator)

    band = (cfg.filter_order, cfg.band_low, cfg.band_high, cfg.sample_rate)
    signal = [samples]
    del samples
    filtered = _zero_phase(_bandpass_sos(*band), _bandpass_zi(*band), signal)
    peak = _peak(filtered)
    if peak > 0:
        filtered = filtered / peak
    return AudioSignal(samples=filtered, sample_rate=cfg.sample_rate)


# ----------------------------------------------------------------------------
# spectrogram plumbing


def _frame(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    if len(samples) < frame:
        log.warning(
            "signal shorter than one frame (%d < %d); using a single zero-padded frame",
            len(samples),
            frame,
        )
        padded = np.zeros(frame)
        padded[: len(samples)] = samples
        return padded[None, :]
    return sliding_window_view(samples, frame)[::hop]


@functools.lru_cache(maxsize=8)
def _hann(frame_length: int) -> np.ndarray:
    """Read-only ``np.hanning(frame_length)``."""
    window = np.hanning(frame_length)
    window.setflags(write=False)
    return window


# frames per window multiply and rfft: a (32, 2048) float64 block is 512 KiB,
# so the block and its spectrum stay in cache (8 to 128 give the same bytes)
_STFT_BLOCK = 32


def magnitude_spectrogram(sig: AudioSignal, cfg: FeatureConfig) -> np.ndarray:
    """(n_fft/2 + 1, T) Hann-windowed magnitude STFT.

    Frames are windowed and transformed ``_STFT_BLOCK`` at a time into one
    (T, n_fft/2 + 1) array, returned transposed, so no full-size windowed or
    complex copy is made.
    """
    frames = _frame(np.asarray(sig.samples, dtype=float), cfg.frame_length, cfg.hop_length)
    window = _hann(cfg.frame_length)
    mag = np.empty((len(frames), cfg.frame_length // 2 + 1))
    for start in range(0, len(frames), _STFT_BLOCK):
        stop = start + _STFT_BLOCK
        np.abs(np.fft.rfft(frames[start:stop] * window, axis=1), out=mag[start:stop])
    return mag.T


def _fft_freqs(cfg: FeatureConfig) -> np.ndarray:
    return np.fft.rfftfreq(cfg.frame_length, d=1.0 / cfg.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft/2 + 1) triangular filters spanning 0..sample_rate/2."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    lower = (freqs[None, :] - hz_points[:-2, None]) / (
        hz_points[1:-1, None] - hz_points[:-2, None]
    )
    upper = (hz_points[2:, None] - freqs[None, :]) / (
        hz_points[2:, None] - hz_points[1:-1, None]
    )
    return np.maximum(0.0, np.minimum(lower, upper))


@functools.lru_cache(maxsize=8)
def _dct_matrix(n_mfcc: int, n_mels: int) -> np.ndarray:
    """Read-only (n_mfcc, n_mels) first rows of the orthonormal DCT-II."""
    k = np.arange(n_mfcc)[:, None]
    n = np.arange(n_mels)[None, :]
    dct = np.sqrt(2.0 / n_mels) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_mels))
    dct[0] /= np.sqrt(2.0)
    dct.setflags(write=False)
    return dct


def mfcc_from_mel(mel: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """(3 * n_mfcc, T): cepstra from log-mel plus delta and delta-delta rows."""
    log_mel = np.log(mel + 1e-10)
    cepstra = _dct_matrix(cfg.n_mfcc, mel.shape[0]) @ log_mel
    d1 = _delta(cepstra)
    d2 = _delta(d1)
    return np.vstack([cepstra, d1, d2])


_DELTA_HALF_WINDOW = 2


def _delta(rows: np.ndarray) -> np.ndarray:
    """Regression-slope delta over a +/- ``_DELTA_HALF_WINDOW`` frame neighborhood."""
    half_window = _DELTA_HALF_WINDOW
    padded = np.pad(rows, ((0, 0), (half_window, half_window)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, half_window + 1))
    out = np.zeros_like(rows)
    for n in range(1, half_window + 1):
        out += n * (
            padded[:, half_window + n : padded.shape[1] - half_window + n]
            - padded[:, half_window - n : padded.shape[1] - half_window - n]
        )
    return out / denom


_C1_HZ = 32.70319566257483  # lowest log-frequency bin (C1), 12 bins/octave upward


def _pitch_classes(freqs: np.ndarray) -> np.ndarray:
    """Nearest pitch class (0 = C, 9 = A) for each positive frequency."""
    midi = 69.0 + 12.0 * np.log2(freqs / 440.0)
    return (np.round(midi).astype(int)) % 12


def _chroma_folds(n_chroma: int, frame_length: int, sample_rate: int):
    """Two (n_chroma, n_fft/2 + 1) fold matrices: STFT and log-frequency.

    Row c of a fold sums the STFT bins that land in pitch class c; a bin
    inside two log-frequency bands of the same class counts twice.
    """
    freqs = np.fft.rfftfreq(frame_length, d=1.0 / sample_rate)
    stft_fold = np.zeros((n_chroma, freqs.size))
    positive = np.flatnonzero(freqs > 0)
    stft_fold[_pitch_classes(freqs[positive]), positive] = 1.0

    # log-frequency (constant-Q-like) folding: 12 bins/octave from C1 upward
    n_octaves = int(np.floor(np.log2((sample_rate / 2.0) / _C1_HZ)))
    n_bins = 12 * n_octaves
    centers = _C1_HZ * 2.0 ** (np.arange(n_bins) / 12.0)
    logf_fold = np.zeros((n_chroma, freqs.size))
    half_step = 2.0 ** (1.0 / 24.0)
    for b, fc in enumerate(centers):
        lo, hi = fc / half_step, fc * half_step
        logf_fold[b % 12] += (freqs >= lo) & (freqs < hi)
    return stft_fold, logf_fold


@functools.lru_cache(maxsize=8)
def _power_projection(n_mels: int, n_chroma: int, frame_length: int, sample_rate: int):
    """Read-only CSR (n_mels + 2 * n_chroma, n_fft/2 + 1): mel filterbank over both folds.

    One product with a power spectrum gives the mel bands, then the STFT and
    the log-frequency chroma. For the defaults it holds 3,799 nonzeros out
    of 152 x 1025.
    """
    import scipy.sparse

    dense = np.vstack([
        mel_filterbank(n_mels, frame_length, sample_rate),
        *_chroma_folds(n_chroma, frame_length, sample_rate),
    ])
    projection = scipy.sparse.csr_array(dense)
    for part in (projection.data, projection.indices, projection.indptr):
        part.setflags(write=False)
    return projection


def _project_power(spec: np.ndarray, cfg: FeatureConfig):
    """Mel power and the two peak-normalised chroma variants of a (T, F) magnitude.

    The power is squared and projected ``_STFT_BLOCK`` frames at a time, so
    no full-size power array is made. Returns (n_mels, T), (n_chroma, T) and
    (n_chroma, T) row blocks of one array.
    """
    projection = _power_projection(cfg.n_mels, cfg.n_chroma, cfg.frame_length, cfg.sample_rate)
    projected = np.empty((projection.shape[0], spec.shape[0]))
    for start in range(0, spec.shape[0], _STFT_BLOCK):
        block = spec[start : start + _STFT_BLOCK]
        projected[:, start : start + _STFT_BLOCK] = projection @ (block * block).T
    mel, chroma_stft, chroma_logf = np.split(projected, [cfg.n_mels, cfg.n_mels + cfg.n_chroma])
    for chroma in (chroma_stft, chroma_logf):
        peaks = chroma.max(axis=0)
        nonzero = peaks > 0
        chroma[:, nonzero] /= peaks[nonzero]
    return mel, chroma_stft, chroma_logf


def _centroid_bandwidth(spec: np.ndarray, cfg: FeatureConfig):
    """Magnitude-weighted mean frequency and spread of each frame of a (T, F) magnitude.

    Both come from the moments m0 = sum(m), m1 = sum(f m) and m2 = sum(f^2 m)
    of one (T, F) @ (F, 3) product: centroid m1 / m0 and bandwidth
    sqrt(m2 / m0 - centroid^2), clipped at 0 against cancellation. A silent
    frame (m0 = 0) has both at 0.
    """
    freqs = _fft_freqs(cfg)
    m0, m1, m2 = (spec @ np.stack([np.ones_like(freqs), freqs, freqs * freqs], axis=1)).T
    safe_m0 = np.where(m0 > 0, m0, 1.0)
    centroid = m1 / safe_m0
    bandwidth = np.sqrt(np.maximum(m2 / safe_m0 - centroid * centroid, 0.0))
    return centroid, bandwidth


def _onset_from_mel(mel: np.ndarray, duration: float):
    flux = np.zeros(mel.shape[1])
    if mel.shape[1] > 1:
        diff = np.maximum(0.0, mel[:, 1:] - mel[:, :-1])
        flux[1:] = diff.sum(axis=0)

    threshold = flux.mean() + flux.std()
    neighbourhood = sliding_window_view(np.pad(flux, 3, constant_values=-np.inf), 7).max(axis=1)
    previous = np.concatenate([[np.nan], flux[:-1]])  # the first frame has none
    # a frame is an onset unless one of these skips it; plateaus count once
    skipped = (flux <= threshold) | (flux <= 0) | (flux < neighbourhood) | (flux == previous)
    count = int(np.count_nonzero(~skipped))
    rate = count / duration if duration > 0 else 0.0
    return flux, count, rate


def streams(sig: AudioSignal, cfg: FeatureConfig = FeatureConfig()):
    """Every per-frame stream of one signal from a single STFT.

    Returns ``(frames, onset_count, onset_rate)``. ``frames`` maps each
    stream name to its (rows, T) or (T,) array, in ``_stream_labels`` order:
    mel power, MFCC with delta and delta-delta rows, the two chroma
    variants, spectral centroid and bandwidth (magnitude-weighted mean
    frequency and the spread around it), the onset envelope, and with
    ``subbands`` the four mel-group means. The onset envelope is the
    half-wave-rectified positive spectral flux of the mel spectrogram summed
    over bands; onsets are local envelope maxima (within +/- 3 frames)
    exceeding mean + 1 std, and the rate is onsets per second.
    """
    spec = magnitude_spectrogram(sig, cfg).T  # (T, F), C-contiguous
    mel, chroma_stft, chroma_logf = _project_power(spec, cfg)
    centroid, bandwidth = _centroid_bandwidth(spec, cfg)
    del spec  # the largest array of an extraction; the other streams come from mel
    envelope, n_onsets, onset_rate = _onset_from_mel(mel, sig.duration)
    frames = {
        "mel": mel,
        "mfcc": mfcc_from_mel(mel, cfg),
        "chroma_stft": chroma_stft,
        "chroma_logf": chroma_logf,
        "centroid": centroid,
        "bandwidth": bandwidth,
        "onset_envelope": envelope,
    }
    if cfg.subbands:
        frames["mel_subband"] = np.vstack([g.mean(axis=0) for g in np.array_split(mel, 4, axis=0)])
    return frames, n_onsets, onset_rate


# ----------------------------------------------------------------------------
# aggregation and assembly


def aggregate(series) -> np.ndarray:
    """(mean, std, min, max, median, skewness, excess kurtosis) along the last axis.

    A series of shape (..., T) gives (..., 7); a 1-D series gives 7 values.
    Population (1/N) standard deviation; a row with zero variance (std at
    most 1e-12 of max(1, |mean|)) reports skewness and kurtosis of 0 by
    convention.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ContractViolation("cannot aggregate an empty series")
    mean = series.mean(axis=-1)
    centered = series - mean[..., None]
    squared = centered * centered
    m2 = np.mean(squared, axis=-1)
    std = np.sqrt(m2)
    flat = std <= 1e-12 * np.maximum(1.0, np.abs(mean))
    safe_m2 = np.where(flat, 1.0, m2)
    # products, not ``**3``/``**4``: NumPy sends those to libm pow, ~70x slower;
    # formed in place, so the third and fourth powers need no new (..., T) array
    centered *= squared
    skew = np.where(flat, 0.0, np.mean(centered, axis=-1) / safe_m2**1.5)
    squared *= squared
    kurt = np.where(flat, 0.0, np.mean(squared, axis=-1) / (safe_m2 * safe_m2) - 3.0)
    del centered, squared  # before np.median makes its partitioned copy
    return np.stack(
        [mean, std, series.min(axis=-1), series.max(axis=-1), np.median(series, axis=-1), skew, kurt],
        axis=-1,
    )


def _stream_labels(cfg: FeatureConfig):
    labels = []
    labels += [f"mel[{i}]" for i in range(cfg.n_mels)]
    labels += [f"mfcc[{i}]" for i in range(3 * cfg.n_mfcc)]
    labels += [f"chroma_stft[{i}]" for i in range(cfg.n_chroma)]
    labels += [f"chroma_logf[{i}]" for i in range(cfg.n_chroma)]
    labels += ["centroid", "bandwidth", "onset_envelope"]
    if cfg.subbands:
        labels += [f"mel_subband[{i}]" for i in range(4)]
    return labels


def default_layout(cfg: FeatureConfig = FeatureConfig()) -> FeatureLayout:
    """The declared stream/statistic ordering; dim 1927 for the defaults."""
    entries = []
    for label in _stream_labels(cfg):
        entries += [(label, stat) for stat in STAT_NAMES]
    entries += [("onset_count", "value"), ("onset_rate", "value")]
    return FeatureLayout(entries=tuple(entries), config=cfg)


def extract(sig: AudioSignal, layout: FeatureLayout) -> np.ndarray:
    """Aggregate every stream and concatenate in layout order; NaN/Inf -> 0.

    Returns the ``(layout.dim,)`` feature vector; ``layout.fingerprint``
    names the layout it follows. A fully silent signal carries no
    information and short-circuits to the all-zero vector
    (mel/chroma/spectral/onset streams are all zero there; the cepstral log
    floor would otherwise leak a constant).
    """
    cfg = layout.config
    if sig.sample_rate != cfg.sample_rate:
        raise FingerprintError(
            f"signal rate {sig.sample_rate} does not match layout rate {cfg.sample_rate}; "
            "run preprocess first"
        )
    samples = np.asarray(sig.samples, dtype=float)
    if not samples.size or not np.any(samples):
        return np.zeros(layout.dim)

    frames, n_onsets, onset_rate = streams(sig, cfg)
    stats = aggregate(np.vstack(list(frames.values())))
    values = np.concatenate([stats.ravel(), [float(n_onsets), onset_rate]])
    if values.shape[0] != layout.dim:
        raise FingerprintError(
            f"extractor produced {values.shape[0]} values but layout declares {layout.dim}"
        )
    return np.nan_to_num(values, nan=0.0, posinf=0.0, neginf=0.0)


# ----------------------------------------------------------------------------
# feature matrix cache


def save_feature_cache(path, fingerprint: str, paths, matrix, labels=None) -> None:
    """Columnar container binding a feature matrix to its layout fingerprint.

    Written atomically to exactly ``path`` (no ``.npz`` is appended): the
    container is staged next to the target and renamed over it, so a failed
    write keeps the previous file. Every entry is a plain array (``paths``
    is fixed-width unicode), so loading never unpickles anything.
    """
    payload = {
        "version": np.array(CACHE_VERSION),
        "fingerprint": np.array(fingerprint),
        "paths": np.array(list(paths), dtype=str),
        "matrix": np.asarray(matrix, dtype=float),
    }
    if labels is not None:
        payload["labels"] = np.asarray(labels, dtype=int)
    with atomic_write(path) as staged, open(staged, "wb") as fh:
        np.savez_compressed(fh, **payload)


def load_feature_cache(path, expected_fingerprint: str | None = None):
    """Returns (fingerprint, paths, matrix, labels-or-None).

    A file ``read_npz`` refuses raises ``DataError``: a missing, truncated
    or otherwise unreadable one, or one holding pickled objects (as version
    1 caches did).
    """
    with read_npz(path, "feature cache") as data:
        version = int(data["version"])
        if version != CACHE_VERSION:
            raise DataError(f"unsupported feature cache version {version}")
        fingerprint = str(data["fingerprint"])
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise FingerprintError(
                f"feature cache fingerprint {fingerprint} != expected {expected_fingerprint}"
            )
        paths = [str(p) for p in data["paths"]]
        matrix = data["matrix"]
        labels = data["labels"] if "labels" in data.files else None
    return fingerprint, paths, matrix, labels
