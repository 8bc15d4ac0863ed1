"""Class-imbalance mitigation: SMOTE, time-domain augmentation, stage-1 subsets.

Every operation here is train-split-only by contract. Callers pass the
split tags (or tagged index rows) they hold; any validation-tagged row
raises :class:`ContractViolation` so leakage cannot happen silently.

SMOTE operates on extracted feature vectors: each synthetic point is
``x + u * (x_nn - x)`` for a uniform ``u`` and one of the k nearest
same-class neighbors (Euclidean), with k shrunk to ``class_count - 1``
for very small classes. Augmentation operates on raw audio before feature
extraction: a per-sample probability gate, resolved per class by
``AugmentConfig.probability_for``, decides whether to augment at all; when
it fires, ``apply_transforms`` applies each of the three transforms
(additive Gaussian noise, circular time shift, pitch shift) independently
with probability 0.5. The gate is drawn in
``training.AudioFeatureSource.epoch_features``, once per training row and
before the recording is decoded, so rows it skips reuse their base
features, which ``cli`` extracts for every recording before training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dataset import DatasetIndex, IndexRow
from .errors import ContractViolation

__all__ = [
    "AugmentConfig",
    "SmoteConfig",
    "effective_neighbors",
    "smote_resample",
    "add_noise",
    "circular_shift",
    "time_stretch",
    "pitch_shift",
    "apply_transforms",
    "build_stage1_subset",
]

log = logging.getLogger(__name__)


def _guard_train_only(tags, operation: str) -> None:
    if tags is None:
        return
    for tag in tags:
        if tag == "val":
            raise ContractViolation(
                f"{operation} received a validation-tagged row; "
                "imbalance operations are train-split-only"
            )


@dataclass
class AugmentConfig:
    enabled: bool = True
    base_probability: float = 0.095
    # per-class overrides keyed by class name; URTI gets heavier augmentation,
    # and the frequently-confused pairs (URTI, Bronchiolitis) and
    # (Pneumonia, COPD) get targeted probability / pitch-range presets.
    class_probability: dict = field(
        default_factory=lambda: {"URTI": 0.6, "Bronchiolitis": 0.3, "Pneumonia": 0.2}
    )
    noise_level: float = 2.17e-5
    max_shift_fraction: float = 0.15
    pitch_range_semitones: float = 2.0
    class_pitch_range: dict = field(
        default_factory=lambda: {"URTI": 1.0, "Bronchiolitis": 1.0, "Pneumonia": 1.5}
    )

    def __post_init__(self):
        probs = [self.base_probability, *self.class_probability.values()]
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("augmentation probabilities must lie in [0, 1]")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ValueError("noise_level must be finite and >= 0")
        if not (0.0 <= self.max_shift_fraction < 1.0):
            raise ValueError("max_shift_fraction must lie in [0, 1)")
        ranges = [self.pitch_range_semitones, *self.class_pitch_range.values()]
        if any(not (math.isfinite(r) and r >= 0.0) for r in ranges):
            raise ValueError("pitch ranges must be finite and >= 0")

    def probability_for(self, class_name: str | None) -> float:
        if class_name is not None and class_name in self.class_probability:
            return self.class_probability[class_name]
        return self.base_probability

    def pitch_range_for(self, class_name: str | None) -> float:
        if class_name is not None and class_name in self.class_pitch_range:
            return self.class_pitch_range[class_name]
        return self.pitch_range_semitones


@dataclass
class SmoteConfig:
    enabled: bool = True
    k: int = 5
    # default policy: lift each minority class to this fraction of the
    # majority training count (partial balance); explicit per-class targets
    # take precedence when provided.
    target_ratio: float = 0.5
    target_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 < self.target_ratio <= 1.0):
            raise ValueError("target_ratio must lie in (0, 1]")


def effective_neighbors(class_count: int, k: int) -> int:
    """k shrunk so a class with n samples uses at most n - 1 neighbors."""
    return max(1, min(k, class_count - 1))


def _smote_targets(counts: dict, cfg: SmoteConfig, class_names=None) -> dict:
    majority = max(counts.values())
    targets = {}
    for label, n in counts.items():
        name = class_names[label] if class_names is not None else None
        if name is not None and name in cfg.target_counts:
            explicit = int(cfg.target_counts[name])
            targets[label] = max(n, explicit)
        elif n == majority:
            targets[label] = n
        else:
            targets[label] = max(n, int(round(cfg.target_ratio * majority)))
    return targets


# byte budget of one chunk of pairwise differences in _neighbor_indices
_DISTANCE_CHUNK_BYTES = 32 * 2**20


def _neighbor_indices(pool: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows (Euclidean), nearest first.

    Distances are built a block of rows at a time so the (rows, n, d)
    difference tensor stays under ``_DISTANCE_CHUNK_BYTES``; each row's
    distances are the same numbers the full (n, n, d) tensor gives.
    """
    n, d = pool.shape
    chunk = max(1, _DISTANCE_CHUNK_BYTES // (n * d * pool.itemsize))
    dist = np.empty((n, n))
    for start in range(0, n, chunk):
        diff = pool[start : start + chunk, None, :] - pool[None, :, :]
        diff *= diff
        dist[start : start + chunk] = np.sqrt(diff.sum(axis=2))
    np.fill_diagonal(dist, np.inf)  # self excluded
    return np.argsort(dist, axis=1)[:, :k]


def smote_resample(
    features,
    labels,
    cfg: SmoteConfig,
    rng: np.random.Generator,
    split_tags=None,
    class_names=None,
):
    """Oversample minority classes by segment interpolation in feature space.

    Originals are always retained; the combined set is deterministically
    shuffled. Classes with fewer than 2 samples are skipped with a warning.

    The result is the originals followed by each class's synthetic rows,
    permuted by ``rng.permutation``, but each row is written straight into
    its shuffled place in one preallocated output: besides ``features``
    this holds the synthetic rows and the output, never a concatenated
    copy. The output is a new array the caller may modify.
    """
    _guard_train_only(split_tags, "smote_resample")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on the sample count")

    counts = {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
    targets = _smote_targets(counts, cfg, class_names)

    blocks = []  # (label, synthetic rows), in label order
    for label, target in sorted(targets.items()):
        n = counts[label]
        deficit = target - n
        if deficit <= 0:
            continue
        if n < 2:
            log.warning("class %d has %d sample(s); SMOTE skipped", label, n)
            continue
        pool = features[labels == label]
        k_eff = effective_neighbors(n, cfg.k)
        neighbor_idx = _neighbor_indices(pool, k_eff)

        bases = rng.integers(0, n, size=deficit)
        picks = rng.integers(0, k_eff, size=deficit)
        us = rng.random(deficit)
        # x + u * (x_nn - x), formed in the neighbor rows' own array
        synthetic = pool[neighbor_idx[bases, picks]]
        base_rows = pool[bases]
        synthetic -= base_rows
        synthetic *= us[:, None]
        synthetic += base_rows
        blocks.append((label, synthetic))
        del base_rows  # not held beside the output

    total = features.shape[0] + sum(len(block) for _, block in blocks)
    order = rng.permutation(total)
    position = np.empty(total, dtype=np.intp)  # where each unshuffled row lands
    position[order] = np.arange(total)
    out_features = np.empty((total, *features.shape[1:]))
    out_labels = np.empty(total, dtype=int)
    start = features.shape[0]
    out_features[position[:start]] = features
    out_labels[position[:start]] = labels
    for label, synthetic in blocks:
        rows = position[start : start + len(synthetic)]
        out_features[rows] = synthetic
        out_labels[rows] = label
        start += len(synthetic)
    return out_features, out_labels


# ----------------------------------------------------------------------------
# time-domain transforms


def add_noise(samples: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise with std = level * peak(|samples|)."""
    peak = np.max(np.abs(samples))
    if level <= 0 or peak == 0:
        return samples.copy()
    return samples + rng.normal(0.0, level * peak, size=samples.shape)


def circular_shift(samples: np.ndarray, shift: int) -> np.ndarray:
    """Rotate the signal; preserves length and the sample multiset."""
    return np.roll(samples, shift)


_STRETCH_FRAME = 1024
_STRETCH_SEARCH = 256


def time_stretch(samples: np.ndarray, rate: float) -> np.ndarray:
    """Overlap-add time stretch by ``rate`` (>1 lengthens) preserving pitch.

    Waveform-similarity variant: each analysis frame (``_STRETCH_FRAME``
    samples) is picked near its nominal position but shifted (within
    ``_STRETCH_SEARCH`` samples) to best continue the previously written
    frame, so periodic content stays phase-coherent instead of smearing.
    """
    frame, search = _STRETCH_FRAME, _STRETCH_SEARCH
    if rate <= 0:
        raise ValueError("rate must be positive")
    n_out = max(1, int(round(len(samples) * rate)))
    if len(samples) < frame + 2 * search or n_out <= frame:
        # too short to frame; nearest-sample stretch is inaudible at this scale
        idx = np.minimum((np.arange(n_out) / rate).astype(int), len(samples) - 1)
        return samples[idx]

    hop_out = frame // 4
    hop_in = hop_out / rate
    window = np.hanning(frame)
    overlap = hop_out
    out = np.zeros(n_out + frame)
    norm = np.zeros(n_out + frame)

    prev_start = 0
    last_frame_pos = (n_out - 1) // hop_out
    for k in range(last_frame_pos + 1):
        nominal = int(round(k * hop_in))
        if k == 0:
            start = 0
        else:
            target = min(prev_start + hop_out, len(samples) - overlap)
            ref = samples[target : target + overlap]
            lo = max(0, nominal - search)
            hi = min(len(samples) - frame, nominal + search)
            if hi <= lo:
                start = max(0, min(nominal, len(samples) - frame))
            else:
                scores = np.correlate(samples[lo : hi + overlap], ref, mode="valid")
                start = lo + int(scores.argmax())
        pos = k * hop_out
        out[pos : pos + frame] += samples[start : start + frame] * window
        norm[pos : pos + frame] += window
        prev_start = start

    nonzero = norm > 1e-6
    out[nonzero] /= norm[nonzero]
    return out[:n_out]


def pitch_shift(samples: np.ndarray, semitones: float) -> np.ndarray:
    """Shift pitch by resampling then stretching the duration back.

    Resampling by 2^(semitones/12) raises/lowers pitch while shortening or
    lengthening the signal; an overlap-add stretch restores the original
    length. Output length matches the input exactly.

    The resampling ratio 2^(-semitones/12) is rounded to k/10000 and then
    to the nearest fraction with a denominator of at most 1000; the second
    rounding moves the pitch by at most 0.87 cents. ``resample_poly``
    designs its low-pass on every call with 20 * max(up, down) + 1 taps, so
    no design exceeds 22,421 taps over +/-2 semitones or 39,981 over +/-12;
    shifts within about +/-0.01 semitones resample by 1/1.
    """
    import scipy.signal

    n = len(samples)
    if semitones == 0.0 or n == 0:
        return samples.copy()
    factor = 2.0 ** (semitones / 12.0)
    ratio = Fraction(max(1, int(round(10000 / factor))), 10000).limit_denominator(1000)
    sped = scipy.signal.resample_poly(samples, ratio.numerator, ratio.denominator)
    stretched = time_stretch(sped, n / max(1, len(sped)))
    if len(stretched) >= n:
        return stretched[:n]
    out = np.zeros(n)
    out[: len(stretched)] = stretched
    return out


def apply_transforms(
    samples: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    class_name: str | None = None,
) -> np.ndarray:
    """The post-gate transform bundle: each transform flips an independent coin."""
    apply_noise_t, apply_shift_t, apply_pitch_t = rng.random(3) < 0.5
    out = samples.copy()
    if apply_noise_t:
        out = add_noise(out, cfg.noise_level, rng)
    if apply_shift_t:
        span = cfg.max_shift_fraction
        shift = int(round(rng.uniform(-span, span) * len(out)))
        out = circular_shift(out, shift)
    if apply_pitch_t:
        pitch_range = cfg.pitch_range_for(class_name)
        semitones = rng.uniform(-pitch_range, pitch_range)
        out = pitch_shift(out, semitones)
    return out


def build_stage1_subset(
    index: DatasetIndex,
    majority_class: int,
    cap: int,
    rng: np.random.Generator,
) -> DatasetIndex:
    """All minority-class rows plus a seeded sample of at most ``cap`` majority rows."""
    _guard_train_only([row.split for row in index.rows], "build_stage1_subset")
    minority = [row for row in index.rows if row.label != majority_class]
    majority = [row for row in index.rows if row.label == majority_class]
    if not majority:
        raise ValueError(f"majority class {majority_class} not present")
    take = min(cap, len(majority))
    chosen = rng.choice(len(majority), size=take, replace=False)
    subset: list[IndexRow] = minority + [majority[i] for i in sorted(chosen)]
    return DatasetIndex(rows=subset, class_names=index.class_names)
