import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.io.wavfile
import scipy.signal

from conftest import traced_peak
from kan_ausculta import features as features_module
from kan_ausculta import cli, imbalance, training
from kan_ausculta.config import load_config
from kan_ausculta.dataset import DatasetIndex, IndexRow
from kan_ausculta.errors import ContractViolation, DataError
from kan_ausculta.features import FeatureConfig
from kan_ausculta.imbalance import (
    AugmentConfig,
    SmoteConfig,
    add_noise,
    apply_transforms,
    build_stage1_subset,
    circular_shift,
    effective_neighbors,
    pitch_shift,
    smote_resample,
    time_stretch,
)

SR = 22050


def sine(freq, seconds=1.0, sr=SR):
    t = np.arange(int(sr * seconds)) / sr
    return np.sin(2 * np.pi * freq * t)


CLASS_NAMES = ("c0",)


def wav_rows(tmp_path, n, seconds=0.5):
    """``n`` training rows of short written WAVs."""
    rows = []
    for k in range(n):
        path = tmp_path / f"{k}.wav"
        scipy.io.wavfile.write(path, SR, (0.5 * sine(200 + 50 * k, seconds)).astype(np.float32))
        rows.append(IndexRow(path=str(path), patient_id=str(k), label=0, split="train"))
    return rows


def audio_rows(tmp_path, n):
    """An audio feature source holding the base rows of ``wav_rows``, and the rows."""
    rows = wav_rows(tmp_path, n)
    index = DatasetIndex(rows=rows, class_names=CLASS_NAMES)
    return cli._audio_source(load_config(), index, None), rows


def pitch_k(semitones):
    """The numerator of a shift's resampling ratio k/10000 before the denominator limit."""
    return max(1, int(round(10000 / 2.0 ** (semitones / 12.0))))


def pitch_ratio(semitones):
    """The resampling ratio of a shift: k/10000, then a denominator of at most 1000."""
    return Fraction(pitch_k(semitones), 10000).limit_denominator(1000)


def pitch_shift_oracle(samples, semitones):
    """``pitch_shift`` with the low-pass designed by ``resample_poly`` on every call."""
    n = len(samples)
    ratio = pitch_ratio(semitones)
    sped = scipy.signal.resample_poly(samples, ratio.numerator, ratio.denominator)
    stretched = time_stretch(sped, n / max(1, len(sped)))
    if len(stretched) >= n:
        return stretched[:n]
    out = np.zeros(n)
    out[: len(stretched)] = stretched
    return out


class TestSmote:
    def test_two_point_synthetic_on_segment(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([1, 1])
        # force one synthetic via an explicit target
        cfg = SmoteConfig(k=5, target_counts={"minority": 3})
        out, out_labels = smote_resample(
            features, labels, cfg, rng=np.random.default_rng(0), class_names={1: "minority"}
        )
        assert out.shape == (3, 2)
        synthetic = [row for row in out if not any((row == f).all() for f in features)]
        assert len(synthetic) == 1
        s = synthetic[0]
        assert 0.0 - 1e-12 <= s[0] <= 1.0 + 1e-12
        assert abs(s[0] - s[1]) < 1e-12  # on the segment between (0,0) and (1,1)

    def test_effective_k_shrinks_for_tiny_classes(self):
        assert effective_neighbors(3, 5) == 2
        assert effective_neighbors(10, 5) == 5
        assert effective_neighbors(2, 5) == 1

    def test_noop_when_targets_equal_counts(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(12, 4))
        labels = np.array([0] * 6 + [1] * 6)
        cfg = SmoteConfig(target_ratio=0.5)  # both classes at majority count
        out, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(2))
        assert out.shape == features.shape
        # identical up to the deterministic shuffle
        order = np.lexsort(out.T)
        base = np.lexsort(features.T)
        np.testing.assert_array_equal(out[order], features[base])

    def test_segment_property_bulk(self):
        rng = np.random.default_rng(3)
        features = np.vstack([rng.normal(size=(40, 6)), rng.normal(loc=5, size=(8, 6))])
        labels = np.array([0] * 40 + [1] * 8)
        cfg = SmoteConfig(k=5, target_ratio=0.75)
        out, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(4))
        minority = features[labels == 1]
        n_new = (out_labels == 1).sum() - 8
        assert n_new == 30 - 8  # 0.75 * 40 = 30 target
        seen = {tuple(np.round(r, 12)) for r in minority}
        k_eff = effective_neighbors(8, 5)
        dists = np.linalg.norm(minority[:, None] - minority[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        neighbor_sets = np.argsort(dists, axis=1)[:, :k_eff]
        for row, label in zip(out, out_labels):
            if label != 1 or tuple(np.round(row, 12)) in seen:
                continue
            # each synthetic lies on a segment between a base point and one of
            # its k_eff nearest same-class neighbors: residual below 1e-10
            best = np.inf
            for b in range(len(minority)):
                for nb in neighbor_sets[b]:
                    seg = minority[nb] - minority[b]
                    denom = seg @ seg
                    if denom == 0:
                        continue
                    u = np.clip((row - minority[b]) @ seg / denom, 0.0, 1.0)
                    residual = np.linalg.norm(minority[b] + u * seg - row)
                    best = min(best, residual)
            assert best < 1e-10

    def test_per_class_counts_hit_targets_exactly(self):
        rng = np.random.default_rng(5)
        features = np.vstack(
            [rng.normal(size=(50, 3)), rng.normal(size=(9, 3)), rng.normal(size=(4, 3))]
        )
        labels = np.array([0] * 50 + [1] * 9 + [2] * 4)
        cfg = SmoteConfig(target_ratio=0.5)
        _, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(6))
        counts = np.bincount(out_labels)
        np.testing.assert_array_equal(counts, [50, 25, 25])

    def test_singleton_class_skipped_with_warning(self, caplog):
        features = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
        labels = np.array([0] * 5 + [1])
        cfg = SmoteConfig(target_ratio=0.8)
        with caplog.at_level("WARNING"):
            out, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(7))
        assert (out_labels == 1).sum() == 1
        assert any("SMOTE skipped" in rec.message for rec in caplog.records)

    def test_validation_rows_rejected(self):
        features = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ContractViolation):
            smote_resample(features, labels, SmoteConfig(), rng=np.random.default_rng(0),
                           split_tags=["train", "train", "val", "train"])

    def test_deterministic_given_seed(self):
        rng_features = np.random.default_rng(8).normal(size=(30, 4))
        labels = np.array([0] * 24 + [1] * 6)
        cfg = SmoteConfig(target_ratio=0.5)
        a = smote_resample(rng_features, labels, cfg, rng=np.random.default_rng(9))
        b = smote_resample(rng_features, labels, cfg, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def smote_concat_oracle(features, labels, cfg, rng, class_names=None):
    """SMOTE as one concatenation of originals and synthetic rows, then one ``[order]`` copy."""
    counts = {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
    new_features, new_labels = [features], [labels]
    for label, target in sorted(imbalance._smote_targets(counts, cfg, class_names).items()):
        n = counts[label]
        deficit = target - n
        if deficit <= 0 or n < 2:
            continue
        pool = features[labels == label]
        k_eff = effective_neighbors(n, cfg.k)
        neighbor_idx = imbalance._neighbor_indices(pool, k_eff)
        bases = rng.integers(0, n, size=deficit)
        picks = rng.integers(0, k_eff, size=deficit)
        us = rng.random(deficit)
        neighbors = pool[neighbor_idx[bases, picks]]
        new_features.append(pool[bases] + us[:, None] * (neighbors - pool[bases]))
        new_labels.append(np.full(deficit, label, dtype=int))
    out_features = np.concatenate(new_features, axis=0)
    out_labels = np.concatenate(new_labels, axis=0)
    order = rng.permutation(out_features.shape[0])
    return out_features[order], out_labels[order]


# counts per class: a majority, minorities below half of it, a class already
# at half (at its target), a singleton (skipped) and an explicit target
ORACLE_CASES = {
    "ratio": ((60, 9, 4, 2), SmoteConfig(target_ratio=0.5)),
    "at-target": ((40, 20, 7), SmoteConfig(target_ratio=0.5)),
    "singleton": ((30, 1, 6), SmoteConfig(target_ratio=0.8)),
    "explicit": ((50, 8, 5), SmoteConfig(k=3, target_ratio=0.3, target_counts={"c2": 33})),
    "none-needed": ((10, 10), SmoteConfig(target_ratio=1.0)),
}


class TestSmoteOutput:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_concatenate_then_order_byte_for_byte(self, case, seed):
        counts, cfg = ORACLE_CASES[case]
        rng = np.random.default_rng(100 + seed)
        labels = np.repeat(np.arange(len(counts)), counts)
        rng.shuffle(labels)
        features = rng.normal(size=(len(labels), 24)) + labels[:, None]
        names = tuple(f"c{c}" for c in range(len(counts)))
        before = features.tobytes()
        out, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(seed),
                                         class_names=names)
        expected, expected_labels = smote_concat_oracle(features, labels, cfg,
                                                        np.random.default_rng(seed), names)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert out_labels.dtype == expected_labels.dtype
        assert out_labels.tobytes() == expected_labels.tobytes()
        assert features.tobytes() == before
        assert not np.shares_memory(out, features)

    def test_peak_above_the_input_is_synthetic_rows_plus_one_output(self):
        # 600 majority rows and four minorities of 30 lifted to 300: 1080
        # synthetic rows and an 1800-row output. A concatenated copy of the
        # output before the shuffle would add 1800 rows more.
        rng = np.random.default_rng(12)
        labels = np.repeat(np.arange(5), [600, 30, 30, 30, 30])
        features = rng.normal(size=(len(labels), 200)) + labels[:, None]
        cfg = SmoteConfig(target_ratio=0.5)
        (out, _), peak = traced_peak(
            lambda: smote_resample(features, labels, cfg, rng=np.random.default_rng(0)))
        assert out.shape == (1800, 200)
        synthetic = out.nbytes - features.nbytes
        assert peak < synthetic + out.nbytes + 0.25 * out.nbytes


def full_tensor_neighbors(pool, k):
    # oracle: the whole (n, n, d) difference tensor at once
    diff = pool[:, None, :] - pool[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1)[:, :k]


class TestSmoteChunking:
    @pytest.mark.parametrize("d", [24, 1927])
    def test_one_row_chunks_match_full_tensor(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        features = np.vstack([rng.normal(size=(40, d)), rng.normal(loc=2.0, size=(13, d))])
        labels = np.array([0] * 40 + [1] * 13)
        pool = features[labels == 1]
        cfg = SmoteConfig(k=5, target_ratio=0.9)

        monkeypatch.setattr(imbalance, "_DISTANCE_CHUNK_BYTES", 1)  # one row per chunk
        np.testing.assert_array_equal(
            imbalance._neighbor_indices(pool, 5), full_tensor_neighbors(pool, 5)
        )
        chunked = smote_resample(features, labels, cfg, rng=np.random.default_rng(1))

        monkeypatch.setattr(imbalance, "_neighbor_indices", full_tensor_neighbors)
        full = smote_resample(features, labels, cfg, rng=np.random.default_rng(1))
        assert np.array_equal(chunked[0], full[0])
        assert np.array_equal(chunked[1], full[1])

    def test_peak_memory_follows_the_budget(self, monkeypatch):
        # the full difference tensor would be 100 * 100 * 200 * 8 bytes = 16 MB
        pool = np.random.default_rng(0).normal(size=(100, 200))
        monkeypatch.setattr(imbalance, "_DISTANCE_CHUNK_BYTES", 2**20)
        _, peak = traced_peak(lambda: imbalance._neighbor_indices(pool, 5))
        assert peak < 2 * 2**20


class TestTimeStretch:
    @pytest.mark.parametrize("rate", [0.8, 1.0, 1.25])
    def test_output_length(self, rate):
        samples = sine(220, seconds=0.5)
        assert len(time_stretch(samples, rate)) == round(len(samples) * rate)

    @pytest.mark.parametrize("rate", [0.8, 1.25])
    def test_short_signal_takes_nearest_samples(self, rate):
        # one sample shorter than frame + 2 * search = 1536, with more output
        # than one frame, so only the input length selects the fallback
        n = 1535
        samples = np.random.default_rng(5).normal(size=n)
        out = time_stretch(samples, rate)
        idx = np.minimum((np.arange(round(n * rate)) / rate).astype(int), n - 1)
        np.testing.assert_array_equal(out, samples[idx])

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            time_stretch(sine(220, seconds=0.1), rate)

    @pytest.mark.parametrize("rate", [0.8, 1.0, 1.25])
    def test_sine_keeps_its_dft_peak(self, rate):
        out = time_stretch(sine(441), rate)
        spectrum = np.abs(np.fft.rfft(out * np.hanning(len(out))))
        # the bin nearest 441 Hz at the output's length
        assert spectrum.argmax() == round(441 * len(out) / SR)


class TestTransforms:
    def test_zero_probability_is_identity(self, tmp_path, monkeypatch):
        source, rows = audio_rows(tmp_path, 3)
        transformed = []
        monkeypatch.setattr(training, "apply_transforms",
                            lambda *args, **kwargs: transformed.append(args))
        cfg = AugmentConfig(base_probability=0.0)
        out = source.epoch_features(rows, np.random.default_rng(0), cfg, CLASS_NAMES)
        assert transformed == []
        np.testing.assert_array_equal(out, source.base_features(rows))

    def test_rows_the_transforms_leave_unchanged_reuse_their_base_row(self, tmp_path,
                                                                      monkeypatch):
        # every gate fires, and every transform is the identity: noise, shift and
        # pitch ranges of 0, class overrides included
        source, rows = audio_rows(tmp_path, 4)
        cfg = AugmentConfig(base_probability=1.0, class_probability={"c0": 1.0},
                            noise_level=0.0, max_shift_fraction=0.0,
                            pitch_range_semitones=0.0, class_pitch_range={"c0": 0.0})
        monkeypatch.setattr(training, "extract", lambda *args: pytest.fail("extract called"))
        rng, serial = np.random.default_rng(4), np.random.default_rng(4)
        out = source.epoch_features(rows, rng, cfg, CLASS_NAMES)
        assert out.tobytes() == source.base_features(rows).tobytes()
        for row in rows:  # the draws of a loop that extracts every fired row
            assert serial.random() < 1.0
            apply_transforms(features_module.read_wav(row.path).samples, cfg, serial, "c0")
        assert rng.bit_generator.state == serial.bit_generator.state

    def test_circular_shift_preserves_multiset(self):
        samples = sine(150)
        shifted = circular_shift(samples, 1234)
        assert len(shifted) == len(samples)
        np.testing.assert_array_equal(np.sort(shifted), np.sort(samples))
        np.testing.assert_array_equal(shifted[1234:2468], samples[:1234])

    def test_noise_rms_bounded(self):
        samples = sine(200)
        level = 1e-3
        noisy = add_noise(samples, level, np.random.default_rng(1))
        peak = np.abs(samples).max()
        rms_delta = abs(
            np.sqrt(np.mean(noisy**2)) - np.sqrt(np.mean(samples**2))
        )
        assert rms_delta <= 3 * level * peak
        assert len(noisy) == len(samples)

    def test_pitch_shift_octave_up_moves_dft_peak(self):
        samples = sine(100)
        shifted = pitch_shift(samples, 12.0)
        assert len(shifted) == len(samples)
        spectrum = np.abs(np.fft.rfft(shifted * np.hanning(len(shifted))))
        freqs = np.fft.rfftfreq(len(shifted), 1 / SR)
        bin_width = SR / len(shifted)
        assert abs(freqs[spectrum.argmax()] - 200.0) <= bin_width + 1e-9

    def test_pitch_shift_preserves_length_for_any_semitones(self):
        rng = np.random.default_rng(2)
        samples = sine(300, seconds=0.5)
        for semis in (-2.0, -0.7, 0.3, 1.9):
            out = pitch_shift(samples, semis)
            assert len(out) == len(samples)

    @pytest.mark.parametrize("semitones", [12.0, -12.0, 1.9, -1.9, 0.3, -0.7, 2.37, -2.37, 0.005])
    def test_pitch_shift_matches_per_call_design(self, semitones):
        samples = np.random.default_rng(4).normal(size=6000)
        expected = pitch_shift_oracle(samples, semitones)
        for _ in range(2):
            np.testing.assert_array_equal(pitch_shift(samples, semitones), expected)

    def test_oracle_draws_cover_every_kind_of_ratio(self):
        # the draws above: up and down shifts, each with a ratio that the
        # denominator limit keeps and one that it moves, and one shift that
        # collapses to 1/1
        kinds = set()
        for semitones in (12.0, -12.0, 1.9, -1.9, 0.3, -0.7, 2.37, -2.37, 0.005):
            ratio = pitch_ratio(semitones)
            moved = ratio != Fraction(pitch_k(semitones), 10000)
            kinds.add("unit" if ratio == 1 else (semitones > 0, moved))
        assert kinds == {(True, True), (True, False), (False, True), (False, False), "unit"}

    def test_every_ratio_within_twelve_semitones_is_bounded(self):
        # every k that +/-12 semitones give; the default +/-2 give 8909-11225
        assert [pitch_k(s) for s in (12.0, 2.0, -2.0, -12.0)] == [5000, 8909, 11225, 20000]
        for k in range(5000, 20001):
            ratio = Fraction(k, 10000).limit_denominator(1000)
            taps = 20 * max(ratio.numerator, ratio.denominator) + 1
            assert ratio.denominator <= 1000
            assert taps <= (22421 if 8909 <= k <= 11225 else 39981)
            assert 1200 * abs(math.log2(ratio / Fraction(k, 10000))) <= 0.87
            assert (ratio == 1) == (9995 <= k <= 10005)

    def test_design_cache_stays_bounded(self, monkeypatch):
        # only the routing matters here, so the filtering itself is stubbed
        calls = []

        def fake_resample_poly(x, up, down, window=None):
            calls.append((up, down, window))
            return x[: len(x) * up // down]

        monkeypatch.setattr(scipy.signal, "resample_poly", fake_resample_poly)
        monkeypatch.setattr(scipy.signal, "sosfiltfilt",
                            lambda sos, x, padlen: x)
        lowpass = features_module._resample_lowpass
        lowpass.cache_clear()
        rng = np.random.default_rng(8)
        cfg = FeatureConfig()

        def preprocess_corpus():
            for rate in (4000, 10000, 44100):
                features_module.preprocess(
                    features_module.AudioSignal(rng.normal(size=rate // 10), rate), cfg)

        preprocess_corpus()
        # 4 and 10 kHz share max rate 441 at 22.05 kHz; 44.1 kHz is 2
        assert lowpass.cache_info().currsize == 2
        before = lowpass.cache_info()
        del calls[:]
        samples = rng.normal(size=64)
        for semitones in rng.uniform(-4.0, 4.0, size=500):
            pitch_shift(samples, semitones)
        assert lowpass.cache_info() == before
        assert all(window is None for _, _, window in calls)
        # +/-4 semitones: ratios within [0.79, 1.26] with denominators of at most 1000
        assert max(max(up, down) for up, down, _ in calls) <= 1260
        preprocess_corpus()
        info = lowpass.cache_info()
        lowpass.cache_clear()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)

    def test_augment_preserves_length(self):
        rng = np.random.default_rng(3)
        samples = sine(250)
        for _ in range(5):
            out = apply_transforms(samples, AugmentConfig(), rng)
            assert len(out) == len(samples)

    def test_class_probability_override(self):
        cfg = AugmentConfig()
        assert cfg.probability_for("URTI") == 0.6
        assert cfg.probability_for("COPD") == cfg.base_probability
        assert cfg.pitch_range_for("URTI") == 1.0
        assert cfg.pitch_range_for(None) == cfg.pitch_range_semitones

    def test_empty_signal_rejected(self, tmp_path):
        # the gate fires for every row, so the source needs no base row
        source = training.AudioFeatureSource(FeatureConfig(), {})
        rows = wav_rows(tmp_path, 1, seconds=0.0)
        with pytest.raises(DataError, match="empty audio file"):
            source.epoch_features(rows, np.random.default_rng(0),
                                  AugmentConfig(base_probability=1.0), CLASS_NAMES)

    def test_validation_tag_rejected(self, tmp_path):
        # the guard does not wait for the gate: a row it would skip is refused too
        source, rows = audio_rows(tmp_path, 2)
        rows[1] = IndexRow(path=rows[1].path, patient_id="1", label=0, split="val")
        with pytest.raises(ContractViolation):
            source.epoch_features(rows, np.random.default_rng(0),
                                  AugmentConfig(base_probability=0.0), CLASS_NAMES)


def make_index(counts, split="train"):
    rows = []
    i = 0
    for label, n in enumerate(counts):
        for _ in range(n):
            rows.append(IndexRow(path=f"f{i}.wav", patient_id=str(i), label=label,
                                 split=split))
            i += 1
    return DatasetIndex(rows=rows, class_names=tuple(f"c{k}" for k in range(len(counts))))


class TestStage1Subset:
    def test_counts_match_minority_plus_cap(self):
        # training-fold counts shaped like a 4/5 split of the small classes
        index = make_index([634, 30, 28, 18, 13, 10])
        subset = build_stage1_subset(index, majority_class=0, cap=50,
                                     rng=np.random.default_rng(0))
        assert len(subset) == (30 + 28 + 18 + 13 + 10) + 50

    def test_cap_above_majority_keeps_everything(self):
        index = make_index([40, 10])
        subset = build_stage1_subset(index, 0, cap=100, rng=np.random.default_rng(1))
        assert len(subset) == 50

    def test_same_seed_same_subset(self):
        index = make_index([200, 20])
        a = build_stage1_subset(index, 0, cap=50, rng=np.random.default_rng(7))
        b = build_stage1_subset(index, 0, cap=50, rng=np.random.default_rng(7))
        assert [r.path for r in a.rows] == [r.path for r in b.rows]

    def test_validation_rows_rejected(self):
        index = make_index([20, 10], split="val")
        with pytest.raises(ContractViolation):
            build_stage1_subset(index, 0, cap=50, rng=np.random.default_rng(0))

    def test_missing_majority_class_rejected(self):
        index = make_index([5, 5])
        with pytest.raises(ValueError):
            build_stage1_subset(index, 3, cap=50, rng=np.random.default_rng(0))
