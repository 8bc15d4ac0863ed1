import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kan_ausculta.evalkit import (
    _midranks,
    average_precision,
    calibration_bins,
    classification_metrics,
    confusion,
    roc_auc_ovr,
    stratified_kfold,
)

ICBHI_COUNTS = {0: 793, 1: 37, 2: 35, 3: 23, 4: 16, 5: 13}


def labels_from_counts(counts):
    return np.concatenate([np.full(n, c) for c, n in counts.items()])


class TestStratifiedKfold:
    def test_per_class_fold_counts_differ_by_at_most_one(self):
        labels = labels_from_counts(ICBHI_COUNTS)
        assignment = stratified_kfold(labels, 5, seed=0)
        for cls, total in ICBHI_COUNTS.items():
            per_fold = [
                int(((labels == cls) & (assignment.fold_of == f)).sum()) for f in range(5)
            ]
            assert sum(per_fold) == total
            assert max(per_fold) - min(per_fold) <= 1

    def test_majority_class_multiset(self):
        labels = labels_from_counts(ICBHI_COUNTS)
        assignment = stratified_kfold(labels, 5, seed=1)
        per_fold = sorted(
            int(((labels == 0) & (assignment.fold_of == f)).sum()) for f in range(5)
        )
        assert per_fold == [158, 158, 159, 159, 159]

    def test_rarest_class_multiset(self):
        labels = labels_from_counts(ICBHI_COUNTS)
        assignment = stratified_kfold(labels, 5, seed=2)
        per_fold = sorted(
            int(((labels == 5) & (assignment.fold_of == f)).sum()) for f in range(5)
        )
        assert per_fold == [2, 2, 3, 3, 3]

    def test_same_seed_identical(self):
        labels = labels_from_counts(ICBHI_COUNTS)
        a = stratified_kfold(labels, 5, seed=3)
        b = stratified_kfold(labels, 5, seed=3)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_warns_on_tiny_class(self, caplog):
        labels = np.array([0] * 20 + [1] * 3)
        with caplog.at_level("WARNING"):
            stratified_kfold(labels, 5, seed=0)
        assert any("some folds get none" in rec.message for rec in caplog.records)

    def test_k_larger_than_samples_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1]), 5, seed=0)


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        cm = confusion(y, y, 3)
        assert np.all(cm.counts == np.diag([2, 2, 1]))
        np.testing.assert_allclose(np.diag(cm.normalized), 1.0)

    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 2]])

    def test_normalized_rows_sum_to_one_or_zero(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 3)  # class 2 absent
        sums = cm.normalized.sum(axis=1)
        np.testing.assert_allclose(sums[:2], 1.0)
        assert sums[2] == 0.0
        assert cm.zero_rows == [2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)


class TestClassificationMetrics:
    def test_hand_case_macro_f1(self):
        cm = confusion([0, 0, 1, 1], [0, 0, 0, 1], 2)  # counts [[2, 0], [1, 1]]
        np.testing.assert_array_equal(cm.counts, [[2, 0], [1, 1]])
        m = classification_metrics(cm)
        assert m.f1[0] == pytest.approx(0.8)
        assert m.f1[1] == pytest.approx(2 / 3)
        assert m.macro_f1 == pytest.approx(11 / 15)
        assert m.accuracy == pytest.approx(0.75)

    def test_diagonal_gives_all_ones(self):
        cm = confusion([0, 1, 2], [0, 1, 2], 3)
        m = classification_metrics(cm)
        assert m.macro_f1 == 1.0 and m.accuracy == 1.0
        assert np.all(m.precision == 1.0) and np.all(m.recall == 1.0)

    def test_absent_class_flagged_and_scored_zero(self):
        cm = confusion([0, 0, 1], [0, 0, 1], 3)  # class 2 never appears
        m = classification_metrics(cm)
        assert m.f1[2] == 0.0
        flagged = {(c, metric) for c, metric in m.zero_division_flags}
        assert (2, "precision") in flagged and (2, "recall") in flagged

    def test_weighted_average_uses_support(self):
        cm = confusion([0, 0, 0, 1], [0, 0, 0, 0], 2)
        m = classification_metrics(cm)
        expected = (3 / 4) * m.f1[0] + (1 / 4) * m.f1[1]
        assert m.weighted_f1 == pytest.approx(expected)


def brute_force_auc(y_true, scores, cls):
    pos = scores[y_true == cls]
    neg = scores[y_true != cls]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestMidranks:
    """``_midranks`` keeps the bytes of ``scipy.stats.rankdata``, so every AUC does."""

    @staticmethod
    def assert_same_bytes(values):
        import scipy.stats

        values = np.asarray(values, dtype=float)
        ours, theirs = _midranks(values), scipy.stats.rankdata(values)
        assert ours.dtype == theirs.dtype == np.float64
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    @pytest.mark.parametrize("values", [
        [0.3, 0.1, 0.2, 0.9],
        [0.5, 0.1, 0.5, 0.5, 0.1, 0.9, 0.5],
        [0.0, -0.0, 1.0, 1.0],
        [0.25] * 9,
        [0.7],
        [],
        [0.2, np.nan, 0.1],
    ], ids=["untied", "tied", "signed-zero", "all-equal", "single", "empty", "nan"])
    def test_matches_rankdata(self, values):
        self.assert_same_bytes(values)

    def test_matches_rankdata_on_random_draws(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(1, 400))
            if trial % 2:
                values = rng.integers(0, int(rng.integers(1, 12)), size=n) / 8.0
            else:
                values = rng.random(n)
            self.assert_same_bytes(values)


class TestRocAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        per_class, macro = roc_auc_ovr(y, probs)
        assert per_class == [1.0, 1.0]
        assert macro == 1.0

    def test_constant_scores_give_half(self):
        y = np.array([0, 0, 1, 1, 1])
        probs = np.full((5, 2), 0.5)
        per_class, macro = roc_auc_ovr(y, probs)
        assert per_class == [0.5, 0.5]

    def test_one_inversion_toy_case(self):
        # positives ranked 1st and 3rd of four: one of four pairs inverted
        y = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        probs = np.stack([1 - scores, scores], axis=1)
        per_class, _ = roc_auc_ovr(y, probs)
        assert per_class[1] == pytest.approx(0.75)

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(5, 200))
            n_classes = int(rng.integers(2, 5))
            y = rng.integers(0, n_classes, size=n)
            probs = rng.random((n, n_classes))
            if rng.random() < 0.3:
                probs = np.round(probs, 1)  # force ties, exercise midranks
            per_class, _ = roc_auc_ovr(y, probs)
            for c in range(n_classes):
                expected = brute_force_auc(y, probs[:, c], c)
                if expected is None:
                    assert per_class[c] is None
                else:
                    assert per_class[c] == pytest.approx(expected, abs=1e-12)

    def test_single_class_macro_is_none(self):
        per_class, macro = roc_auc_ovr(np.zeros(4, dtype=int), np.ones((4, 1)))
        assert per_class == [None]
        assert macro is None


class TestAveragePrecision:
    def test_perfect_ranking(self):
        y = np.array([1, 1, 0, 0])
        probs = np.stack([1 - np.array([0.9, 0.8, 0.2, 0.1]),
                          np.array([0.9, 0.8, 0.2, 0.1])], axis=1)
        ap = average_precision(y, probs)
        assert ap[1] == pytest.approx(1.0)

    def test_single_positive_ranked_second(self):
        y = np.array([0, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        probs = np.stack([1 - scores, scores], axis=1)
        ap = average_precision(y, probs)
        assert ap[1] == pytest.approx(0.5)

    def test_no_positives_reported_absent(self):
        y = np.zeros(4, dtype=int)
        probs = np.stack([np.ones(4), np.zeros(4)], axis=1)
        ap = average_precision(y, probs)
        assert ap[1] is None

    def test_brute_force_sweep(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=50)
        scores = rng.random(50)
        probs = np.stack([1 - scores, scores], axis=1)
        ap = average_precision(y, probs)
        order = np.argsort(-scores)
        hits = (y[order] == 1).astype(float)
        n_pos = hits.sum()
        expected = 0.0
        prev_recall = 0.0
        tp = 0.0
        for i, hit in enumerate(hits, start=1):
            tp += hit
            recall = tp / n_pos
            expected += (recall - prev_recall) * (tp / i)
            prev_recall = recall
        assert ap[1] == pytest.approx(expected, abs=1e-12)


class TestCalibration:
    def test_confident_and_correct(self):
        y = np.zeros(10, dtype=int)
        probs = np.tile([0.99, 0.01], (10, 1))
        report = calibration_bins(y, probs, 10)
        assert report.bin_count[-1] == 10
        assert report.ece == pytest.approx(0.01, abs=1e-12)

    def test_confident_and_wrong(self):
        y = np.ones(10, dtype=int)
        probs = np.tile([0.99, 0.01], (10, 1))
        report = calibration_bins(y, probs, 10)
        assert report.ece == pytest.approx(0.99, abs=1e-12)

    def test_calibrated_synthetic_stream_has_small_ece(self):
        rng = np.random.default_rng(2)
        n = 10_000
        # draw random confidence vectors, then sample labels from them:
        # perfectly calibrated by construction
        raw = rng.random((n, 4)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        cumulative = probs.cumsum(axis=1)
        u = rng.random(n)
        y = (u[:, None] < cumulative).argmax(axis=1)
        report = calibration_bins(y, probs, 10)
        assert report.ece <= 0.02

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            calibration_bins(np.zeros(2, dtype=int), np.ones((2, 1)), 0)


class TestPermutationInvariance:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_metrics_invariant_to_sample_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        y = rng.integers(0, 3, size=n)
        probs = rng.random((n, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        perm = rng.permutation(n)

        cm_a = classification_metrics(confusion(y, probs.argmax(axis=1), 3))
        cm_b = classification_metrics(confusion(y[perm], probs[perm].argmax(axis=1), 3))
        assert cm_a.macro_f1 == pytest.approx(cm_b.macro_f1, abs=1e-14)

        auc_a, _ = roc_auc_ovr(y, probs)
        auc_b, _ = roc_auc_ovr(y[perm], probs[perm])
        for a, b in zip(auc_a, auc_b):
            if a is None:
                assert b is None
            else:
                assert a == pytest.approx(b, abs=1e-12)
