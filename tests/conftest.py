import tracemalloc

import numpy as np

from kan_ausculta.dataset import DatasetIndex, IndexRow

SYNTH_CLASS_NAMES = ("Healthy", "COPD", "Bronchiectasis", "Bronchiolitis", "Pneumonia", "URTI")

# class proportions of the six-class respiratory corpus scaled to 900 samples
SYNTH_COUNTS = {
    "COPD": 778,
    "Pneumonia": 36,
    "Healthy": 34,
    "URTI": 23,
    "Bronchiectasis": 16,
    "Bronchiolitis": 13,
}


def make_synthetic_dataset(seed=0, d_feat=24, anchor=6.0, rare_offset=4.0):
    """Gaussian class clusters mimicking the corpus imbalance.

    The two rarest classes sit near their frequently-confused partners
    (Bronchiectasis near Pneumonia, Bronchiolitis near URTI) so that naive
    training under-serves them while imbalance-aware training recovers them.
    Returns (DatasetIndex, feature matrix).
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(4, d_feat))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = {}
    for i, name in enumerate(("Healthy", "COPD", "Pneumonia", "URTI")):
        means[name] = anchor * dirs[i]
    for partner, name in (("Pneumonia", "Bronchiectasis"), ("URTI", "Bronchiolitis")):
        offset = rng.normal(size=d_feat)
        offset /= np.linalg.norm(offset)
        means[name] = means[partner] + rare_offset * offset

    rows, features = [], []
    sample = 0
    for label, name in enumerate(SYNTH_CLASS_NAMES):
        points = means[name] + rng.normal(size=(SYNTH_COUNTS[name], d_feat))
        for point in points:
            rows.append(IndexRow(path=f"synthetic:{sample}", patient_id=str(sample), label=label))
            features.append(point)
            sample += 1
    index = DatasetIndex(rows=rows, class_names=SYNTH_CLASS_NAMES)
    return index, np.array(features)


def make_small_dataset(seed=0, d_feat=8, per_class=(40, 12, 10), spread=4.0):
    """A fast three-class feature dataset for orchestration tests."""
    rng = np.random.default_rng(seed)
    names = tuple(f"class{k}" for k in range(len(per_class)))
    dirs = rng.normal(size=(len(per_class), d_feat))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rows, features = [], []
    sample = 0
    for label, n in enumerate(per_class):
        points = spread * dirs[label] + rng.normal(size=(n, d_feat))
        for point in points:
            rows.append(IndexRow(path=f"small:{sample}", patient_id=str(sample), label=label))
            features.append(point)
            sample += 1
    return DatasetIndex(rows=rows, class_names=names), np.array(features)


def traced_peak(fn):
    """Call ``fn()`` under ``tracemalloc``; returns (its result, the traced peak in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
