"""The 900 x 24 Gaussian feature fixture of acceptance criterion 9.

This reproduces ``tests/conftest.make_synthetic_dataset(seed=0)`` bit for
bit (a self-test compares the two). The benchmark keeps its own copy so
that a later edit to the test helpers cannot change the benchmark's input.
"""

from __future__ import annotations

import numpy as np

from kan_ausculta.dataset import DatasetIndex, IndexRow

CLASS_NAMES = ("Healthy", "COPD", "Bronchiectasis", "Bronchiolitis", "Pneumonia", "URTI")

# six-class respiratory corpus proportions scaled to 900 rows
COUNTS = {
    "COPD": 778,
    "Pneumonia": 36,
    "Healthy": 34,
    "URTI": 23,
    "Bronchiectasis": 16,
    "Bronchiolitis": 13,
}


def synthetic_dataset(seed=0, d_feat=24, anchor=6.0, rare_offset=4.0):
    """Returns (DatasetIndex, feature matrix)."""
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
    for label, name in enumerate(CLASS_NAMES):
        for point in means[name] + rng.normal(size=(COUNTS[name], d_feat)):
            sample = len(rows)
            rows.append(IndexRow(path=f"synthetic:{sample}", patient_id=str(sample), label=label))
            features.append(point)
    return DatasetIndex(rows=rows, class_names=CLASS_NAMES), np.array(features)
