"""Output checks. Each returns a list of failure messages; empty means correct."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from kan_ausculta.errors import DataError, FingerprintError
from kan_ausculta.features import load_feature_cache
from kan_ausculta.model import load_checkpoint
from kan_ausculta.report import load_report

# the feature rows of the seed-independent corpus.ANCHORS recordings at this
# commit, written by make_reference.py. A value may move by a float
# reordering (about 1e-15 of itself, measured with two BLAS threads) but not
# by more than REFERENCE_RTOL of itself plus REFERENCE_FLOOR of the row's
# largest value; the values of a row span 1e-12 to 1e5.
REFERENCE_ROWS = Path(__file__).resolve().parent / "extract-reference.npz"
REFERENCE_RTOL = 1e-6
REFERENCE_FLOOR = 1e-12

# acceptance criterion 9: full preset, config seed 7, the 900 x 24 fixture
REFERENCE_F1 = 0.9727502939188436
REFERENCE_EPOCHS = [13, 11, 9, 12, 9]
CRITERION9_FLOOR = 0.95


def reproduces_reference(report) -> bool:
    return (
        report.pooled.macro_f1 == REFERENCE_F1
        and [f.epochs_run for f in report.folds] == REFERENCE_EPOCHS
    )


def check_folds(report, folds: int) -> list:
    failures = []
    if report.incomplete:
        failures.append(f"incomplete folds: {report.incomplete}")
    if len(report.folds) != folds:
        failures.append(f"{len(report.folds)} of {folds} folds completed")
    return failures


def check_cv_features(report, folds: int) -> list:
    failures = check_folds(report, folds)
    if not report.pooled.macro_f1 >= CRITERION9_FLOOR:
        failures.append(f"pooled macro F1 {report.pooled.macro_f1} below {CRITERION9_FLOOR}")
    return failures


def check_cv_audio(exit_code: int, out_dir, folds: int, fingerprint: str):
    """Returns (failures, the loaded report or None)."""
    if exit_code != 0:
        return [f"train exited with code {exit_code}"], None
    report_path = Path(out_dir) / "report.json"
    try:
        report = load_report(report_path)
    except DataError as exc:
        return [str(exc)], None
    failures = check_folds(report, folds)
    if report.to_dict() != json.loads(report_path.read_text()):
        failures.append("report.json does not round-trip through load_report")
    for fold in range(folds):
        try:
            load_checkpoint(Path(out_dir) / f"model_fold{fold}.npz", fingerprint)
        except (OSError, KeyError, FingerprintError) as exc:
            failures.append(f"checkpoint of fold {fold}: {exc}")
    return failures, report


def check_reference_rows(paths, matrix, reference=REFERENCE_ROWS) -> list:
    """Compare the rows of the reference recordings with the committed ones."""
    with np.load(reference) as data:
        names, expected = [str(n) for n in data["names"]], data["rows"]
    where = {Path(p).name: i for i, p in enumerate(paths)}
    failures = []
    for name, ref in zip(names, expected):
        if name not in where:
            failures.append(f"reference recording {name} is not in the feature cache")
            continue
        got = matrix[where[name]]
        scale = float(np.max(np.abs(ref)))
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=REFERENCE_RTOL,
                                                     atol=REFERENCE_FLOOR * scale):
            failures.append(f"features of {name} differ from {Path(reference).name}")
    return failures


def check_feature_cache(exit_code: int, cache_path, fingerprint: str, rows: int, dim: int,
                        reference=None):
    """Returns (failures, matrix checksum or None); ``reference`` as in check_reference_rows."""
    if exit_code != 0:
        return [f"extract exited with code {exit_code}"], None
    try:
        _, paths, matrix, _ = load_feature_cache(cache_path, expected_fingerprint=fingerprint)
    except (OSError, DataError, FingerprintError) as exc:
        return [f"feature cache rejected: {exc}"], None
    failures = []
    if matrix.shape != (rows, dim) or len(paths) != rows:
        failures.append(f"feature matrix shape {matrix.shape}, expected ({rows}, {dim})")
    if not np.all(np.isfinite(matrix)):
        failures.append("feature matrix has non-finite values")
    if reference is not None:
        failures += check_reference_rows(paths, matrix, reference)
    return failures, matrix_checksum(matrix)


def matrix_checksum(matrix) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype=float).tobytes()).hexdigest()[:16]
