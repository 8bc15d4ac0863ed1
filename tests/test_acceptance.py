"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 11 (real-corpus plausibility band) only
runs when KAN_AUSCULTA_ICBHI_DIR and KAN_AUSCULTA_ICBHI_DIAGNOSIS point at
a downloaded corpus.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

from conftest import make_synthetic_dataset
from kan_ausculta.config import load_config
from kan_ausculta.dataset import IndexRow
from kan_ausculta.errors import ContractViolation
from kan_ausculta.evalkit import (
    average_precision,
    calibration_bins,
    classification_metrics,
    confusion,
    roc_auc_ovr,
    stratified_kfold,
)
from kan_ausculta.features import (
    AudioSignal,
    FeatureConfig,
    default_layout,
    extract,
    preprocess,
    streams,
)
from kan_ausculta.imbalance import (
    AugmentConfig,
    SmoteConfig,
    effective_neighbors,
    smote_resample,
)
from kan_ausculta.model import ModelConfig, build_model
from kan_ausculta.optim import (
    EarlyStopState,
    FocalParams,
    OptimConfig,
    SchedConfig,
    SchedulerState,
    adamw_init,
    adamw_step,
    early_stop,
    finite_diff_check,
    focal_loss,
    plateau_step,
)
from kan_ausculta.splines import bspline_basis, make_uniform_grid
from kan_ausculta.training import ArrayFeatureSource, AudioFeatureSource, Scaler, run_cv


def _report(number: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict}: {description}", file=sys.stderr)
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d_feat = int(rng.integers(3, 9))
        classes = int(rng.integers(3, 7))
        sizes = ModelConfig(
            lstm_hidden=int(rng.integers(3, 7)), kan_hidden=int(rng.integers(3, 7)), dropout=0.0
        )
        model = build_model(d_feat, classes, rng, sizes)
        sample = rng.normal(size=d_feat)
        target = int(rng.integers(classes))
        err = finite_diff_check(model, sample, target, h=1e-5, fp=FocalParams(), rng=rng)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    _report(
        1,
        f"end-to-end gradients match finite differences "
        f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s)",
        worst < 1e-4 and elapsed < 60.0,
    )


def test_criterion_02_spline_numerics():
    kv = make_uniform_grid(-1, 1, 3, 3)
    xs = np.random.default_rng(1).uniform(-1, 1, size=10_000)
    unity_err = np.max(np.abs(bspline_basis(xs, kv).sum(axis=-1) - 1.0))

    from test_splines import naive_bspline

    center = kv.knots[4]
    values = bspline_basis(center, kv)
    oracle = np.array([naive_bspline(center, 3, i, kv.knots) for i in range(kv.n_basis)])
    cardinal_err = np.max(np.abs(values - oracle))
    cardinal_ok = (
        abs(values[2] - 2.0 / 3.0) < 1e-12
        and abs(values[1] - 1.0 / 6.0) < 1e-12
        and abs(values[3] - 1.0 / 6.0) < 1e-12
    )
    _report(
        2,
        f"partition of unity at 1e4 points (err {unity_err:.2e} < 1e-12) and "
        f"cardinal cubic values 2/3, 1/6 vs recursion oracle (err {cardinal_err:.2e})",
        unity_err < 1e-12 and cardinal_err < 1e-12 and cardinal_ok,
    )


def test_criterion_03_loss_reductions():
    rng = np.random.default_rng(3)
    ce = FocalParams(alpha=1.0, gamma=0.0)
    worst = 0.0
    for _ in range(1000):
        raw = rng.random(6) + 1e-3
        probs = raw / raw.sum()
        target = int(rng.integers(6))
        loss, _ = focal_loss(probs, target, ce)
        worst = max(worst, abs(loss - (-math.log(probs[target]))))

    probs = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])
    loss, _ = focal_loss(probs, 0, FocalParams(alpha=0.75, gamma=2.0))
    oracle = 0.75 * (1.0 - 0.9) ** 2 * -math.log(0.9)  # = 7.902e-4
    rel = abs(loss - oracle) / oracle
    _report(
        3,
        f"focal(alpha=1, gamma=0) equals cross-entropy (err {worst:.2e} < 1e-12); "
        f"FL(0.9; 0.75, 2) = {loss:.6e} vs oracle {oracle:.6e} (rel {rel:.2e} < 1e-6)",
        worst < 1e-12 and rel < 1e-6,
    )


def test_criterion_04_optimizer_traces():
    params = {"w": np.array([1.0])}
    st = adamw_init(params, 0.1, OptimConfig(weight_decay=0.0))
    adamw_step(params, {"w": np.array([1.0])}, st)
    gradient_case = abs(params["w"][0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-12

    params = {"w": np.array([1.0])}
    st = adamw_init(params, 0.1, OptimConfig(weight_decay=0.1))
    adamw_step(params, {"w": np.zeros(1)}, st)
    decay_case = abs(params["w"][0] - 0.99) < 1e-12

    sched = SchedulerState(lr=1.0, cfg=SchedConfig(patience=4))
    plateau_step(sched, 0.7)
    lrs = [plateau_step(sched, 0.65) for _ in range(5)]
    sched_case = lrs == [1.0, 1.0, 1.0, 1.0, 0.5]

    stopper = EarlyStopState(patience=7, threshold=1e-4)
    early_stop(stopper, 0.7, snapshot="best", epoch=1)
    outcomes = [
        early_stop(stopper, 0.69, snapshot=f"stale{k}", epoch=1 + k) for k in range(1, 8)
    ]
    stop_case = outcomes == [False] * 6 + [True] and stopper.best_snapshot == "best"

    _report(
        4,
        "AdamW hand cases exact within 1e-12; plateau halves after patience-4 "
        "exhaustion; early stop fires on the 7th stale epoch returning the best snapshot",
        gradient_case and decay_case and sched_case and stop_case,
    )


def test_criterion_05_smote_geometry():
    rng = np.random.default_rng(5)
    features = np.vstack(
        [rng.normal(size=(60, 8)), rng.normal(loc=4.0, size=(7, 8))]
    )
    labels = np.array([0] * 60 + [1] * 7)
    cfg = SmoteConfig(k=5, target_ratio=0.5)
    out, out_labels = smote_resample(features, labels, cfg, rng=np.random.default_rng(6))

    minority = features[labels == 1]
    k_eff = effective_neighbors(7, 5)
    dists = np.linalg.norm(minority[:, None] - minority[None, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    neighbor_sets = np.argsort(dists, axis=1)[:, :k_eff]
    originals = {tuple(np.round(r, 12)) for r in minority}

    worst_residual = 0.0
    synthetic_count = 0
    for row, label in zip(out, out_labels):
        if label != 1 or tuple(np.round(row, 12)) in originals:
            continue
        synthetic_count += 1
        best = np.inf
        for b in range(len(minority)):
            for nb in neighbor_sets[b]:
                seg = minority[nb] - minority[b]
                denom = seg @ seg
                if denom == 0:
                    continue
                u = np.clip((row - minority[b]) @ seg / denom, 0.0, 1.0)
                best = min(best, np.linalg.norm(minority[b] + u * seg - row))
        worst_residual = max(worst_residual, best)

    k_rule = (
        effective_neighbors(3, 5) == 2
        and effective_neighbors(7, 5) == 5
        and effective_neighbors(100, 5) == 5
    )
    _report(
        5,
        f"{synthetic_count} synthetics all on base-to-neighbor segments "
        f"(worst residual {worst_residual:.2e} < 1e-10); effective k = min(5, n-1)",
        synthetic_count > 0 and worst_residual < 1e-10 and k_rule,
    )


def test_criterion_06_stratification():
    counts = {0: 793, 1: 37, 2: 35, 3: 23, 4: 16, 5: 13}
    labels = np.concatenate([np.full(n, c) for c, n in counts.items()])
    assignment = stratified_kfold(labels, 5, seed=0)
    spread_ok = True
    for cls in counts:
        per_fold = [int(((labels == cls) & (assignment.fold_of == f)).sum()) for f in range(5)]
        if max(per_fold) - min(per_fold) > 1:
            spread_ok = False
    copd = sorted(int(((labels == 0) & (assignment.fold_of == f)).sum()) for f in range(5))
    rare = sorted(int(((labels == 5) & (assignment.fold_of == f)).sum()) for f in range(5))
    _report(
        6,
        f"per-class fold counts differ by <= 1; COPD multiset {copd}, "
        f"Bronchiolitis multiset {rare}",
        spread_ok and copd == [158, 158, 159, 159, 159] and rare == [2, 2, 3, 3, 3],
    )


def test_criterion_07_metric_oracles():
    cm = confusion([0, 0, 1, 1], [0, 0, 0, 1], 2)
    metrics = classification_metrics(cm)
    hand_case = abs(metrics.macro_f1 - 11.0 / 15.0) < 1e-12

    rng = np.random.default_rng(7)
    auc_ok = True
    for _ in range(25):
        n = int(rng.integers(5, 201))
        n_classes = int(rng.integers(2, 5))
        y = rng.integers(0, n_classes, size=n)
        probs = rng.random((n, n_classes))
        if rng.random() < 0.3:
            probs = np.round(probs, 1)
        per_class, _ = roc_auc_ovr(y, probs)
        for c in range(n_classes):
            pos = probs[y == c, c]
            neg = probs[y != c, c]
            if len(pos) == 0 or len(neg) == 0:
                auc_ok &= per_class[c] is None
                continue
            wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
            brute = wins / (len(pos) * len(neg))
            auc_ok &= abs(per_class[c] - brute) < 1e-12

    scores = np.array([0.9, 0.8, 0.2, 0.1])
    ap = average_precision(np.array([0, 1, 0, 0]), np.stack([1 - scores, scores], axis=1))
    ap_ok = abs(ap[1] - 0.5) < 1e-12

    raw = rng.random((10_000, 4)) + 0.05
    probs = raw / raw.sum(axis=1, keepdims=True)
    y = (rng.random(10_000)[:, None] < probs.cumsum(axis=1)).argmax(axis=1)
    ece = calibration_bins(y, probs, 10).ece
    _report(
        7,
        f"macro F1 = 11/15 hand case; AUC equals brute force (N <= 200); "
        f"AP toy case 0.5; calibrated-stream ECE {ece:.4f} <= 0.02",
        hand_case and auc_ok and ap_ok and ece <= 0.02,
    )


def test_criterion_08_dsp_sanity():
    start = time.monotonic()
    cfg = FeatureConfig()
    sr = cfg.sample_rate
    t = np.arange(sr) / sr

    sine440 = preprocess(AudioSignal(0.5 * np.sin(2 * np.pi * 440 * t), sr), cfg)
    centroid = streams(sine440, cfg)[0]["centroid"]
    bin_width = sr / cfg.frame_length
    voiced = centroid > 0
    centroid_ok = np.all(np.abs(centroid[voiced] - 440.0) < bin_width)

    import scipy.signal

    low = np.sin(2 * np.pi * 50 * t)
    sos = scipy.signal.butter(4, [cfg.band_low, cfg.band_high], btype="bandpass",
                              fs=sr, output="sos")
    filtered = scipy.signal.sosfiltfilt(sos, low)
    attenuation = 1.0 - np.sqrt(np.mean(filtered**2)) / np.sqrt(np.mean(low**2))
    band_ok = attenuation > 0.95

    layout = default_layout(cfg)
    rng = np.random.default_rng(8)
    adversarial = [
        np.zeros(sr),
        np.clip(rng.normal(scale=20, size=sr), -1, 1),
        np.array([0.5]),
        rng.normal(size=100),
    ]
    clean = True
    for samples in adversarial:
        sig = preprocess(AudioSignal(samples, sr), cfg)
        a = extract(sig, layout)
        b = extract(sig, layout)
        clean &= np.all(np.isfinite(a)) and np.array_equal(a, b)
    elapsed = time.monotonic() - start
    _report(
        8,
        f"440 Hz centroid within one bin; 50 Hz attenuated {attenuation:.1%} > 95%; "
        f"extraction deterministic and NaN-free on adversarial corpus ({elapsed:.1f}s < 120s)",
        centroid_ok and band_ok and clean and elapsed < 120.0,
    )


def test_criterion_09_synthetic_end_to_end():
    start = time.monotonic()
    index, features = make_synthetic_dataset(seed=0)
    assert len(index) == 900
    source = ArrayFeatureSource([row.path for row in index.rows], features)

    results = {}
    for preset in ("full", "baseline_ce"):
        cfg = load_config(preset=preset, overrides={"seed": 7})
        assert cfg.train.stage2_max_epochs == 30
        report, _ = run_cv(cfg, index, source)
        per_class = {row["name"]: row["f1"] for row in report.pooled.per_class}
        rare_macro = (per_class["Bronchiectasis"] + per_class["Bronchiolitis"]) / 2.0
        results[preset] = (report.pooled.macro_f1, rare_macro)
    elapsed = time.monotonic() - start

    full_macro, full_rare = results["full"]
    base_macro, base_rare = results["baseline_ce"]
    _report(
        9,
        f"preset full pooled OOF macro F1 {full_macro:.4f} >= 0.95; baseline rare-class "
        f"macro F1 {base_rare:.4f} < full's {full_rare:.4f} ({elapsed:.0f}s < 600s)",
        full_macro >= 0.95 and base_rare < full_rare and elapsed < 600.0,
    )


def test_criterion_10_leakage_guards():
    poisoned = [IndexRow(path="val.wav", patient_id="0", label=0, split="val")]
    tripped = []
    try:
        AudioFeatureSource(FeatureConfig()).epoch_features(
            poisoned, np.random.default_rng(0), AugmentConfig(), ("Healthy",))
    except ContractViolation:
        tripped.append("augmentation")
    try:
        smote_resample(np.zeros((4, 3)), np.array([0, 0, 1, 1]), SmoteConfig(),
                       rng=np.random.default_rng(0),
                       split_tags=["train", "val", "train", "train"])
    except ContractViolation:
        tripped.append("smote")
    try:
        Scaler.fit(np.zeros((2, 2)), split_tags=["train", "val"])
    except ContractViolation:
        tripped.append("scaler")
    _report(
        10,
        f"poisoned validation row trips contract violations in: {', '.join(tripped)}",
        tripped == ["augmentation", "smote", "scaler"],
    )


@pytest.mark.skipif(
    "KAN_AUSCULTA_ICBHI_DIR" not in os.environ
    or "KAN_AUSCULTA_ICBHI_DIAGNOSIS" not in os.environ,
    reason="optional full-corpus run: set KAN_AUSCULTA_ICBHI_DIR and "
    "KAN_AUSCULTA_ICBHI_DIAGNOSIS to enable",
)
def test_criterion_11_optional_full_corpus():
    from kan_ausculta.dataset import ingest
    from kan_ausculta.training import AudioFeatureSource

    cfg = load_config(preset="full")
    result = ingest(
        os.environ["KAN_AUSCULTA_ICBHI_DIR"],
        os.environ["KAN_AUSCULTA_ICBHI_DIAGNOSIS"],
        cfg.min_class_count,
    )
    source = AudioFeatureSource(cfg.features)
    report, _ = run_cv(cfg, result.index, source)
    _report(
        11,
        f"full-corpus plausibility band: macro F1 {report.pooled.macro_f1:.4f} >= 0.55, "
        f"accuracy {report.pooled.accuracy:.4f} >= 0.90 (5 folds, Table-6-shaped report)",
        len(report.folds) == 5
        and report.pooled.macro_f1 >= 0.55
        and report.pooled.accuracy >= 0.90,
    )
