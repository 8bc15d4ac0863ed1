"""Per-fold two-stage training and cross-validated evaluation.

One fold runs:

1. optional stage 1: pre-train on every minority-class training row plus
   a capped random sample of the majority class; its rows, scaler and
   optimizer state are freed before stage 2 allocates its own;
2. stage 2 epochs: (re-)augment training audio, extract features, optional
   SMOTE, fit a z-score scaler on the processed training features only and
   standardize them in place (the epoch holds one copy of its training
   matrix, freed before validation, plus up to ``EPOCHS_AHEAD`` later
   epochs' unscaled rows on the audio path), mini-batch updates with focal
   loss + AdamW, validate, step the plateau scheduler and the early stopper
   (which keeps the best epoch's scaler; each improving epoch copies the
   parameters into one kept snapshot);
3. return the best snapshot; its validation probabilities join the pooled
   out-of-fold arrays that produce the headline metrics.

A feature source supplies the rows. ``AudioFeatureSource`` holds every
un-augmented ("base") row, computed before ``run_cv`` starts (``cli``
extracts the uncached recordings through ``extract``'s path), and
re-extracts only the training rows whose augmentation gate fires; stage 2
computes those up to ``EPOCHS_AHEAD`` epochs ahead on a helper thread,
beside stage 1 and the earlier epochs' gradient steps (``ReadAhead``, which
``cli`` also uses to decode recordings ahead of their extraction).
``ArrayFeatureSource`` serves a precomputed matrix with no audio, so stage 2
trains on its base rows. Every array ``base_features`` and
``epoch_features`` return is new, and the caller may modify it: stage 2
standardizes an epoch's rows in place.

Leakage guards: validation rows never reach augmentation, SMOTE, or
scaler fitting; each of those paths raises ContractViolation when handed
a validation-tagged row.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .config import RunConfig, config_echo
from .dataset import DatasetIndex
from .errors import ContractViolation, ShapeError, TrainingAbort
from .evalkit import (
    average_precision,
    calibration_bins,
    classification_metrics,
    confusion,
    roc_auc_ovr,
    stratified_kfold,
)
from .features import AudioSignal, default_layout, extract, preprocess, read_wav
from .imbalance import apply_transforms, build_stage1_subset, smote_resample
from .model import (
    build_model,
    model_backward,
    model_forward,
    parameters,
    restore_parameters,
    snapshot_parameters,
    softmax,
)
from .optim import (
    EarlyStopState,
    SchedulerState,
    adamw_init,
    adamw_step,
    early_stop,
    focal_loss_batch,
    plateau_step,
)

__all__ = [
    "ReadAhead",
    "Scaler",
    "ArrayFeatureSource",
    "AudioFeatureSource",
    "MetricBundle",
    "FoldReport",
    "RunReport",
    "FoldArtifacts",
    "compute_metric_bundle",
    "run_cv",
]

log = logging.getLogger(__name__)

REPORT_VERSION = 2

# stage-2 epochs the augmentation helper computes or holds beyond the ones
# taken: it fills stage 1 with the first ones and runs ahead through the
# cheaper stage-2 epochs, at the cost of up to this many unscaled epoch matrices
EPOCHS_AHEAD = 3


@dataclass
class Scaler:
    """Per-feature z-score fit on training rows only (enforced via tags)."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, features, split_tags=None) -> "Scaler":
        if split_tags is not None and any(tag == "val" for tag in split_tags):
            raise ContractViolation("scaler fitting received a validation-tagged row")
        features = np.asarray(features, dtype=float)
        return cls(
            mean=features.mean(axis=0),
            scale=np.maximum(features.std(axis=0), 1e-8),
        )

    def transform(self, features, out=None) -> np.ndarray:
        """``(features - mean) / scale``, into ``out`` if given; ``out=features`` works in place."""
        features = np.asarray(features, dtype=float)
        if out is None:
            out = np.empty_like(features)
        np.subtract(features, self.mean, out=out)
        out /= self.scale
        return out


class ReadAhead:
    """The results of ``calls``, one ``take`` each, in order, computed ahead on one helper thread.

    Opening the ``with`` block submits the first ``depth`` calls, and each
    ``take`` submits one more, so up to ``depth`` calls are submitted beyond
    the one being taken. An error surfaces at the ``take`` of its call; a call
    computed ahead but never taken is dropped with any error it raised, as a
    serial loop never made it. Leaving the block drops the queue, sets
    ``stop`` (a ``threading.Event`` the running call may check), cancels the
    calls not yet started and joins the helper.
    """

    def __init__(self, calls, depth: int, stop=None, name="read-ahead"):
        self._calls = iter(calls)
        self._depth = depth
        self._stop = stop
        self._ahead = deque()  # the submitted calls' futures, oldest first
        self._helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)

    def _submit(self):
        for call in itertools.islice(self._calls, self._depth - len(self._ahead)):
            self._ahead.append(self._helper.submit(call))

    def __enter__(self):
        self._submit()
        return self

    def __exit__(self, *exc_info):
        self._ahead.clear()
        if self._stop is not None:
            self._stop.set()
        self._helper.shutdown(wait=True, cancel_futures=True)

    def take(self):
        """The next call's result."""
        # popping drops the taken future, which holds the result too
        result = self._ahead.popleft().result()
        self._submit()
        return result


class ArrayFeatureSource:
    """Pre-extracted feature matrix keyed by row path (cache files, synthetic data).

    It has no audio to augment: stage 2 trains on its base rows every epoch.
    """

    def __init__(self, paths, matrix, fingerprint: str | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if len(paths) != matrix.shape[0]:
            raise ValueError("paths and matrix disagree on the row count")
        self._by_path = {path: matrix[i] for i, path in enumerate(paths)}
        if fingerprint is None:
            fingerprint = "array-" + hashlib.sha256(matrix.tobytes()).hexdigest()[:16]
        self.fingerprint = fingerprint
        self.d_feat = matrix.shape[1]

    def base_features(self, rows) -> np.ndarray:
        """A new (rows, d_feat) array the caller may modify; the matrix is left as it was."""
        return np.stack([self._by_path[row.path] for row in rows])


class AudioFeatureSource:
    """Base rows from a precomputed ``{path: row}`` map; augmented rows from the WAVs.

    ``cache`` must hold the base row of every recording the run reads
    (``cli`` extracts the uncached ones up front); it is kept, not copied.

    With augmentation on, stage 2 computes its epochs' rows ahead on a
    helper thread: decoding, filtering, the FFTs and the transforms spend
    most of their time in native code that releases the interpreter lock, so
    they overlap stage 1 and the gradient steps.
    """

    def __init__(self, feature_config, cache: dict):
        self.layout = default_layout(feature_config)
        self.fingerprint = self.layout.fingerprint
        self.d_feat = self.layout.dim
        self._cache = cache

    def base_features(self, rows) -> np.ndarray:
        """A new (rows, d_feat) array the caller may modify; ``cache`` is left as it was."""
        return np.stack([self._cache[row.path] for row in rows])

    def epoch_features(self, rows, rng, augment_cfg, class_names, stop=None) -> np.ndarray:
        """Per-epoch augmented extraction; rows the gate skips, or whose transforms
        change no sample, reuse their base row.

        This is the augmentation gate: its class-resolved probability is
        drawn per row in row order, before anything is decoded, so the
        stream is deterministic and only rows whose gate fires pay for
        re-extraction. A validation row anywhere in ``rows`` is refused
        before any row is read or any number drawn. The rows are a new array
        the caller may modify. Once ``stop`` (a ``threading.Event``) is set,
        the call returns None before its next row: its caller has left.
        """
        if any(row.split == "val" for row in rows):
            raise ContractViolation("augmentation path received a validation row")
        out = np.empty((len(rows), self.d_feat))
        for i, row in enumerate(rows):
            if stop is not None and stop.is_set():
                return None
            name = class_names[row.label]
            if rng.random() < augment_cfg.probability_for(name):
                raw = read_wav(row.path)
                samples = np.asarray(raw.samples, dtype=float)
                augmented = apply_transforms(samples, augment_cfg, rng, class_name=name)
                # all three coins off, or a zero shift or pitch, leave the samples
                # as they were: their extraction is the base row
                if not np.array_equal(augmented, samples):
                    signal = AudioSignal(samples=augmented, sample_rate=raw.sample_rate)
                    out[i] = extract(preprocess(signal, self.layout.config), self.layout)
                    continue
            out[i] = self._cache[row.path]
        return out


# ----------------------------------------------------------------------------
# report structures (plain-python values so JSON round-trips to equality)


@dataclass
class MetricBundle:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    per_class: list  # dicts: name, precision, recall, f1, support, auc, ap
    confusion: list
    confusion_normalized: list
    auc_macro: float | None
    calibration: dict  # bin_confidence, bin_accuracy, bin_count, ece


@dataclass
class FoldReport:
    fold: int
    val_size: int
    best_epoch: int
    epochs_run: int
    macro_f1: float
    accuracy: float
    history: list  # dicts: epoch, train_loss, val_macro_f1, lr
    metrics: MetricBundle


@dataclass
class RunReport:
    version: int
    config: dict
    seed: int
    class_names: list
    d_feat: int
    fingerprint: str
    fold_sizes: list
    folds: list  # FoldReport
    incomplete: list  # dicts: fold, error
    summary: dict  # fold-level mean/std rows
    pooled: MetricBundle
    best_fold: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild ``to_dict``'s output; a missing or unknown key raises KeyError or TypeError."""
        folds = [FoldReport(**{**f, "metrics": MetricBundle(**f["metrics"])})
                 for f in data["folds"]]
        return cls(**{**data, "folds": folds, "pooled": MetricBundle(**data["pooled"])})


@dataclass
class FoldArtifacts:
    fold: int
    model: object
    scaler: Scaler


def compute_metric_bundle(y_true, probs, class_names, n_bins: int) -> MetricBundle:
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=float)
    n_classes = len(class_names)
    preds = probs.argmax(axis=1)
    cm = confusion(y_true, preds, n_classes)
    metrics = classification_metrics(cm)
    auc_per_class, auc_macro = roc_auc_ovr(y_true, probs)
    ap_per_class = average_precision(y_true, probs)
    calib = calibration_bins(y_true, probs, n_bins)

    per_class = [
        {
            "name": class_names[c],
            "precision": float(metrics.precision[c]),
            "recall": float(metrics.recall[c]),
            "f1": float(metrics.f1[c]),
            "support": int(metrics.support[c]),
            "auc": auc_per_class[c],
            "ap": ap_per_class[c],
        }
        for c in range(n_classes)
    ]
    return MetricBundle(
        accuracy=metrics.accuracy,
        macro_precision=metrics.macro_precision,
        macro_recall=metrics.macro_recall,
        macro_f1=metrics.macro_f1,
        weighted_precision=metrics.weighted_precision,
        weighted_recall=metrics.weighted_recall,
        weighted_f1=metrics.weighted_f1,
        per_class=per_class,
        confusion=[[int(v) for v in row] for row in cm.counts],
        confusion_normalized=[[float(v) for v in row] for row in cm.normalized],
        auc_macro=auc_macro,
        calibration={
            "bin_confidence": [float(v) for v in calib.bin_confidence],
            "bin_accuracy": [float(v) for v in calib.bin_accuracy],
            "bin_count": [int(v) for v in calib.bin_count],
            "ece": calib.ece,
        },
    )


# ----------------------------------------------------------------------------
# training loops


def _train_one_epoch(model, params, features, labels, fp, opt_state, batch_size, rng):
    order = rng.permutation(len(features))
    total = 0.0
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        logits, cache = model_forward(model, features[idx], training=True, rng=rng)
        loss, grad_logits = focal_loss_batch(softmax(logits), labels[idx], fp)
        adamw_step(params, model_backward(model, cache, grad_logits), opt_state)
        total += loss * len(idx)
    return total / len(order)


def _predict(model, features) -> np.ndarray:
    logits, _ = model_forward(model, features, training=False)
    return softmax(logits)


def _macro_f1(y_true, probs, n_classes) -> float:
    cm = confusion(y_true, probs.argmax(axis=1), n_classes)
    return classification_metrics(cm).macro_f1


def _pretrain(cfg: RunConfig, model, params, train_rows, class_names, source, fp, rng) -> None:
    """Stage 1: train ``model`` in place on the minority rows plus a capped majority sample.

    Returns nothing, so its subset, scaled rows, scaler and optimizer state
    are freed before stage 2 allocates its own optimizer.
    """
    train = DatasetIndex(rows=train_rows, class_names=class_names)
    majority = int(np.bincount(train.labels(), minlength=len(class_names)).argmax())
    stage1 = build_stage1_subset(train, majority, cap=cfg.train.stage1_majority_cap, rng=rng)
    X_s1 = source.base_features(stage1.rows)
    scaler = Scaler.fit(X_s1, [row.split for row in stage1.rows])
    scaler.transform(X_s1, out=X_s1)
    y_s1 = stage1.labels()
    opt = adamw_init(params, cfg.optim.lr_stage1, cfg.optim)
    for _ in range(cfg.train.stage1_epochs):
        _train_one_epoch(model, params, X_s1, y_s1, fp, opt, cfg.train.batch_size, rng)


def _run_fold(cfg: RunConfig, fold_idx: int, tagged: DatasetIndex, source, seed_seq):
    class_names = tagged.class_names
    n_classes = len(class_names)
    streams = seed_seq.spawn(6)
    rng_init, rng_stage1, rng_train, rng_aug, rng_smote, _ = (
        np.random.default_rng(s) for s in streams
    )

    train_rows = [row for row in tagged.rows if row.split == "train"]
    val_rows = [row for row in tagged.rows if row.split == "val"]
    y_train = np.array([row.label for row in train_rows], dtype=int)
    y_val = np.array([row.label for row in val_rows], dtype=int)

    model = build_model(source.d_feat, n_classes, rng_init, cfg.model)
    params = parameters(model)
    fp = cfg.focal.resolve(tuple(class_names))

    X_val = source.base_features(val_rows)
    # with augmentation on an audio source, every epoch's rows are the
    # helper's, in epoch order; only the helper draws from rng_aug
    stop = threading.Event()
    augmented = []
    if cfg.augment.enabled and isinstance(source, AudioFeatureSource):
        augmented = [partial(source.epoch_features, train_rows, rng_aug, cfg.augment,
                             class_names, stop)] * cfg.train.stage2_max_epochs
    with ReadAhead(augmented, EPOCHS_AHEAD, stop, "epoch-rows") as epoch_rows:
        if cfg.train.two_stage:
            _pretrain(cfg, model, params, train_rows, class_names, source, fp, rng_stage1)

        opt = adamw_init(params, cfg.optim.lr_stage2, cfg.optim)
        sched = SchedulerState(lr=cfg.optim.lr_stage2, cfg=cfg.sched)
        stopper = EarlyStopState(
            patience=cfg.train.early_stop_patience,
            threshold=cfg.train.early_stop_threshold,
        )

        history = []
        best_params = None  # the early stopper keeps the best epoch's scaler, this its parameters
        train_tags = [row.split for row in train_rows]
        for epoch in range(1, cfg.train.stage2_max_epochs + 1):
            # one copy of the epoch's matrix, plus up to EPOCHS_AHEAD later epochs'
            # unscaled rows on the audio path: SMOTE's output replaces its input,
            # it is scaled in place (sources return new arrays), and it is dropped
            # before validation
            X_proc = epoch_rows.take() if augmented else source.base_features(train_rows)
            y_proc = y_train

            if cfg.smote.enabled:
                X_proc, y_proc = smote_resample(
                    X_proc,
                    y_train,
                    cfg.smote,
                    rng=rng_smote,
                    split_tags=train_tags,
                    class_names=class_names,
                )

            scaler = Scaler.fit(X_proc, ["train"] * len(X_proc))
            scaler.transform(X_proc, out=X_proc)
            opt.lr = sched.lr
            train_loss = _train_one_epoch(
                model, params, X_proc, y_proc, fp, opt, cfg.train.batch_size, rng_train
            )
            del X_proc

            probs_val = _predict(model, scaler.transform(X_val))
            val_f1 = _macro_f1(y_val, probs_val, n_classes)
            plateau_step(sched, val_f1)
            done = early_stop(stopper, val_f1, snapshot=scaler, epoch=epoch)
            if stopper.best_epoch == epoch:
                best_params = snapshot_parameters(model, out=best_params)
            history.append(
                {"epoch": epoch, "train_loss": float(train_loss), "val_macro_f1": float(val_f1), "lr": float(sched.lr)}
            )
            log.debug("fold %d epoch %d: loss %.4f val macro-F1 %.4f", fold_idx, epoch, train_loss, val_f1)
            if done:
                break

    best_scaler = stopper.best_snapshot
    restore_parameters(model, best_params)
    probs_val = _predict(model, best_scaler.transform(X_val))

    bundle = compute_metric_bundle(y_val, probs_val, class_names, cfg.calibration_bins)
    report = FoldReport(
        fold=fold_idx,
        val_size=len(val_rows),
        best_epoch=stopper.best_epoch,
        epochs_run=len(history),
        macro_f1=bundle.macro_f1,
        accuracy=bundle.accuracy,
        history=history,
        metrics=bundle,
    )
    return report, probs_val, FoldArtifacts(fold=fold_idx, model=model, scaler=best_scaler)


def run_cv(cfg: RunConfig, index: DatasetIndex, source, on_fold=None):
    """Cross-validate per the two-stage recipe; returns (RunReport, artifacts).

    Fully reproducible given (config, seed, dataset bytes). A failing fold
    is recorded in ``report.incomplete`` and excluded from pooling; the run
    aborts only if every fold fails. Programming errors (``ContractViolation``,
    ``ShapeError``, ``TypeError``, ``AttributeError``) propagate instead.

    Each finished fold's ``FoldArtifacts`` goes to ``on_fold`` when the fold
    ends, and ``run_cv`` keeps none of them, so the next fold runs without
    the last one's model (``artifacts`` is then empty). Without ``on_fold``
    they are collected and returned. An error ``on_fold`` raises propagates:
    it is not a fold failure.
    """
    if len(index) == 0:
        raise ValueError("empty dataset index")
    if cfg.augment.enabled and not isinstance(source, AudioFeatureSource):
        log.warning("feature source has no audio; time-domain augmentation skipped")

    labels = index.labels()
    assignment = stratified_kfold(labels, cfg.folds, cfg.seed)
    seed_root = np.random.SeedSequence(cfg.seed)
    fold_seeds = seed_root.spawn(cfg.folds)

    n = len(index)
    n_classes = index.class_count
    oof_probs = np.full((n, n_classes), np.nan)
    oof_mask = np.zeros(n, dtype=bool)

    fold_reports = []
    artifacts = []
    if on_fold is None:
        on_fold = artifacts.append
    incomplete = []
    for fold in range(cfg.folds):
        tagged = index.with_folds(assignment.fold_of, fold)
        try:
            report, probs_val, art = _run_fold(cfg, fold, tagged, source, fold_seeds[fold])
        except (ContractViolation, ShapeError, TypeError, AttributeError):
            raise  # leakage guards and programming errors are bugs, never swallowed
        except Exception as exc:  # noqa: BLE001 - fold-level diagnostic barrier
            log.error("fold %d aborted: %s", fold, exc)
            incomplete.append({"fold": fold, "error": f"{type(exc).__name__}: {exc}"})
            continue
        fold_reports.append(report)
        val_positions = assignment.val_positions(fold)
        oof_probs[val_positions] = probs_val
        oof_mask[val_positions] = True
        on_fold(art)
        del art  # not held through the next fold

    if not fold_reports:
        raise TrainingAbort("all folds failed; see the incomplete list in the logs")

    pooled = compute_metric_bundle(
        labels[oof_mask], oof_probs[oof_mask], index.class_names, cfg.calibration_bins
    )
    fold_f1 = np.array([r.macro_f1 for r in fold_reports])
    fold_acc = np.array([r.accuracy for r in fold_reports])
    fold_wf1 = np.array([r.metrics.weighted_f1 for r in fold_reports])
    summary = {
        "macro_f1_mean": float(fold_f1.mean()),
        "macro_f1_std": float(fold_f1.std()),
        "accuracy_mean": float(fold_acc.mean()),
        "accuracy_std": float(fold_acc.std()),
        "weighted_f1_mean": float(fold_wf1.mean()),
        "weighted_f1_std": float(fold_wf1.std()),
    }
    best_fold = int(fold_f1.argmax())

    report = RunReport(
        version=REPORT_VERSION,
        config=config_echo(cfg),
        seed=cfg.seed,
        class_names=list(index.class_names),
        d_feat=source.d_feat,
        fingerprint=source.fingerprint,
        fold_sizes=[int((assignment.fold_of == f).sum()) for f in range(cfg.folds)],
        folds=fold_reports,
        incomplete=incomplete,
        summary=summary,
        pooled=pooled,
        best_fold=fold_reports[best_fold].fold,
    )
    return report, artifacts
