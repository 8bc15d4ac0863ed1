"""Which public functions the traced run wraps, and the per-layer metrics.

Each probe names the span (``<defining module>.<function>``), the module or
class attribute the caller looks the function up by, and the counts the
span records. ``PER_LAYER`` lists every per-layer metric with its unit and
the end-to-end metric and workload it should move; BENCHMARK.json lists the
same names.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from kan_ausculta import cli, features, imbalance, kan, model, training


def _rows(position):
    def count(args, kwargs, result):
        x = np.asarray(args[position])
        return {"rows": 1 if x.ndim == 1 else int(x.shape[0])}

    return count


def _file_bytes(position):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}

    return count


def _points(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _entries(args, kwargs, result):
    return {"entries": sum(int(a.size) for a in args[0].values())}


def _synthetic(args, kwargs, result):
    return {"synthetic_rows": len(result[0]) - len(args[0])}


def _recordings(args, kwargs, result):
    return {"recordings": len(result.index)}


def _offered(args, kwargs, result):
    return {"rows": len(args[1])}


# (span name, owner, attribute the caller looks up, count function)
PROBES = [
    ("splines.bspline_basis", kan, "bspline_basis", _points),
    ("kan.kan_forward", kan, "kan_forward", None),
    ("kan.kan_backward", kan, "kan_backward", None),
    ("lstm.bilstm_encode", model, "bilstm_encode", None),
    ("lstm.bilstm_backward", model, "bilstm_backward", None),
    ("model.model_forward", training, "model_forward", _rows(1)),
    ("model.model_backward", training, "model_backward", _rows(2)),
    ("model.softmax", training, "softmax", None),
    ("optim.adamw_step", training, "adamw_step", _entries),
    ("optim.focal_loss_batch", training, "focal_loss_batch", None),
    ("imbalance.smote_resample", training, "smote_resample", _synthetic),
    ("imbalance.apply_transforms", training, "apply_transforms", None),
    ("imbalance.pitch_shift", imbalance, "pitch_shift", None),
    ("features.read_wav", training, "read_wav", _file_bytes(0)),
    ("features.read_wav", cli, "read_wav", _file_bytes(0)),
    ("features.preprocess", training, "preprocess", None),
    ("features.preprocess", cli, "preprocess", None),
    ("features.extract", training, "extract", None),
    ("features.extract", cli, "extract", None),
    ("features.aggregate", features, "aggregate", None),
    ("features.magnitude_spectrogram", features, "magnitude_spectrogram", None),
    ("features.mfcc_from_mel", features, "mfcc_from_mel", None),
    ("features.save_feature_cache", cli, "save_feature_cache", _file_bytes(0)),
    ("dataset.ingest", cli, "ingest", _recordings),
    ("report.export", cli, "export", None),
    ("model.save_checkpoint", cli, "save_checkpoint", _file_bytes(1)),
    ("training.run_cv", cli, "run_cv", None),
    ("training.run_cv", training, "run_cv", None),
    ("training.scaler", training.Scaler, "fit", None),
    ("training.scaler", training.Scaler, "transform", None),
    ("training.compute_metric_bundle", training, "compute_metric_bundle", None),
    ("training.base_features", training.AudioFeatureSource, "base_features", _offered),
    ("training.epoch_features", training.AudioFeatureSource, "epoch_features", _offered),
    ("cli.main", cli, "main", None),
]


def install(tracer) -> None:
    for name, owner, attr, count in PROBES:
        tracer.install(owner, attr, name, count)


# metric -> (unit, what it should move: "<end-to-end metric> on <workloads>")
PER_LAYER = {
    "splines.bspline_basis.self_s": ("s", "wall_s on cv-features; small on cv-audio"),
    "splines.bspline_basis.calls": ("count", "wall_s on cv-features"),
    "splines.bspline_basis.points": ("count", "wall_s on cv-features"),
    "kan.kan_forward.self_s": ("s", "wall_s on cv-features; small on cv-audio"),
    "kan.kan_forward.calls": ("count", "wall_s on cv-features"),
    "kan.kan_backward.self_s": ("s", "wall_s on cv-features; small on cv-audio"),
    "kan.kan_backward.calls": ("count", "wall_s on cv-features"),
    "lstm.bilstm_encode.self_s": ("s", "wall_s on cv-audio (d=1927); secondary on cv-features"),
    "lstm.bilstm_encode.calls": ("count", "wall_s on cv-audio"),
    "lstm.bilstm_backward.self_s": ("s", "wall_s on cv-audio; secondary on cv-features"),
    "lstm.bilstm_backward.calls": ("count", "wall_s on cv-audio"),
    "optim.adamw_step.self_s": ("s", "wall_s on cv-audio; secondary on cv-features"),
    "optim.adamw_step.calls": ("count", "wall_s on cv-audio"),
    "optim.adamw_step.entries": ("count", "wall_s on cv-audio"),
    "optim.focal_loss_batch.self_s": ("s", "wall_s on cv-audio and cv-features"),
    "model.model_forward.rows": ("count", "wall_s on cv-audio and cv-features"),
    "model.model_backward.rows": ("count", "wall_s on cv-audio and cv-features"),
    "model.softmax.self_s": ("s", "wall_s on cv-audio and cv-features"),
    "imbalance.smote_resample.self_s": ("s", "wall_s and peak_rss_mb on cv-audio"),
    "imbalance.smote_resample.calls": ("count", "wall_s on cv-audio"),
    "imbalance.smote_resample.synthetic_rows": ("count", "wall_s and peak_rss_mb on cv-audio"),
    "imbalance.apply_transforms.self_s": ("s", "wall_s on cv-audio"),
    "imbalance.apply_transforms.calls": ("count", "wall_s on cv-audio"),
    "imbalance.pitch_shift.self_s": ("s", "wall_s on cv-audio"),
    "imbalance.pitch_shift.calls": ("count", "wall_s on cv-audio"),
    "imbalance.augment_gate_ratio": ("1", "wall_s on cv-audio"),
    "features.read_wav.self_s": ("s", "recordings_per_s on extract-corpus; wall_s on cv-audio"),
    "features.read_wav.calls": ("count", "wall_s on cv-audio"),
    "features.read_wav.bytes": ("bytes", "recordings_per_s on extract-corpus"),
    "features.preprocess.self_s": ("s", "recordings_per_s on extract-corpus; wall_s on cv-audio"),
    "features.preprocess.calls": ("count", "wall_s on cv-audio"),
    "features.extract.self_s": ("s", "recordings_per_s on extract-corpus; wall_s on cv-audio"),
    "features.extract.calls": ("count", "wall_s on cv-audio"),
    "features.extract.p50_ms": ("ms", "recordings_per_s on extract-corpus"),
    "features.extract.p90_ms": ("ms", "recordings_per_s on extract-corpus"),
    "features.aggregate.self_s": ("s", "recordings_per_s on extract-corpus; wall_s on cv-audio"),
    "features.aggregate.calls": ("count", "recordings_per_s on extract-corpus"),
    "features.magnitude_spectrogram.self_s": ("s", "recordings_per_s on extract-corpus"),
    "features.mfcc_from_mel.self_s": ("s", "recordings_per_s on extract-corpus"),
    "features.reextract_ratio": ("1", "wall_s on cv-audio"),
    "features.save_feature_cache.self_s": ("s", "recordings_per_s on extract-corpus"),
    "features.save_feature_cache.bytes": ("bytes", "recordings_per_s on extract-corpus"),
    "dataset.ingest.self_s": ("s", "wall_s on cv-audio; recordings_per_s on extract-corpus"),
    "dataset.ingest.recordings": ("count", "none: input size"),
    "report.export.self_s": ("s", "wall_s on cv-audio"),
    "model.save_checkpoint.self_s": ("s", "wall_s on cv-audio"),
    "model.save_checkpoint.bytes": ("bytes", "wall_s on cv-audio"),
    "training.run_cv.self_s": ("s", "wall_s on cv-features and cv-audio"),
    "training.scaler.self_s": ("s", "wall_s on cv-features and cv-audio"),
    "training.compute_metric_bundle.self_s": ("s", "wall_s on cv-features and cv-audio"),
    "training.feature_rows": ("count", "base of features.reextract_ratio"),
    "training.epoch_rows": ("count", "base of imbalance.augment_gate_ratio"),
    "cli.main.self_s": ("s", "wall_s on cv-audio; recordings_per_s on extract-corpus"),
    "trace.wall_s": ("s", "wall time of the one traced call"),
    "trace.spans": ("count", "spans the traced call recorded"),
    "trace.overhead_s": ("s", "trace.spans times the measured cost of one span"),
    "trace.wall_delta_s": ("s", "trace.wall_s minus the untraced median wall_s; machine noise"),
    "trace.unattributed_s": ("s", "self time of the root span: traced time no other probe covers"),
}


def _stat(table, span, key):
    return table.get(span, {}).get(key, 0)


def layer_metrics(table: dict, trace: dict) -> dict:
    """Per-layer metric values from a ``spans.summarize`` table and the ``trace.*`` values."""
    values = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        values[metric] = table.get(span, {}).get(stat, 0)
    durations = table.get("features.extract", {}).get("durations", [])
    if durations:
        deciles = statistics.quantiles(durations, n=10) if len(durations) > 1 else durations * 9
        values["features.extract.p50_ms"] = 1000 * statistics.median(durations)
        values["features.extract.p90_ms"] = 1000 * deciles[8]
    else:
        values["features.extract.p50_ms"] = 0.0
        values["features.extract.p90_ms"] = 0.0

    epoch_rows = _stat(table, "training.epoch_features", "rows")
    feature_rows = epoch_rows + _stat(table, "training.base_features", "rows")
    gate_fires = _stat(table, "imbalance.apply_transforms", "calls")
    extracts = _stat(table, "features.extract", "calls")
    values["training.epoch_rows"] = epoch_rows
    values["training.feature_rows"] = feature_rows
    values["imbalance.augment_gate_ratio"] = gate_fires / epoch_rows if epoch_rows else 0.0
    values["features.reextract_ratio"] = extracts / feature_rows if feature_rows else 0.0

    values.update(trace)
    return {metric: values[metric] for metric in PER_LAYER}
