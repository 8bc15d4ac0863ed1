"""Report serialization: JSON + CSV artifacts with atomic writes.

``report.json`` is the standard library's JSON of ``RunReport.to_dict()``:
floats keep their shortest round-trip text, so ``load_report`` of an
exported report compares equal to the original, with every float still a
float. The CSVs write floats with 17 significant digits, which also
round-trips float64 exactly. Files are staged and renamed so a failed
export never leaves partial artifacts in the output directory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .atomic import staged_directory
from .errors import DataError
from .training import REPORT_VERSION, RunReport

__all__ = ["export", "load_report", "splines_csv_text"]


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values) + "\n"


def _confusion_csv(report: RunReport) -> str:
    names = report.class_names
    lines = [_csv_line(["true\\pred", *names])]
    for name, row in zip(names, report.pooled.confusion):
        lines.append(_csv_line([name, *row]))
    return "".join(lines)


def _per_class_csv(report: RunReport) -> str:
    header = ["class", "precision", "recall", "f1", "support", "auc", "ap"]
    lines = [_csv_line(header)]
    for row in report.pooled.per_class:
        lines.append(
            _csv_line(
                [
                    row["name"],
                    row["precision"],
                    row["recall"],
                    row["f1"],
                    row["support"],
                    "" if row["auc"] is None else row["auc"],
                    "" if row["ap"] is None else row["ap"],
                ]
            )
        )
    return "".join(lines)


def _folds_csv(report: RunReport) -> str:
    lines = [_csv_line(["fold", "macro_f1", "accuracy", "best_epoch", "epochs_run"])]
    for f in report.folds:
        lines.append(_csv_line([f.fold, f.macro_f1, f.accuracy, f.best_epoch, f.epochs_run]))
    s = report.summary
    lines.append(_csv_line(["mean", s["macro_f1_mean"], s["accuracy_mean"], "", ""]))
    lines.append(_csv_line(["std", s["macro_f1_std"], s["accuracy_std"], "", ""]))
    return "".join(lines)


def _calibration_csv(report: RunReport) -> str:
    calib = report.pooled.calibration
    lines = [_csv_line(["bin", "mean_confidence", "accuracy", "count"])]
    for b, (conf, acc, count) in enumerate(
        zip(calib["bin_confidence"], calib["bin_accuracy"], calib["bin_count"])
    ):
        lines.append(_csv_line([b, conf, acc, count]))
    return "".join(lines)


def splines_csv_text(splines) -> str:
    """One row per sample of every edge, from ``kan.export_splines``'s ``(x, phi)`` pairs."""
    # the same bytes as _csv_line per row: ``.17g`` already prints NaN as "nan"
    lines = [_csv_line(["layer", "out_index", "in_index", "x", "phi"])]
    for layer, (xs, phi) in enumerate(splines):
        x_text = [f"{x:.17g}" for x in xs.tolist()]
        for i, row in enumerate(phi.tolist()):
            for j, curve in enumerate(row):
                lines.extend(f"{layer},{i},{j},{x},{p:.17g}\n" for x, p in zip(x_text, curve))
    return "".join(lines)


def export(report: RunReport, out_dir) -> list:
    """Write report.json plus its CSV views.

    Returns the written paths. Everything is staged in a temp directory
    inside ``out_dir`` and renamed at the end (``atomic.staged_directory``),
    so a failed write raises ``DataError`` and no file lands.
    """
    files = {
        "report.json": json.dumps(report.to_dict(), indent=2) + "\n",
        "confusion.csv": _confusion_csv(report),
        "per_class.csv": _per_class_csv(report),
        "folds.csv": _folds_csv(report),
        "calibration.csv": _calibration_csv(report),
    }
    with staged_directory(out_dir) as staging:
        for name, text in files.items():
            (staging / name).write_text(text)
    return [str(Path(out_dir) / name) for name in files]


def load_report(path) -> RunReport:
    """Read ``report.json`` back into the ``RunReport`` that ``export`` wrote.

    JSON that is not an object or nests too deeply to parse, a version other
    than ``REPORT_VERSION`` and a missing or unknown key raise ``DataError``,
    as an unreadable file does.
    """
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"version {data.get('version')!r}, expected {REPORT_VERSION}")
        return RunReport.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"cannot load report {path}: {exc}") from exc
