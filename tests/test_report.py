import json
import math
import re

import numpy as np
import pytest

from kan_ausculta.atomic import write_text
from kan_ausculta.config import RunConfig, config_echo
from kan_ausculta.errors import DataError
from kan_ausculta.kan import export_splines, kan_network_init
from kan_ausculta.report import export, load_report, splines_csv_text
from kan_ausculta.splines import make_uniform_grid
from kan_ausculta.training import REPORT_VERSION, FoldReport, RunReport, compute_metric_bundle

GRID = make_uniform_grid(-1, 1, 5, 3)


def splines_csv_oracle(dump):
    """The per-value formatter ``splines_csv_text`` replaced."""

    def fmt(value):
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.17g}"
        return str(value)

    lines = [",".join(["layer", "out_index", "in_index", "x", "phi"]) + "\n"]
    for layer, (xs, phis) in enumerate(dump):
        for out_index, in_index in np.ndindex(phis.shape[:2]):
            for x, phi in zip(xs, phis[out_index, in_index]):
                row = [layer, out_index, in_index, float(x), float(phi)]
                lines.append(",".join(fmt(v) for v in row) + "\n")
    return "".join(lines)


def make_dump(seed=0, samples=41):
    net = kan_network_init([6, 4, 3], GRID, np.random.default_rng(seed))
    return export_splines(net, samples)


class TestSplinesCsv:
    def test_matches_per_value_formatter(self):
        dump = make_dump()
        # values whose text is easy to get wrong: nan, infinities, -0, subnormals
        dump[0][1][0, 0, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
        dump[-1][1][-1, -1, 3] = -np.nan
        text = splines_csv_text(dump)
        assert text == splines_csv_oracle(dump)
        assert "\n0,0,0,-1,nan\n" in text

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_networks_match(self, seed):
        dump = make_dump(seed, samples=7)
        assert splines_csv_text(dump) == splines_csv_oracle(dump)

    def test_write_round_trips_text(self, tmp_path):
        dump = make_dump(6, samples=5)
        write_text(tmp_path / "splines.csv", splines_csv_text(dump))
        assert (tmp_path / "splines.csv").read_text() == splines_csv_oracle(dump)


def make_report():
    """A perfect-accuracy report with empty calibration bins (0.0) and two -0.0 values."""
    y = np.array([0, 0, 1, 1, 2, 2])
    metrics = compute_metric_bundle(y, np.eye(3)[y] * 0.9 + 0.1 / 3, ("a", "b", "c"), 10)
    history = [{"epoch": 1, "train_loss": -0.0, "val_macro_f1": 1.0, "lr": 1e-3}]
    fold = FoldReport(fold=0, val_size=6, best_epoch=1, epochs_run=1, macro_f1=1.0,
                      accuracy=1.0, history=history, metrics=metrics)
    summary = {"macro_f1_mean": 1.0, "macro_f1_std": -0.0, "accuracy_mean": 1.0,
               "accuracy_std": 0.0}
    return RunReport(version=REPORT_VERSION, config=config_echo(RunConfig()), seed=7,
                     class_names=["a", "b", "c"], d_feat=8, fingerprint="abc", fold_sizes=[6],
                     folds=[fold], incomplete=[], summary=summary, pooled=metrics, best_fold=0)


def assert_same_leaves(got, want, where="report"):
    """Equal trees whose leaves also match in type, and floats in sign."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_leaves(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_leaves(g, w, f"{where}[{i}]")
    else:
        assert got == want, where
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want), where


class TestReportJson:
    def test_floats_stay_floats_with_their_sign(self, tmp_path):
        report = make_report()
        assert report.pooled.accuracy == 1.0
        assert report.pooled.calibration["bin_accuracy"][0] == 0.0
        assert isinstance(report.config["features.band_low"], float)
        export(report, tmp_path)
        assert_same_leaves(load_report(tmp_path / "report.json").to_dict(), report.to_dict())

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        text = (tmp_path / "report.json").read_text()
        assert json.loads(text, parse_constant=refuse) == report.to_dict()

    @pytest.mark.parametrize("damage", ["version", "v1", "not-object", "missing", "unknown",
                                        "missing-nested", "deep"])
    def test_unloadable_report_raises_data_error(self, tmp_path, damage):
        data = make_report().to_dict()
        if damage == "version":
            data["version"] = REPORT_VERSION + 1
        elif damage == "v1":  # version 1 also held a spline_dump key
            data.update(version=1, spline_dump="splines.csv")
        elif damage == "not-object":
            data = [data]
        elif damage == "missing":
            del data["best_fold"]
        elif damage == "unknown":
            data["pooled"]["extra"] = 1
        else:
            del data["folds"][0]["metrics"]["accuracy"]
        path = tmp_path / "report.json"
        # nesting deeper than the parser's recursion limit
        path.write_text("[" * 100000 if damage == "deep" else json.dumps(data))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_report(path)
