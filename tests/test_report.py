import math

import numpy as np
import pytest

from kan_ausculta import atomic as atomic_module
from kan_ausculta import report as report_module
from kan_ausculta.kan import export_splines, kan_network_init
from kan_ausculta.report import splines_csv_text, write_splines_csv
from kan_ausculta.splines import make_uniform_grid

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

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "splines.csv"
        write_splines_csv(make_dump(4), path)
        before = path.read_bytes()

        if failure == "write":
            real_open = open

            class HalfWritten:
                def __init__(self, *args):
                    self.fh = real_open(*args)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, text):
                    self.fh.write(text[: len(text) // 2])
                    raise OSError("no space left on device")

            monkeypatch.setattr(report_module, "open", HalfWritten, raising=False)
        else:
            def refuse(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(atomic_module.os, "replace", refuse)

        with pytest.raises(OSError):
            write_splines_csv(make_dump(5), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["splines.csv"]

    def test_write_round_trips_text(self, tmp_path):
        dump = make_dump(6, samples=5)
        write_splines_csv(dump, tmp_path / "splines.csv")
        assert (tmp_path / "splines.csv").read_text() == splines_csv_oracle(dump)
