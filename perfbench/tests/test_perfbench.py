"""Self-tests of the benchmark code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
import corpus  # noqa: E402
import fixture  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, span_cost, summarize, unattributed_s  # noqa: E402

from kan_ausculta import training  # noqa: E402
from kan_ausculta.config import load_config  # noqa: E402
from kan_ausculta.dataset import ingest  # noqa: E402
from kan_ausculta.features import default_layout, save_feature_cache  # noqa: E402
from kan_ausculta.model import save_checkpoint  # noqa: E402
from kan_ausculta.report import export  # noqa: E402

SMALL = {"class_counts": {"COPD": 2, "URTI": 1}, "clip_seconds": 0.2}


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestCorpus:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        corpus.generate(tmp_path / "a", 3, **SMALL)
        corpus.generate(tmp_path / "b", 3, **SMALL)
        corpus.generate(tmp_path / "c", 4, **SMALL)
        a, b, c = (_files(tmp_path / n) for n in "abc")
        assert a == b
        assert a.keys() == c.keys() and a != c

    def test_rejects_and_names(self, tmp_path):
        made = corpus.generate(tmp_path, 0, **SMALL)
        assert made.files == 5 and made.recordings == 3
        names = sorted(p.name for p in made.audio_dir.iterdir())
        assert all(n.endswith("_1b1_Al_sc_Meditron.wav") for n in names)
        result = ingest(made.audio_dir, made.table, min_class_count=1)
        assert len(result.rejects) == corpus.REJECTS
        assert len(result.index) == made.recordings


    def test_anchor_recordings_do_not_depend_on_the_seed(self, tmp_path):
        counts = {"COPD": 3, "Pneumonia": 2, "Bronchiectasis": 1}
        a = corpus.generate(tmp_path / "a", 3, counts, 0.2, anchors=True)
        b = corpus.generate(tmp_path / "b", 4, counts, 0.2, anchors=True)
        assert a.recordings == 6
        for k in range(len(corpus.ANCHORS)):
            name = corpus.wav_name(k)
            assert (a.audio_dir / name).read_bytes() == (b.audio_dir / name).read_bytes()
        assert (a.audio_dir / corpus.wav_name(3)).read_bytes() != (b.audio_dir / corpus.wav_name(3)).read_bytes()
        result = ingest(a.audio_dir, a.table, min_class_count=1)
        assert result.index.histogram() == {"COPD": 3, "Pneumonia": 2, "Bronchiectasis": 1}


class TestSpans:
    def test_self_time_of_nested_calls(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def inner():
            now[0] += 2.0

        inner_t = tracer.wrap("inner", inner)

        def outer():
            now[0] += 1.0
            inner_t()
            now[0] += 3.0
            inner_t()

        tracer.wrap("outer", outer)()
        table = summarize(tracer.spans)
        assert table["outer"]["self_s"] == 4.0
        assert table["inner"]["self_s"] == 4.0 and table["inner"]["calls"] == 2
        assert sum(self_times(tracer.spans)) == 8.0
        assert [s.parent for s in tracer.spans] == [None, 0, 0]
        assert unattributed_s(tracer.spans) == 4.0  # the root's own self time

    def test_span_cost_is_small_and_not_negative(self):
        assert 0.0 <= span_cost(calls=2000, repeats=2) < 1e-3

    def test_install_and_restore(self):
        class Box:
            @classmethod
            def make(cls, n):
                return [cls] * n

            def size(self, rows):
                return len(rows)

        module = types.ModuleType("toy")
        module.twice = lambda x: 2 * x
        original = module.__dict__["twice"]
        tracer = Tracer()
        tracer.install(module, "twice", "toy.twice", lambda a, k, r: {"points": a[0]})
        tracer.install(Box, "make", "toy.make")
        tracer.install(Box, "size", "toy.size")
        assert module.twice(3) == 6 and Box.make(2) == [Box, Box] and Box().size([1]) == 1
        tracer.restore()
        assert module.twice is original and isinstance(Box.__dict__["make"], classmethod)
        table = summarize(tracer.spans)
        assert table["toy.twice"]["points"] == 3
        assert {n: r["calls"] for n, r in table.items()} == {"toy.twice": 1, "toy.make": 1, "toy.size": 1}

    def test_probes_name_existing_attributes(self):
        for _, owner, attr, _ in layers.PROBES:
            assert callable(getattr(owner, attr)), attr


def test_fixture_matches_the_test_helper():
    from tests.conftest import make_synthetic_dataset

    index, matrix = fixture.synthetic_dataset(seed=0)
    ref_index, ref_matrix = make_synthetic_dataset(seed=0)
    assert np.array_equal(matrix, ref_matrix)
    assert index.rows == ref_index.rows and index.class_names == ref_index.class_names


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


class TestChecks:
    LAYOUT = default_layout()

    def _cache(self, tmp_path, matrix, fingerprint):
        path = tmp_path / "features.npz"
        save_feature_cache(path, fingerprint, [f"r{i}.wav" for i in range(len(matrix))], matrix)
        return path

    def test_feature_cache_accepts_a_good_matrix(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(3, self.LAYOUT.dim))
        path = self._cache(tmp_path, matrix, self.LAYOUT.fingerprint)
        failures, checksum = checks.check_feature_cache(0, path, self.LAYOUT.fingerprint, 3, self.LAYOUT.dim)
        assert failures == [] and checksum == checks.matrix_checksum(matrix)

    def test_feature_cache_rejects_a_nan_row(self, tmp_path):
        matrix = np.zeros((3, self.LAYOUT.dim))
        matrix[1] = np.nan
        path = self._cache(tmp_path, matrix, self.LAYOUT.fingerprint)
        failures, _ = checks.check_feature_cache(0, path, self.LAYOUT.fingerprint, 3, self.LAYOUT.dim)
        assert any("non-finite" in f for f in failures)

    def test_feature_cache_rejects_a_wrong_fingerprint(self, tmp_path):
        path = self._cache(tmp_path, np.zeros((3, self.LAYOUT.dim)), "0123456789abcdef")
        failures, checksum = checks.check_feature_cache(0, path, self.LAYOUT.fingerprint, 3, self.LAYOUT.dim)
        assert checksum is None and "fingerprint" in failures[0]

    def test_reference_rows_reject_a_changed_feature(self, tmp_path):
        rows = np.random.default_rng(1).normal(size=(2, self.LAYOUT.dim))
        reference = tmp_path / "reference.npz"
        np.savez_compressed(reference, names=np.array(["a.wav", "b.wav"]), rows=rows)
        matrix = np.vstack([rows[1], np.zeros(self.LAYOUT.dim), rows[0]])
        paths = ["x/b.wav", "x/c.wav", "x/a.wav"]
        reordered = matrix * (1 + 1e-12)  # a float reordering is not a change
        assert checks.check_reference_rows(paths, reordered, reference) == []
        matrix[2, 7] *= 1.001
        failures = checks.check_reference_rows(paths, matrix, reference)
        assert len(failures) == 1 and "a.wav" in failures[0]
        assert "not in the feature cache" in checks.check_reference_rows(paths[:2], matrix, reference)[0]

    def test_committed_reference_names_the_anchor_recordings(self):
        with np.load(checks.REFERENCE_ROWS) as data:
            assert [str(n) for n in data["names"]] == [corpus.wav_name(k) for k in range(len(corpus.ANCHORS))]
            assert data["rows"].shape == (len(corpus.ANCHORS), self.LAYOUT.dim)

    def test_failed_command_is_rejected(self, tmp_path):
        assert checks.check_feature_cache(2, tmp_path / "none.npz", "x", 1, 1)[0]
        assert checks.check_cv_audio(3, tmp_path, 2, "x")[0]

    @pytest.fixture(scope="class")
    def train_out(self, tmp_path_factory):
        """A real two-fold report plus checkpoints, from a tiny configuration."""
        index, matrix = fixture.synthetic_dataset(seed=0)
        source = training.ArrayFeatureSource([r.path for r in index.rows], matrix)
        cfg = load_config(preset="full", overrides={
            "folds": 2, "train.stage1_epochs": 1, "train.stage2_max_epochs": 1,
            "lstm.hidden": 4, "kan.hidden": 4,
        })
        report, artifacts = training.run_cv(cfg, index, source)
        out = tmp_path_factory.mktemp("train")
        export(report, out)
        for art in artifacts:
            save_checkpoint(art.model, out / f"model_fold{art.fold}.npz", source.fingerprint)
        return out, report, source.fingerprint

    def test_cv_audio_accepts_a_complete_run(self, train_out):
        out, _, fingerprint = train_out
        failures, report = checks.check_cv_audio(0, out, 2, fingerprint)
        assert failures == [] and len(report.folds) == 2

    def test_cv_audio_rejects_an_incomplete_fold(self, train_out, tmp_path):
        out, _, fingerprint = train_out
        data = json.loads((out / "report.json").read_text())
        data["folds"] = data["folds"][:1]
        data["incomplete"] = [{"fold": 1, "error": "TrainingAbort: non-finite gradient"}]
        for p in out.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        (tmp_path / "report.json").write_text(json.dumps(data))
        failures, _ = checks.check_cv_audio(0, tmp_path, 2, fingerprint)
        assert any("incomplete" in f for f in failures)

    def test_cv_features_rejects_an_incomplete_fold(self, train_out):
        _, report, _ = train_out
        broken = types.SimpleNamespace(
            pooled=types.SimpleNamespace(macro_f1=0.99),
            folds=report.folds[:1],
            incomplete=[{"fold": 1, "error": "ValueError: boom"}],
        )
        assert any("incomplete" in f for f in checks.check_cv_features(broken, 2))

    def test_cv_features_floor(self):
        report = types.SimpleNamespace(
            pooled=types.SimpleNamespace(macro_f1=0.9499), folds=[1, 2], incomplete=[]
        )
        assert any("below 0.95" in f for f in checks.check_cv_features(report, 2))
        report.pooled.macro_f1 = 0.95
        assert checks.check_cv_features(report, 2) == []
