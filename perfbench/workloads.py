"""The benchmark workloads, run in a child process of ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR [--setup-only]

The child builds the workload's inputs, then repeats the one timed call
(``run_cv`` or ``kan-ausculta train``/``extract`` in-process) until
``--seconds`` have passed, checks every output, and writes ``result.json``
into ``--workdir``. With ``--trace 1`` it then runs the call once more with
every layer probe installed and adds the per-layer metrics. With
``--setup-only`` it stops after building the inputs; ``run.py`` times that
in fresh interpreters to get ``setup_s``.

``run.py`` sets the environment (BLAS pinned to one thread, ``src`` on the
import path) and generates the WAV corpus of the audio workloads first.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from kan_ausculta import cli, training
from kan_ausculta.config import load_config
from kan_ausculta.dataset import ingest
from kan_ausculta.features import default_layout

import checks
import corpus
import fixture

CONFIG_FILE = Path(__file__).resolve().parent / "cv-audio.cfg"
CONFIG_SEED = 7  # criterion 9's config seed; cv-audio runs config seed 7 + --seed


class CvFeatures:
    """The criterion-9 run: ``training.run_cv``, full preset, config seed 7.

    Its inputs are the ones acceptance criterion 9 fixes, whatever the seed.
    Other config seeds stop early after 42 to 56 stage-2 epochs instead of
    54, which moves the wall time by up to 30% and would make this
    workload's figures a function of the seed rather than of the code.
    """

    folds = attempts = 5

    def __init__(self, seed: int, workdir: Path):
        self.index, matrix = fixture.synthetic_dataset(seed=0)
        self.rows = len(self.index)
        self.cfg = load_config(preset="full", overrides={"seed": CONFIG_SEED})
        self.source = training.ArrayFeatureSource([r.path for r in self.index.rows], matrix)

    def run(self, unit: int):
        report, _ = training.run_cv(self.cfg, self.index, self.source)
        return report

    def check(self, report, unit: int) -> tuple[int, int, list, dict]:
        failures = checks.check_cv_features(report, self.folds)
        info = {
            "pooled_macro_f1": report.pooled.macro_f1,
            "epochs": [f.epochs_run for f in report.folds],
            "reproduces_reference": checks.reproduces_reference(report),
        }
        return self.folds, len(report.incomplete), failures, info


class _CorpusWorkload:
    def __init__(self, name: str, seed: int, workdir: Path):
        spec = corpus.SPECS[name]
        self.audio = workdir / "corpus" / "audio"
        self.table = workdir / "corpus" / "diagnosis.txt"
        self.rows = sum(spec["class_counts"].values())
        self.seed = seed
        self.workdir = workdir
        self.cfg = load_config()
        self.layout = default_layout(self.cfg.features)

    def check_ingest(self) -> list:
        result = ingest(self.audio, self.table, self.cfg.min_class_count)
        failures = []
        if len(result.rejects) != corpus.REJECTS:
            failures.append(f"{len(result.rejects)} ingest rejects, expected {corpus.REJECTS}")
        if len(result.index) != self.rows:
            failures.append(f"{len(result.index)} recordings indexed, expected {self.rows}")
        return failures


class CvAudio(_CorpusWorkload):
    """``kan-ausculta train`` on the generated corpus, per-epoch re-augmentation on."""

    folds = attempts = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__("cv-audio", seed, workdir)

    def argv(self, out: Path) -> list:
        return [
            "train", "--data", str(self.audio), "--diagnosis", str(self.table),
            "--out", str(out), "--preset", "full",
            "--seed", str(CONFIG_SEED + self.seed), "--folds", str(self.folds),
            "--config", str(CONFIG_FILE),
        ]

    def run(self, unit: int):
        out = self.workdir / f"train-{unit}"
        return cli.main(self.argv(out)), out

    def check(self, outcome, unit: int):
        code, out = outcome
        failures, report = checks.check_cv_audio(code, out, self.folds, self.layout.fingerprint)
        if unit == 0:
            failures += self.check_ingest()
        if report is None:
            return self.folds, self.folds, failures, {}
        shutil.rmtree(out)
        info = {
            "pooled_macro_f1": report.pooled.macro_f1,
            "epochs": [f.epochs_run for f in report.folds],
        }
        return self.folds, len(report.incomplete), failures, info


class ExtractCorpus(_CorpusWorkload):
    """``kan-ausculta extract`` over full-length recordings into the feature cache."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__("extract-corpus", seed, workdir)
        self.attempts = self.rows
        self.checksums = []

    def run(self, unit: int):
        cache = self.workdir / f"features-{unit}.npz"
        args = ["extract", "--data", str(self.audio), "--diagnosis", str(self.table),
                "--out", str(cache)]
        return cli.main(args), cache

    def check(self, outcome, unit: int):
        code, cache = outcome
        failures, checksum = checks.check_feature_cache(
            code, cache, self.layout.fingerprint, self.rows, self.layout.dim,
            reference=checks.REFERENCE_ROWS,
        )
        if unit == 0:
            failures += self.check_ingest()
        if checksum is not None:
            if self.checksums and checksum != self.checksums[0]:
                failures.append(f"feature checksum {checksum} != {self.checksums[0]} of the first pass")
            self.checksums.append(checksum)
            cache.unlink()
        failed = self.rows if code != 0 else 0
        return self.rows, failed, failures, {"checksum": checksum}


WORKLOADS = {"cv-features": CvFeatures, "cv-audio": CvAudio, "extract-corpus": ExtractCorpus}


def _unit(workload, unit: int, result: dict):
    """Run and check one timed call; returns its wall time."""
    start = time.perf_counter()
    try:
        outcome = workload.run(unit)
    except Exception:  # noqa: BLE001 - a crashed call is a failed unit, not a crashed benchmark
        wall = time.perf_counter() - start
        traceback.print_exc()
        result["attempted"] += workload.attempts
        result["failed"] += workload.attempts
        result["failures"].append(f"unit {unit} raised; see worker.log")
        return wall
    wall = time.perf_counter() - start
    attempted, failed, failures, info = workload.check(outcome, unit)
    result["attempted"] += attempted
    result["failed"] += failed
    result["failures"] += [f"unit {unit}: {msg}" for msg in failures]
    result["units"].append(info)
    return wall


def measure(workload, seconds: float, trace: bool, workdir: Path) -> dict:
    result = {"attempted": 0, "failed": 0, "failures": [], "units": [], "walls": []}
    deadline = time.perf_counter() + seconds
    while True:
        wall = _unit(workload, len(result["walls"]), result)
        result["walls"].append(wall)
        # stop unless the next call would end within half a call of the deadline
        if time.perf_counter() + wall / 2 >= deadline:
            break
    result["wall_s"] = statistics.median(result["walls"])

    if trace:
        import layers
        from spans import Tracer, span_cost, summarize, unattributed_s

        tracer = Tracer()
        layers.install(tracer)
        try:
            traced_wall = _unit(workload, len(result["walls"]), result)
        finally:
            tracer.restore()
        tracer.write(workdir / "spans.json")
        spans = tracer.spans
        values = layers.layer_metrics(summarize(spans), {
            "trace.wall_s": traced_wall,
            "trace.spans": len(spans),
            "trace.overhead_s": len(spans) * span_cost(),
            "trace.wall_delta_s": traced_wall - result["wall_s"],
            "trace.unattributed_s": unattributed_s(spans),
        })
        result["layers"] = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in values.items()
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, bool(args.trace), args.workdir)
    result["rows"] = workload.rows
    (args.workdir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
