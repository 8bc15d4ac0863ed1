"""Benchmark entry point for kan-ausculta.

    python3 perfbench/run.py --workload cv-features --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from ``./src``
and writes only under ``./.perfbench_work``. Workloads:

- ``cv-features``     ``training.run_cv``, full preset, on the 900 x 24
                      criterion-9 feature fixture
- ``cv-audio``        ``kan-ausculta train`` on a generated WAV corpus
- ``extract-corpus``  ``kan-ausculta extract`` on generated ~20 s recordings

BLAS is pinned to one thread before numpy is imported. The workload runs
in a child process (``workloads.py``) so that its peak resident memory is
its own; ``setup_s`` is the median over ``SETUP_REPEATS`` fresh interpreters
that import ``kan_ausculta.cli`` and build the workload's inputs, half of
them timed before the workload and half after it. With ``--trace 1``
the last line carries the per-layer metrics of one extra traced call
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
directory holds no ``src/kan_ausculta`` to benchmark (nothing is printed
on standard output then).
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cv-features", "cv-audio", "extract-corpus")
SETUP_REPEATS = 4  # about 1.5 s each; split around the workload to sample two machine phases
TIME_LIMIT_S = 170.0  # the whole run must end within 180 s
SETUP_TIMEOUT_S = 30.0

END_TO_END_UNITS = {"wall_s": "s", "recordings_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": _code_digest(root),
    }


def _code_digest(root: Path) -> str:
    """Digest of the program and the benchmark: the same digest makes the same outputs."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py"), *HERE.glob("*.cfg")]):
        digest.update(os.path.relpath(path, root).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _previous_checksums(record_path: Path, digest: str) -> set:
    """Feature checksums of the last run of this workload and seed, if it ran the same code."""
    try:
        old = json.loads(record_path.read_text())
    except (OSError, ValueError):
        return set()
    if old.get("environment", {}).get("source_sha256") != digest:
        return set()
    return {u["checksum"] for u in old.get("units", []) if u.get("checksum")}


def _child(args, workdir: Path, extra=()) -> list:
    return [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]


def _setup_times(args, workdir: Path, env: dict, repeats: int) -> list | None:
    """Wall times of fresh set-up interpreters, or None when one fails."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            done = subprocess.run(_child(args, workdir, ["--setup-only"]), env=env,
                                  stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if done.returncode != 0:
            return None
        times.append(time.perf_counter() - start)
    return times


def _run_worker(cmd: list, env: dict, log_path: Path, timeout: float):
    """Exit code of the workload process, or "timeout"."""
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            return "timeout"
    return done.returncode


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kan-ausculta benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "kan_ausculta" / "cli.py").is_file():
        print(f"error: {root} holds no src/kan_ausculta; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digest = _code_digest(root)
    previous = _previous_checksums(workdir / "record.json", digest)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("KAN_AUSCULTA_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    import corpus

    corpus_info = None
    if args.workload in corpus.SPECS:
        start = time.perf_counter()
        generated = corpus.generate(workdir / "corpus", args.seed, **corpus.SPECS[args.workload])
        corpus_info = {"files": generated.files, "recordings": generated.recordings,
                       "bytes": generated.bytes, "generate_s": time.perf_counter() - start}

    before = 0 if args.trace else SETUP_REPEATS // 2
    after = 0 if args.trace else SETUP_REPEATS - before
    log_path = workdir / "worker.log"
    code = None
    setup = _setup_times(args, workdir, env, before)
    if setup is not None:
        # leave about 2 s for each set-up interpreter that follows
        budget = TIME_LIMIT_S - (time.perf_counter() - started) - 2.0 * after
        code = _run_worker(_child(args, workdir), env, log_path, budget)
        later = _setup_times(args, workdir, env, after)
        setup = None if later is None else setup + later
    shutil.rmtree(workdir / "corpus", ignore_errors=True)  # tens of MB per run
    if setup is None:
        print("error: a set-up interpreter failed", file=sys.stderr)
        _print_result(False, 0, 0, {})
        return 1
    result_path = workdir / "result.json"
    if code != 0 or not result_path.is_file():
        print(f"error: worker exit {code}; see {log_path}", file=sys.stderr)
        print(log_path.read_text()[-3000:], file=sys.stderr)
        _print_result(False, 0, 0, {})
        return 1
    result = json.loads(result_path.read_text())
    units = result["units"]
    for unit in units:
        if previous and unit.get("checksum") and unit["checksum"] not in previous:
            result["failures"].append(
                f"feature checksum {unit['checksum']} differs from the last run's {sorted(previous)}")

    if args.trace:
        metrics = result["layers"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "recordings_per_s": result["rows"] / result["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    f1 = [u["pooled_macro_f1"] for u in units if "pooled_macro_f1" in u]
    failed_fraction = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{args.workload} seed {args.seed}: {len(result['walls'])} timed call(s), "
          f"walls {[round(w, 3) for w in result['walls']]} s")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'pooled_macro_f1':40s} {f1[0] if f1 else 'n/a'} 1")
    print(f"  {'failed_fraction':40s} {failed_fraction:.6g} 1")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")

    env_info = _environment(root)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_info, "corpus": corpus_info, "setup_runs_s": setup,
              "walls_s": result["walls"], "units": units,
              "failures": result["failures"], "metrics": metrics}
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    print("environment " + json.dumps(env_info))
    if units and "reproduces_reference" in units[0]:
        print(f"criterion-9 reference reproduced: {units[0]['reproduces_reference']}")

    correct = not result["failures"]
    _print_result(correct, result["attempted"], result["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
