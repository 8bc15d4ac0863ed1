"""Command-line front end.

Subcommands:
    ingest          build and summarize the recording index
    extract         extract features for every indexed recording into a cache
    train           run cross-validated training and export the report
    ablate          run every imbalance-technique preset and summarize
    export-splines  sample the learned edge functions from a checkpoint
    gradcheck       verify analytic gradients against finite differences

Exit codes: 0 success, 1 usage/config error, 2 data error (including a file
that cannot be read or written), 3 numerical failure.
The feature cache location can be overridden with KAN_AUSCULTA_CACHE.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import staged_directory, write_text
from .config import PRESETS, load_config
from .dataset import ingest
from .errors import ContractViolation, DataError, TrainingAbort
from .features import (
    FeatureConfig,
    default_layout,
    extract,
    load_feature_cache,
    preprocess,
    read_wav,
    save_feature_cache,
)
from .kan import export_splines
from .model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from .optim import FocalParams, finite_diff_check
from .report import export, splines_csv_text
from .training import AudioFeatureSource, ReadAhead, run_cv

log = logging.getLogger(__name__)

CACHE_ENV = "KAN_AUSCULTA_CACHE"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kan-ausculta", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_opts(p):
        p.add_argument("--data", required=True, help="directory of WAV recordings")
        p.add_argument("--diagnosis", required=True, help="patient-id/diagnosis table")

    p_ingest = sub.add_parser("ingest", help="build and summarize the recording index")
    add_data_opts(p_ingest)
    p_ingest.add_argument("--out", help="write index.csv and rejects.csv here")
    p_ingest.add_argument("--config", help="run configuration file")

    p_extract = sub.add_parser("extract", help="extract features into a cache file")
    add_data_opts(p_extract)
    p_extract.add_argument("--out", help="cache file path (default: env or ./features.npz)")
    p_extract.add_argument("--config", help="run configuration file")
    p_extract.add_argument("--jobs", type=int, help="parallel extraction workers")

    p_train = sub.add_parser("train", help="cross-validated training")
    add_data_opts(p_train)
    p_train.add_argument("--out", required=True, help="report/checkpoint output directory")
    p_train.add_argument("--config", help="run configuration file")
    p_train.add_argument("--preset", choices=sorted(PRESETS), help="ablation preset")
    p_train.add_argument("--seed", type=int, help="override the run seed")
    p_train.add_argument("--folds", type=int, help="override the fold count")
    p_train.add_argument("--jobs", type=int, help="worker pool size for extraction")
    p_train.add_argument("--cache", help="feature cache file to reuse")

    p_ablate = sub.add_parser("ablate", help="run every preset and summarize")
    add_data_opts(p_ablate)
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--config", help="run configuration file")
    p_ablate.add_argument("--seed", type=int)
    p_ablate.add_argument("--folds", type=int)
    p_ablate.add_argument("--cache", help="feature cache file to reuse")

    p_spl = sub.add_parser("export-splines", help="dump learned edge functions to CSV")
    p_spl.add_argument("--checkpoint", required=True)
    p_spl.add_argument("--out", required=True, help="output directory")
    p_spl.add_argument("--samples", type=int, default=41, help="samples per curve")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--instances", type=int, default=20)

    return parser


# ----------------------------------------------------------------------------
# helpers


def _cache_path(explicit) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else Path("features.npz")


def _load(path, cfg: FeatureConfig):
    return preprocess(read_wav(path), cfg)


def _extract_one(path, cfg: FeatureConfig):
    return extract(_load(path, cfg), default_layout(cfg))


def _extract_all(paths, feature_config: FeatureConfig, jobs: int) -> np.ndarray:
    """``_extract_one`` of each path, stacked in input order.

    With ``jobs`` > 1 a process pool extracts the rows. With ``jobs`` 1 a
    ``ReadAhead`` helper thread decodes and filters recording i + 1 while
    this thread extracts recording i (scipy's filters, numpy's FFT and the
    sparse product release the GIL), so at most two recordings are in
    flight. The first error in list order propagates, as in a serial loop: a
    failed load surfaces only once every earlier row is extracted, and a
    failed extract wins over the load running beside it. The helper is
    joined before this returns or raises.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # map preserves input order
            return np.stack(list(pool.map(_extract_one, paths, itertools.repeat(feature_config))))
    layout = default_layout(feature_config)
    # only the recording ahead stays alive while the current one is extracted
    with ReadAhead([partial(_load, path, feature_config) for path in paths], 1) as loads:
        return np.stack([extract(loads.take(), layout) for _ in paths])


def _load_run_config(args, preset=None):
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "folds", None) is not None:
        overrides["folds"] = args.folds
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    return load_config(path=args.config, preset=preset, overrides=overrides)


def _audio_source(cfg, index, cache_file) -> AudioFeatureSource:
    """The index's base rows: from ``cache_file`` if given, the rest extracted now."""
    cache = {}
    layout = default_layout(cfg.features)
    if cache_file and Path(cache_file).is_file():
        _, paths, matrix, _ = load_feature_cache(
            cache_file, expected_fingerprint=layout.fingerprint
        )
        cache = dict(zip(paths, matrix))
        log.info("loaded %d cached feature rows from %s", len(paths), cache_file)
    missing = [row.path for row in index.rows if row.path not in cache]
    if missing:
        log.info("extracting %d recordings with %d worker(s)", len(missing), cfg.jobs)
        cache.update(zip(missing, _extract_all(missing, cfg.features, cfg.jobs)))
    return AudioFeatureSource(cfg.features, cache)


def _train_once(cfg, index, source, out_dir: Path):
    """``run_cv``, then the report, its CSVs and every fold's checkpoint under ``out_dir``.

    Each checkpoint is written to the staging directory when its fold ends,
    so no finished fold's model outlives the fold. All files move into
    ``out_dir`` in one rename pass once the run has succeeded: a failed write
    (``DataError``, naming the file) or a failed run leaves ``out_dir``
    without any of them.
    """
    with staged_directory(out_dir) as staging:

        def write_fold(art):
            name = f"model_fold{art.fold}.npz"
            try:
                save_checkpoint(
                    art.model,
                    staging / name,
                    fingerprint=source.fingerprint,
                    scaler_mean=art.scaler.mean,
                    scaler_scale=art.scaler.scale,
                    meta={"fold": art.fold, "preset": cfg.preset, "seed": cfg.seed},
                )
            except OSError as exc:
                raise DataError(f"cannot write {out_dir / name}: {exc}") from exc

        report, _ = run_cv(cfg, index, source, write_fold)
        names = [Path(path).name for path in export(report, staging)]
    names += [f"model_fold{f.fold}.npz" for f in report.folds]
    return report, [str(out_dir / name) for name in names]


# ----------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    floor = _load_run_config(args).min_class_count
    result = ingest(args.data, args.diagnosis, floor)
    hist = result.index.histogram()
    print(f"recordings: {len(result.index)}")
    for name in result.index.class_names:
        print(f"  {name:16s} {hist[name]}")
    if result.dropped_classes:
        print(f"dropped (< {floor} recordings): {result.dropped_classes}")
    print(f"rejects: {len(result.rejects)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["path,patient_id,class\n"]
        for row in result.index.rows:
            lines.append(f"{row.path},{row.patient_id},{result.index.class_names[row.label]}\n")
        write_text(out / "index.csv", "".join(lines))
        write_text(
            out / "rejects.csv",
            "path,reason\n" + "".join(f"{p},{r}\n" for p, r in result.rejects),
        )
        print(f"wrote {out / 'index.csv'} and {out / 'rejects.csv'}")
    return 0


def _cmd_extract(args) -> int:
    cfg = _load_run_config(args)
    result = ingest(args.data, args.diagnosis, cfg.min_class_count)
    layout = default_layout(cfg.features)
    paths = [row.path for row in result.index.rows]
    log.info("extracting %d recordings with %d worker(s)", len(paths), cfg.jobs)
    matrix = _extract_all(paths, cfg.features, cfg.jobs)
    cache_file = _cache_path(args.out)
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    save_feature_cache(
        cache_file, layout.fingerprint, paths, matrix, labels=result.index.labels()
    )
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} feature matrix to {cache_file}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_run_config(args, args.preset)
    result = ingest(args.data, args.diagnosis, cfg.min_class_count)
    cache_file = args.cache or os.environ.get(CACHE_ENV)
    source = _audio_source(cfg, result.index, cache_file)
    report, written = _train_once(cfg, result.index, source, Path(args.out))
    print(f"preset {cfg.preset}: pooled OOF macro F1 {report.pooled.macro_f1:.4f}, "
          f"accuracy {report.pooled.accuracy:.4f}")
    for f in report.folds:
        print(f"  fold {f.fold}: macro F1 {f.macro_f1:.4f}, accuracy {f.accuracy:.4f}")
    if report.incomplete:
        print(f"incomplete folds: {report.incomplete}")
    print(f"wrote {len(written)} file(s) under {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    out_root = Path(args.out)
    presets = ("baseline_ce", "focal_only", "augment_only", "smote_only", "full")
    configs = [_load_run_config(args, p) for p in presets]
    # presets set no features.* or data.* key, so one index and one source
    # (one extraction per recording) serve all of them
    result = ingest(args.data, args.diagnosis, configs[0].min_class_count)
    source = _audio_source(configs[0], result.index, args.cache or os.environ.get(CACHE_ENV))
    rows = []
    for preset, cfg in zip(presets, configs):
        report, _ = _train_once(cfg, result.index, source, out_root / preset)
        per_class_f1 = {row["name"]: row["f1"] for row in report.pooled.per_class}
        rows.append((preset, report.pooled.accuracy, report.pooled.macro_f1, per_class_f1))
        print(f"{preset:12s} accuracy {report.pooled.accuracy:.4f} macro F1 {report.pooled.macro_f1:.4f}")

    class_names = list(rows[0][3]) if rows else []
    lines = ["preset,accuracy,macro_f1," + ",".join(f"f1_{n}" for n in class_names) + "\n"]
    for preset, acc, mf1, pcf1 in rows:
        values = ",".join(f"{pcf1[n]:.17g}" for n in class_names)
        lines.append(f"{preset},{acc:.17g},{mf1:.17g},{values}\n")
    out_root.mkdir(parents=True, exist_ok=True)
    write_text(out_root / "summary.csv", "".join(lines))
    print(f"wrote {out_root / 'summary.csv'}")
    return 0


def _cmd_export_splines(args) -> int:
    model, header, _, _ = load_checkpoint(args.checkpoint)
    splines = export_splines(model.kan, args.samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "splines.csv", splines_csv_text(splines))
    curves = sum(phi.shape[0] * phi.shape[1] for _, phi in splines)
    print(f"wrote {curves} curves to {out / 'splines.csv'}")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(args.instances):
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
        print(f"instance {i:2d}: max relative gradient error {err:.3e}")
    print(f"worst over {args.instances} instances: {worst:.3e}")
    if worst >= 1e-4:
        print("FAIL: gradient mismatch", file=sys.stderr)
        return 3
    print("PASS")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        handler = {
            "ingest": _cmd_ingest,
            "extract": _cmd_extract,
            "train": _cmd_train,
            "ablate": _cmd_ablate,
            "export-splines": _cmd_export_splines,
            "gradcheck": _cmd_gradcheck,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # an OSError is a file that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingAbort, ContractViolation, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
