import errno
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from conftest import make_small_dataset, traced_peak
from kan_ausculta import atomic as atomic_module
from kan_ausculta import cli as cli_module
from kan_ausculta import training
from kan_ausculta.cli import main
from kan_ausculta.config import load_config
from kan_ausculta.dataset import ingest
from kan_ausculta.errors import ContractViolation, DataError
from kan_ausculta.features import FeatureConfig
from kan_ausculta.model import load_checkpoint, parameters
from kan_ausculta.training import ArrayFeatureSource, run_cv
from test_config import BAD_SETTINGS, REMOVED_KEYS

SR = 22050

PRESETS = ("baseline_ce", "focal_only", "augment_only", "smote_only", "full")


@pytest.fixture
def count_extractions(monkeypatch):
    """The row of each base-row extraction (``cli.extract`` call), in call order.

    The cache environment variable is cleared, so only an explicit --cache is read.
    """
    extracted = []
    real = cli_module.extract

    def counting(sig, layout):
        extracted.append(real(sig, layout))
        return extracted[-1]

    monkeypatch.setattr(cli_module, "extract", counting)
    monkeypatch.delenv("KAN_AUSCULTA_CACHE", raising=False)
    return extracted


def write_corpus(root, counts):
    """Short tonal recordings, ``counts[name]`` of them for one patient per class."""
    audio = root / "audio"
    audio.mkdir()
    rng = np.random.default_rng(0)
    table_lines = []
    pid = 200
    for name, base_freq in (("COPD", 250.0), ("Healthy", 600.0), ("Pneumonia", 1200.0)):
        for k in range(counts[name]):
            t = np.arange(int(0.25 * SR)) / SR
            freq = base_freq * (1.0 + 0.05 * rng.normal())
            tone = 0.5 * np.sin(2 * np.pi * freq * t)
            tone += 0.02 * rng.normal(size=t.size)
            scipy.io.wavfile.write(
                audio / f"{pid}_r{k}_chest.wav", SR, tone.astype(np.float32)
            )
        table_lines.append(f"{pid}\t{name}")
        pid += 1
    table = root / "diagnosis.txt"
    table.write_text("\n".join(table_lines) + "\n")
    return audio, table


def set_strong_encryption_flag(archive):
    """Set flag bit 6 ("strong encryption") of the first central-directory entry of ``archive``."""
    data = bytearray(archive.read_bytes())
    end = data.rindex(b"PK\x05\x06")  # end-of-central-directory record
    start = int.from_bytes(data[end + 16 : end + 20], "little")
    data[start + 8] |= 0x40
    archive.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Ten short tonal recordings for each of three classes."""
    return write_corpus(tmp_path_factory.mktemp("cli-corpus"),
                        {"COPD": 10, "Healthy": 10, "Pneumonia": 10})


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-cfg") / "fast.cfg"
    path.write_text(
        "\n".join(
            [
                "folds = 2",
                "train.stage2_max_epochs = 2",
                "train.stage1_epochs = 1",
                "train.batch_size = 8",
                "lstm.hidden = 4",
                "kan.hidden = 4",
            ]
        )
        + "\n"
    )
    return path



@pytest.fixture
def failing_csv_write(monkeypatch):
    """Make the CLI's writes of the named CSVs fail half-way ("write") or at the rename."""

    def install(mode, names):
        if mode == "write":
            real_open = open

            class HalfWritten:
                def __init__(self, *args):
                    self.fh = real_open(*args)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, data):
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("no space left on device")

            monkeypatch.setattr(atomic_module, "open", HalfWritten, raising=False)
        else:
            real_replace = os.replace

            def refuse(src, dst):
                if Path(dst).name in names:
                    raise OSError("rename refused")
                real_replace(src, dst)

            monkeypatch.setattr(atomic_module.os, "replace", refuse)

    return install


class TestIngestCommand:
    def test_prints_histogram_and_writes_index(self, corpus, tmp_path, capsys):
        audio, table = corpus
        code = main(["ingest", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recordings: 30" in out
        assert (tmp_path / "index.csv").read_text().count("\n") == 31
        assert (tmp_path / "rejects.csv").exists()

    def test_config_floor_keeps_the_classes_extract_indexes(self, tmp_path, capsys):
        audio, table = write_corpus(tmp_path, {"COPD": 4, "Healthy": 3, "Pneumonia": 2})
        config = tmp_path / "floor.cfg"
        config.write_text("data.min_class_count = 3\n")
        data = ["--data", str(audio), "--diagnosis", str(table), "--config", str(config)]
        assert main(["ingest", *data, "--out", str(tmp_path / "index")]) == 0
        assert "dropped (< 3 recordings): {'Pneumonia': 2}" in capsys.readouterr().out
        assert main(["extract", *data, "--out", str(tmp_path / "features.npz")]) == 0
        from kan_ausculta.features import load_feature_cache

        _, paths, _, labels = load_feature_cache(tmp_path / "features.npz")
        lines = (tmp_path / "index" / "index.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [row[0] for row in rows] == list(paths)
        assert [row[2] for row in rows] == ["Healthy"] * 3 + ["COPD"] * 4
        assert list(labels) == [0] * 3 + [1] * 4

    def test_missing_directory_exits_2(self, corpus, capsys):
        _, table = corpus
        code = main(["ingest", "--data", "/nonexistent-dir", "--diagnosis", str(table)])
        assert code == 2

    @pytest.mark.parametrize("mode", ["write", "rename"])
    def test_failed_write_keeps_previous_csvs(self, corpus, tmp_path, failing_csv_write,
                                              mode, capsys):
        audio, table = corpus
        (tmp_path / "index.csv").write_text("previous index\n")
        (tmp_path / "rejects.csv").write_text("previous rejects\n")
        failing_csv_write(mode, {"index.csv", "rejects.csv"})
        assert main(["ingest", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(tmp_path)]) == 2
        assert (tmp_path / "index.csv").read_text() == "previous index\n"
        assert (tmp_path / "rejects.csv").read_text() == "previous rejects\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.csv", "rejects.csv"]

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["ingest", "--data", "/somewhere"]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1


class TestExtractCommand:
    def test_writes_cache(self, corpus, tmp_path, capsys):
        audio, table = corpus
        cache = tmp_path / "features.npz"
        code = main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(cache)])
        assert code == 0
        assert cache.exists()
        from kan_ausculta.features import load_feature_cache

        _, paths, matrix, labels = load_feature_cache(cache)
        assert matrix.shape == (30, 1927)
        assert len(paths) == 30

    def test_out_without_suffix_round_trips_into_train(self, corpus, config_file, tmp_path,
                                                       count_extractions, capsys):
        audio, table = corpus
        cache = tmp_path / "feats"
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(cache)]) == 0
        assert cache.is_file() and not (tmp_path / "feats.npz").exists()
        count_extractions.clear()  # extract's own rows
        code = main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(tmp_path / "run"), "--seed", "3",
            "--cache", str(cache),
        ])
        assert code == 0
        assert count_extractions == []  # every base row came from the cache

    def test_non_finite_recording_exits_2_naming_it(self, tmp_path, capsys):
        audio, table = write_corpus(tmp_path, {"COPD": 10, "Healthy": 10, "Pneumonia": 10})
        bad = audio / "201_r3_chest.wav"
        rate, samples = scipy.io.wavfile.read(bad)
        samples[100] = np.nan
        scipy.io.wavfile.write(bad, rate, samples)
        code = main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(tmp_path / "features.npz")])
        assert code == 2
        assert f"non-finite samples in audio file {bad}" in capsys.readouterr().err
        assert not (tmp_path / "features.npz").exists()

    def test_truncated_cache_exits_2(self, corpus, config_file, tmp_path, capsys):
        audio, table = corpus
        cache = tmp_path / "features.npz"
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(cache)]) == 0
        data = cache.read_bytes()
        cache.write_bytes(data[: len(data) // 2])
        code = main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(tmp_path / "run"),
            "--cache", str(cache),
        ])
        assert code == 2
        assert "unreadable feature cache" in capsys.readouterr().err

    def test_bare_npy_cache_exits_2(self, corpus, config_file, tmp_path, capsys):
        audio, table = corpus
        cache = tmp_path / "features.npz"
        with open(cache, "wb") as fh:
            np.save(fh, np.zeros((3, 4)))
        code = main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(tmp_path / "run"),
            "--cache", str(cache),
        ])
        assert code == 2
        assert "unreadable feature cache" in capsys.readouterr().err

    def test_encrypted_flag_cache_exits_2(self, corpus, config_file, tmp_path, capsys):
        audio, table = corpus
        cache = tmp_path / "features.npz"
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(cache)]) == 0
        set_strong_encryption_flag(cache)
        code = main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(tmp_path / "run"),
            "--cache", str(cache),
        ])
        assert code == 2
        assert "unreadable feature cache" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, out", [("extract", "cache.npz"), ("ingest", "sub")])
    def test_out_below_a_file_exits_2(self, corpus, tmp_path, command, out, capsys):
        audio, table = corpus
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        code = main([command, "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(blocker / out)])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_cache_env_variable(self, corpus, tmp_path, monkeypatch, capsys):
        audio, table = corpus
        cache = tmp_path / "env-cache.npz"
        monkeypatch.setenv("KAN_AUSCULTA_CACHE", str(cache))
        code = main(["extract", "--data", str(audio), "--diagnosis", str(table)])
        assert code == 0
        assert cache.exists()


class TestTrainCommand:
    def test_full_run_writes_all_artifacts(self, corpus, config_file, tmp_path, capsys):
        audio, table = corpus
        out = tmp_path / "run"
        code = main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        for name in ("report.json", "confusion.csv", "per_class.csv", "folds.csv",
                     "calibration.csv", "model_fold0.npz", "model_fold1.npz"):
            assert (out / name).exists(), name
        text = capsys.readouterr().out
        assert "pooled OOF macro F1" in text

    def test_checkpoint_loads_and_exports_splines(self, corpus, config_file, tmp_path,
                                                  capsys):
        audio, table = corpus
        out = tmp_path / "run"
        main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(out), "--seed", "3",
        ])
        spline_dir = tmp_path / "splines"
        capsys.readouterr()
        code = main(["export-splines", "--checkpoint", str(out / "model_fold0.npz"),
                     "--out", str(spline_dir), "--samples", "5"])
        assert code == 0
        kan = load_checkpoint(out / "model_fold0.npz")[0].kan
        curves = sum(layer.n_out * layer.n_in for layer in kan.layers)
        assert f"wrote {curves} curves" in capsys.readouterr().out
        lines = (spline_dir / "splines.csv").read_text().splitlines()
        assert lines[0] == "layer,out_index,in_index,x,phi"
        assert len(lines) == 1 + curves * 5

    @pytest.mark.parametrize("damage", ["missing", "empty", "half", "tail", "noise", "v1",
                                        "v2", "v3", "encrypted"])
    def test_unreadable_checkpoint_exits_2(self, corpus, config_file, tmp_path, damage,
                                           capsys):
        audio, table = corpus
        out = tmp_path / "run"
        assert main([
            "train", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(out), "--seed", "3",
        ]) == 0
        ckpt = out / "model_fold0.npz"
        data = ckpt.read_bytes()
        if damage == "missing":
            ckpt.unlink()
        elif damage in ("empty", "half", "tail"):
            fraction = {"empty": 0.0, "half": 0.5, "tail": 0.95}[damage]
            ckpt.write_bytes(data[: int(len(data) * fraction)])
        elif damage == "noise":
            ckpt.write_bytes(np.random.default_rng(8).bytes(len(data)))
        elif damage == "encrypted":
            set_strong_encryption_flag(ckpt)
        else:
            with np.load(ckpt) as npz:
                arrays = {key: npz[key] for key in npz.files}
            header = json.loads(bytes(arrays["header"]).decode())
            if damage == "v1":
                header.update(version=1, base_branch=False)
            else:
                # versions 2 and 3 held one w_x, bias pair per direction, and
                # version 2 a forget block between the input and cell blocks
                header.update(version=int(damage[1]))
                h = header["lstm_hidden"]
                w_x, bias = arrays.pop("lstm__w_x"), arrays.pop("lstm__bias")
                for k, tag in enumerate(("fwd", "bwd")):
                    w_x_k = w_x.reshape(3, 2, h, -1)[:, k].reshape(3 * h, -1)
                    bias_k = bias.reshape(3, 2, h)[:, k].reshape(3 * h)
                    if damage == "v2":
                        w_x_k = np.concatenate([w_x_k[:h], 0 * w_x_k[:h], w_x_k[h:]])
                        bias_k = np.concatenate([bias_k[:h], np.ones(h), bias_k[h:]])
                    arrays[f"lstm__{tag}__w_x"], arrays[f"lstm__{tag}__bias"] = w_x_k, bias_k
            arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
            np.savez(ckpt, **arrays)
        code = main(["export-splines", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "splines")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err
        if damage in ("v1", "v2", "v3"):
            assert f"unsupported checkpoint version {damage[1]}" in err


    def test_bare_npy_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model_fold0.npz"
        with open(ckpt, "wb") as fh:
            np.save(fh, np.zeros((3, 4)))
        code = main(["export-splines", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "splines")])
        assert code == 2
        assert "unreadable checkpoint" in capsys.readouterr().err


RUN_FILES = ["calibration.csv", "confusion.csv", "folds.csv", "model_fold0.npz",
             "model_fold1.npz", "per_class.csv", "report.json"]


class TestRunFiles:
    """``train`` writes each checkpoint when its fold ends, staged with the run's other files."""

    def train(self, corpus, config_file, out, seed=3):
        audio, table = corpus
        return main(["train", "--data", str(audio), "--diagnosis", str(table),
                     "--config", str(config_file), "--out", str(out), "--seed", str(seed)])

    def test_failed_checkpoint_write_exits_2_and_lands_no_file(self, corpus, config_file,
                                                               tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert self.train(corpus, config_file, out) == 0
        previous = {p.name: p.read_bytes() for p in out.iterdir()}
        real, calls = cli_module.save_checkpoint, []

        def full_disk(model, path, **kwargs):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(model, path, **kwargs)

        monkeypatch.setattr(cli_module, "save_checkpoint", full_disk)
        assert self.train(corpus, config_file, out, seed=4) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(out / "model_fold1.npz") in err
        # the earlier run's files are all there, unchanged, and nothing else is
        assert {p.name: p.read_bytes() for p in out.iterdir()} == previous

    def fail_every_fold(self, monkeypatch):
        def abort(*args, **kwargs):
            raise FloatingPointError("diverged")

        monkeypatch.setattr(training, "adamw_step", abort)

    def leak_after_fold_0(self, monkeypatch):
        real = training._run_fold

        def run_fold(cfg, fold_idx, *args):
            if fold_idx == 1:
                raise ContractViolation("scaler fitting received a validation-tagged row")
            return real(cfg, fold_idx, *args)

        monkeypatch.setattr(training, "_run_fold", run_fold)

    @pytest.mark.parametrize("outcome, code", [("success", 0), ("all folds fail", 3),
                                               ("violation after fold 0", 3)])
    @pytest.mark.parametrize("existing", [False, True])
    def test_no_staging_leftovers(self, corpus, config_file, tmp_path, monkeypatch, outcome,
                                  code, existing, capsys):
        out = tmp_path / "run"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept\n")
        if outcome == "all folds fail":
            self.fail_every_fold(monkeypatch)
        elif outcome == "violation after fold 0":
            self.leak_after_fold_0(monkeypatch)
        assert self.train(corpus, config_file, out) == code
        expected = (["notes.txt"] if existing else []) + (RUN_FILES if code == 0 else [])
        if not existing and code != 0:
            assert not out.exists()  # the failed run made it and took it away again
        else:
            assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    def test_peak_holds_no_finished_fold_model(self, tmp_path):
        # d_feat near the audio layout's 1927, so the parameters dwarf the rows
        index, features = make_small_dataset(seed=3, d_feat=2000)
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        cfg = load_config(preset="full", overrides={
            "seed": 4, "folds": 3, "train.stage1_epochs": 1, "train.stage2_max_epochs": 3,
            "train.batch_size": 32,
        })
        out = tmp_path / "run"
        (report, written), peak = traced_peak(
            lambda: cli_module._train_once(cfg, index, source, out))
        assert not report.incomplete and len(written) == 5 + cfg.folds
        model = load_checkpoint(out / "model_fold0.npz")[0]
        param_bytes = sum(arr.nbytes for arr in parameters(model).values())
        # the last fold holds its model, one AdamW m/v pair, the best-epoch
        # snapshot and one gradient dict: five parameter sets, plus the rows and
        # the backward pass's temporaries. Each earlier fold's model kept to the
        # end adds one more.
        assert peak < 6 * param_bytes


class TestExtractParallel:
    def test_jobs_flag_preserves_order(self, corpus, tmp_path, capsys):
        audio, table = corpus
        serial = tmp_path / "serial.npz"
        parallel = tmp_path / "parallel.npz"
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(serial)]) == 0
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(parallel), "--jobs", "2"]) == 0
        from kan_ausculta.features import load_feature_cache

        _, paths_a, matrix_a, _ = load_feature_cache(serial)
        _, paths_b, matrix_b, _ = load_feature_cache(parallel)
        assert paths_a == paths_b
        np.testing.assert_array_equal(matrix_a, matrix_b)

    @pytest.mark.parametrize("flag, expected", [([], 2), (["--jobs", "1"], 1)])
    def test_config_jobs_reach_extraction(self, corpus, tmp_path, monkeypatch, flag, expected,
                                          capsys):
        audio, table = corpus
        config = tmp_path / "jobs.cfg"
        config.write_text("jobs = 2\n")
        seen = []
        real = cli_module._extract_all

        def serial(paths, feature_config, jobs):  # records jobs, extracts as at jobs 1
            seen.append(jobs)
            return real(paths, feature_config, 1)

        monkeypatch.setattr(cli_module, "_extract_all", serial)
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--config", str(config), "--out", str(tmp_path / "features.npz"),
                     *flag]) == 0
        assert seen == [expected]


def index_paths(audio, table):
    return [row.path for row in ingest(audio, table, 3).index.rows]


@pytest.fixture
def stage_calls(monkeypatch):
    """The paths ``cli.read_wav`` read, the signals ``preprocess`` returned and
    the signals ``extract`` was given, as seen in this process."""
    real_read, real_preprocess, real_extract = (
        cli_module.read_wav, cli_module.preprocess, cli_module.extract)
    read, filtered, extracted = [], [], []

    def read_wav(path):
        read.append(path)
        return real_read(path)

    def preprocess(sig, cfg):
        filtered.append(real_preprocess(sig, cfg))
        return filtered[-1]

    def extract(sig, layout):
        extracted.append(sig)
        return real_extract(sig, layout)

    monkeypatch.setattr(cli_module, "read_wav", read_wav)
    monkeypatch.setattr(cli_module, "preprocess", preprocess)
    monkeypatch.setattr(cli_module, "extract", extract)
    return read, filtered, extracted


class TestExtractPipeline:
    """``jobs`` 1: a helper thread decodes and filters row i + 1 while row i is
    extracted. ``jobs`` > 1: ``jobs`` threads of this process extract whole rows."""

    def test_rows_equal_extract_one_in_order(self, corpus):
        paths = index_paths(*corpus)
        cfg = FeatureConfig()
        expected = [cli_module._extract_one(p, cfg) for p in paths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            matrices = [cli_module._extract_all(paths, cfg, jobs) for jobs in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for matrix in matrices:
            assert matrix.shape == (len(paths), len(expected[0]))
            for row, want in zip(matrix, expected):
                assert row.tobytes() == want.tobytes()

    def test_each_stage_runs_once_per_path_and_the_helper_is_joined(self, corpus, stage_calls):
        paths = index_paths(*corpus)
        read, filtered, extracted = stage_calls
        threads = threading.active_count()
        cli_module._extract_all(paths, FeatureConfig(), 1)
        assert threading.active_count() == threads
        assert read == paths
        assert len(filtered) == len(paths)
        # each signal preprocess made is extracted once, in path order
        assert [id(sig) for sig in extracted] == [id(sig) for sig in filtered]

    def test_threads_run_each_stage_once_per_path_in_this_process(self, corpus, stage_calls):
        paths = index_paths(*corpus)
        read, filtered, extracted = stage_calls
        threads = threading.active_count()
        cli_module._extract_all(paths, FeatureConfig(), 2)
        assert threading.active_count() == threads
        # the threads finish rows in any order
        assert sorted(read) == sorted(paths)
        assert len(filtered) == len(paths)
        assert sorted(id(sig) for sig in extracted) == sorted(id(sig) for sig in filtered)

    @pytest.mark.parametrize("damage", ["undecodable", "non-finite"])
    def test_bad_recording_in_the_middle_exits_2_naming_it(self, tmp_path, damage, capsys):
        audio, table = write_corpus(tmp_path, {"COPD": 10, "Healthy": 10, "Pneumonia": 10})
        paths = index_paths(audio, table)
        bad = Path(paths[len(paths) // 2])
        if damage == "undecodable":
            bad.write_bytes(b"RIFF not really a wave file")
        else:
            rate, samples = scipy.io.wavfile.read(bad)
            samples[100] = np.inf
            scipy.io.wavfile.write(bad, rate, samples)
        threads = threading.active_count()
        code = main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(tmp_path / "features.npz")])
        assert threading.active_count() == threads
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(bad) in err
        assert not (tmp_path / "features.npz").exists()

    def test_first_bad_recording_in_list_order_is_named(self, tmp_path, stage_calls):
        audio, table = write_corpus(tmp_path, {"COPD": 10, "Healthy": 10, "Pneumonia": 10})
        paths = index_paths(audio, table)
        for k in (5, 6, 20):
            Path(paths[k]).write_bytes(b"garbage")
        read = stage_calls[0]
        with pytest.raises(DataError, match=str(paths[5])):
            cli_module._extract_all(paths, FeatureConfig(), 1)
        assert read == paths[:6]  # nothing past the failed recording is read

    def test_threads_name_the_first_bad_recording_in_list_order(self, tmp_path, stage_calls):
        audio, table = write_corpus(tmp_path, {"COPD": 10, "Healthy": 10, "Pneumonia": 10})
        paths = index_paths(audio, table)
        for k in (5, 6, 20):
            Path(paths[k]).write_bytes(b"garbage")
        read = stage_calls[0]
        threads = threading.active_count()
        with pytest.raises(DataError, match=str(paths[5])):
            cli_module._extract_all(paths, FeatureConfig(), 2)
        assert threading.active_count() == threads
        # at most 2 * jobs calls are queued from the row being taken on, and
        # none is submitted after a failed take
        assert set(read) <= set(paths[:9])
        assert paths[20] not in read

    def test_extract_error_propagates_while_the_next_row_loads(self, corpus, monkeypatch):
        paths = index_paths(*corpus)
        failing = 3
        loading, failed = threading.Event(), threading.Event()
        real_preprocess, real_extract = cli_module.preprocess, cli_module.extract
        decoded, extracted = [], []

        def preprocess(sig, cfg):
            decoded.append(sig)
            if len(decoded) == failing + 2:  # row failing + 1 waits until row failing has failed
                loading.set()
                assert failed.wait(10)
            return real_preprocess(sig, cfg)

        def extract(sig, layout):
            extracted.append(sig)
            if len(extracted) == failing + 1:
                assert loading.wait(10)  # row failing + 1 is loading right now
                failed.set()
                raise FloatingPointError("extraction failed")
            return real_extract(sig, layout)

        monkeypatch.setattr(cli_module, "preprocess", preprocess)
        monkeypatch.setattr(cli_module, "extract", extract)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="extraction failed"):
            cli_module._extract_all(paths, FeatureConfig(), 1)
        assert threading.active_count() == threads
        # nothing was started past the row after the failed one
        assert len(decoded) == failing + 2 and len(extracted) == failing + 1

    def test_extract_error_wins_over_a_failing_load_beside_it(self, corpus, monkeypatch):
        paths = index_paths(*corpus)
        real_read, real_extract = cli_module.read_wav, cli_module.extract

        def read_wav(path):
            if path == paths[2]:
                raise DataError(f"unreadable audio file {path}")
            return real_read(path)

        extracted = []

        def extract(sig, layout):
            extracted.append(sig)
            if len(extracted) == 2:
                raise FloatingPointError("row 1 failed")
            return real_extract(sig, layout)

        monkeypatch.setattr(cli_module, "read_wav", read_wav)
        monkeypatch.setattr(cli_module, "extract", extract)
        with pytest.raises(FloatingPointError, match="row 1 failed"):
            cli_module._extract_all(paths, FeatureConfig(), 1)


class TestBaseRowExtraction:
    """``train`` and ``ablate`` extract every uncached recording up front, as ``extract`` does."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_undecodable_recording_exits_2_naming_it(self, config_file, tmp_path, monkeypatch,
                                                     command, jobs, capsys):
        monkeypatch.delenv("KAN_AUSCULTA_CACHE", raising=False)
        audio, table = write_corpus(tmp_path, {"COPD": 10, "Healthy": 10, "Pneumonia": 10})
        bad = Path(index_paths(audio, table)[15])
        bad.write_bytes(b"RIFF not really a wave file")
        config = tmp_path / "jobs.cfg"
        config.write_text(config_file.read_text() + f"jobs = {jobs}\n")
        out = tmp_path / "run"
        code = main([command, "--data", str(audio), "--diagnosis", str(table),
                     "--config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(bad) in err
        assert not out.exists()

    def test_train_extracts_every_path_before_run_cv_as_the_cache_would(
            self, corpus, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("KAN_AUSCULTA_CACHE", raising=False)
        audio, table = corpus
        data = ["--data", str(audio), "--diagnosis", str(table), "--config", str(config_file)]
        cache = tmp_path / "features.npz"
        cached, fresh = tmp_path / "cached", tmp_path / "fresh"
        assert main(["extract", *data, "--out", str(cache)]) == 0
        assert main(["train", *data, "--seed", "3", "--out", str(cached),
                     "--cache", str(cache)]) == 0

        calls = []
        real_extract_all, real_run_cv = cli_module._extract_all, cli_module.run_cv

        def extract_all(paths, feature_config, jobs):
            calls.append(("_extract_all", list(paths), jobs))
            return real_extract_all(paths, feature_config, jobs)

        def run_cv(*args):
            calls.append(("run_cv",))
            return real_run_cv(*args)

        monkeypatch.setattr(cli_module, "_extract_all", extract_all)
        monkeypatch.setattr(cli_module, "run_cv", run_cv)
        assert main(["train", *data, "--seed", "3", "--out", str(fresh), "--jobs", "1"]) == 0
        assert calls == [("_extract_all", index_paths(audio, table), 1), ("run_cv",)]
        names = sorted(p.name for p in cached.iterdir())
        assert "report.json" in names and "model_fold1.npz" in names
        assert sorted(p.name for p in fresh.iterdir()) == names
        for name in names:
            assert (fresh / name).read_bytes() == (cached / name).read_bytes(), name


class TestAblateCommand:
    def test_runs_all_presets_with_cache(self, corpus, config_file, tmp_path, capsys):
        audio, table = corpus
        cache = tmp_path / "cache.npz"
        assert main(["extract", "--data", str(audio), "--diagnosis", str(table),
                     "--out", str(cache)]) == 0
        out = tmp_path / "ablation"
        code = main([
            "ablate", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(out), "--seed", "2",
            "--cache", str(cache),
        ])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("preset,accuracy,macro_f1")
        assert len(summary) == 6  # header + five presets
        for preset in ("baseline_ce", "focal_only", "augment_only", "smote_only", "full"):
            assert (out / preset / "report.json").exists()

    @pytest.mark.parametrize("mode", ["write", "rename"])
    def test_failed_summary_write_keeps_previous_summary(self, corpus, config_file, tmp_path,
                                                         failing_csv_write, mode, capsys):
        audio, table = corpus
        out = tmp_path / "ablation"
        out.mkdir()
        (out / "summary.csv").write_text("previous summary\n")
        failing_csv_write(mode, {"summary.csv"})
        assert main(["ablate", "--data", str(audio), "--diagnosis", str(table),
                     "--config", str(config_file), "--out", str(out), "--seed", "2"]) == 2
        assert (out / "summary.csv").read_text() == "previous summary\n"
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["summary.csv"]


    def test_presets_share_one_source(self, corpus, config_file, tmp_path,
                                      count_extractions, capsys):
        audio, table = corpus
        out = tmp_path / "ablation"
        code = main([
            "ablate", "--data", str(audio), "--diagnosis", str(table),
            "--config", str(config_file), "--out", str(out), "--seed", "2",
        ])
        assert code == 0
        assert len(count_extractions) == 30  # once per recording, not once per preset
        assert len({row.tobytes() for row in count_extractions}) == 30  # distinct recordings

        summary = {line.split(",")[0]: line.split(",")[1:3]
                   for line in (out / "summary.csv").read_text().splitlines()[1:]}
        assert list(summary) == list(PRESETS)
        for preset in PRESETS:  # a fresh source per preset gives the same numbers
            cfg = load_config(path=str(config_file), preset=preset, overrides={"seed": 2})
            index = ingest(str(audio), str(table), cfg.min_class_count).index
            report, _ = run_cv(cfg, index, cli_module._audio_source(cfg, index, None))
            assert summary[preset] == [f"{report.pooled.accuracy:.17g}",
                                       f"{report.pooled.macro_f1:.17g}"]


class TestGradcheckCommand:
    def test_passes_and_prints_per_instance(self, capsys):
        code = main(["gradcheck", "--seed", "1", "--instances", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("max relative gradient error") == 3
        assert "PASS" in out


class TestConfigErrors:
    def test_bad_config_key_exits_1(self, corpus, tmp_path, capsys):
        audio, table = corpus
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        code = main(["train", "--data", str(audio), "--diagnosis", str(table),
                     "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_bad_jobs_exits_1_before_extract(self, tmp_path, capsys, source):
        (tmp_path / "bad.cfg").write_text("jobs = -3\n")
        setting = {"config": ["--config", str(tmp_path / "bad.cfg")], "flag": ["--jobs", "0"]}
        # no data directory: reaching ingest would exit 2
        code = main(["extract", "--data", str(tmp_path / "absent"),
                     "--diagnosis", str(tmp_path / "absent.txt"), *setting[source],
                     "--out", str(tmp_path / "features.npz")])
        assert code == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "features.npz").exists()

    @pytest.mark.parametrize("key, value", BAD_SETTINGS + REMOVED_KEYS)
    def test_bad_setting_exits_1_before_ingest(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = {value}\n")
        # no data directory: reaching ingest would exit 2
        code = main(["train", "--data", str(tmp_path / "absent"),
                     "--diagnosis", str(tmp_path / "absent.txt"),
                     "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
