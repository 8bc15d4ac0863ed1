import dataclasses
import functools
import json
import logging
import queue
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import make_small_dataset, traced_peak
from kan_ausculta import training
from kan_ausculta.cli import _audio_source
from kan_ausculta.config import PRESETS, load_config
from kan_ausculta.dataset import DatasetIndex, IndexRow
from kan_ausculta.errors import ContractViolation, DataError, ShapeError, TrainingAbort
from kan_ausculta.features import FeatureConfig
from kan_ausculta.imbalance import AugmentConfig, SmoteConfig, smote_resample
from kan_ausculta.model import parameters
from kan_ausculta.report import export, load_report
from kan_ausculta.training import (
    ArrayFeatureSource,
    AudioFeatureSource,
    ReadAhead,
    Scaler,
    compute_metric_bundle,
    run_cv,
)


def fast_config(preset="full", **overrides):
    base = {
        "seed": 11,
        "folds": 2,
        "train.stage2_max_epochs": 4,
        "train.stage1_epochs": 2,
        "train.batch_size": 16,
        "lstm.hidden": 6,
        "kan.hidden": 6,
    }
    base.update(overrides)
    return load_config(preset=preset, overrides=base)


def wav_index(tmp_path, per_class=(8, 4, 4)):
    """An index of short generated WAVs, ``per_class`` recordings per class."""
    import scipy.io.wavfile

    rng = np.random.default_rng(0)
    rows = []
    for label, n in enumerate(per_class):
        for k in range(n):
            path = tmp_path / f"{label}_{k}.wav"
            tone = 0.4 * np.sin(np.arange(6000) * (0.05 + 0.03 * label))
            samples = tone + 0.05 * rng.normal(size=6000)
            scipy.io.wavfile.write(path, 22050, samples.astype(np.float32))
            rows.append(IndexRow(path=str(path), patient_id=f"{label}-{k}", label=label))
    return DatasetIndex(rows=rows, class_names=tuple(f"class{c}" for c in range(len(per_class))))


@pytest.fixture(scope="module")
def small_run():
    index, features = make_small_dataset()
    source = ArrayFeatureSource([r.path for r in index.rows], features)
    cfg = fast_config()
    report, artifacts = run_cv(cfg, index, source)
    return cfg, index, source, report, artifacts


class TestScaler:
    def test_zscore_transform(self):
        rng = np.random.default_rng(0)
        features = rng.normal(loc=3.0, scale=2.0, size=(200, 5))
        scaler = Scaler.fit(features)
        transformed = scaler.transform(features)
        np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(transformed.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_does_not_blow_up(self):
        features = np.ones((10, 3))
        scaler = Scaler.fit(features)
        out = scaler.transform(features)
        assert np.all(np.isfinite(out))

    def test_validation_row_rejected(self):
        with pytest.raises(ContractViolation):
            Scaler.fit(np.zeros((3, 2)), split_tags=["train", "val", "train"])

    def test_in_place_transform_equals_the_formula_byte_for_byte(self):
        features = np.random.default_rng(1).normal(loc=-2.0, scale=5.0, size=(50, 7))
        scaler = Scaler.fit(features)
        expected = (features - scaler.mean) / scaler.scale
        rows = features.copy()
        assert scaler.transform(rows, out=rows) is rows
        assert rows.tobytes() == expected.tobytes()
        assert scaler.transform(features).tobytes() == expected.tobytes()


class TestLeakageGuards:
    """A poisoned validation row must trip every train-only path."""

    def test_augmentation_guard(self, monkeypatch):
        # a validation row after training rows is refused before any row is
        # decoded or any gate is drawn
        index, _ = make_small_dataset()
        rows = list(index.rows[:3]) + [dataclasses.replace(index.rows[3], split="val")]
        decoded = []
        monkeypatch.setattr(training, "read_wav", decoded.append)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ContractViolation):
            AudioFeatureSource(FeatureConfig(), {}).epoch_features(
                rows, rng, AugmentConfig(base_probability=1.0), index.class_names)
        assert decoded == [] and rng.bit_generator.state == state

    def test_smote_guard(self):
        features = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ContractViolation):
            smote_resample(features, labels, SmoteConfig(), rng=np.random.default_rng(0),
                           split_tags=["train", "val", "train", "train"])

    def test_scaler_guard(self):
        with pytest.raises(ContractViolation):
            Scaler.fit(np.zeros((2, 2)), split_tags=["val", "train"])

    def test_epoch_features_guard(self):
        index, _ = make_small_dataset()
        audio_source = AudioFeatureSource(FeatureConfig(), {})
        rows = [dataclasses.replace(index.rows[0], split="val")]
        with pytest.raises(ContractViolation):
            audio_source.epoch_features(rows, np.random.default_rng(0),
                                        AugmentConfig(base_probability=1.0),
                                        index.class_names)


class TestRunCv:
    def test_report_shape(self, small_run):
        cfg, index, _, report, artifacts = small_run
        assert len(report.folds) == cfg.folds
        assert len(artifacts) == cfg.folds
        assert report.class_names == list(index.class_names)
        assert report.d_feat == 8
        assert sum(report.fold_sizes) == len(index)
        assert not report.incomplete
        for fold in report.folds:
            assert 1 <= fold.best_epoch <= fold.epochs_run
            assert len(fold.history) == fold.epochs_run
        assert 0.0 <= report.pooled.macro_f1 <= 1.0

    def test_deterministic_given_seed(self, small_run):
        cfg, index, source, report, _ = small_run
        again, _ = run_cv(cfg, index, source)
        assert again.to_dict() == report.to_dict()

    def test_seed_changes_report(self, small_run):
        cfg, index, source, report, _ = small_run
        other_cfg = fast_config(seed=99)
        other, _ = run_cv(other_cfg, index, source)
        assert other.to_dict() != report.to_dict()

    def test_on_fold_gets_each_fold_and_run_cv_keeps_none(self, small_run):
        cfg, index, source, report, artifacts = small_run
        handed = []
        again, kept = run_cv(cfg, index, source, handed.append)
        assert kept == []
        assert again.to_dict() == report.to_dict()
        assert [art.fold for art in handed] == [art.fold for art in artifacts]
        for got, want in zip(handed, artifacts):
            assert got.scaler.mean.tobytes() == want.scaler.mean.tobytes()
            for name, arr in parameters(got.model).items():
                assert arr.tobytes() == parameters(want.model)[name].tobytes()

    def test_a_handed_over_model_is_freed_before_the_next_fold(self, small_run, monkeypatch):
        cfg, index, source, _, _ = small_run
        models, alive_at_start = [], []
        real = training._run_fold

        def run_fold(*args):
            alive_at_start.append([ref() is not None for ref in models])
            return real(*args)

        monkeypatch.setattr(training, "_run_fold", run_fold)
        run_cv(cfg, index, source, lambda art: models.append(weakref.ref(art.model)))
        assert alive_at_start == [[], [False]]

    def test_an_on_fold_error_propagates_and_is_not_a_fold_failure(self, small_run):
        cfg, index, source, _, _ = small_run
        handed = []

        def write(art):
            handed.append(art.fold)
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space"):
            run_cv(cfg, index, source, write)
        assert handed == [0]  # no later fold ran

    def test_oof_pool_covers_every_sample(self, small_run):
        cfg, index, _, report, _ = small_run
        pooled_support = sum(row["support"] for row in report.pooled.per_class)
        assert pooled_support == len(index)

    def test_two_stage_skipped_for_baseline(self):
        index, features = make_small_dataset()
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        cfg = load_config(preset="baseline_ce", overrides={
            "seed": 5, "folds": 2, "train.stage2_max_epochs": 3,
            "lstm.hidden": 4, "kan.hidden": 4,
        })
        report, _ = run_cv(cfg, index, source)
        assert report.config["train.two_stage"] is False
        assert len(report.folds) == 2

    @pytest.mark.parametrize("error", [ShapeError, TypeError, AttributeError])
    def test_programming_error_in_a_fold_propagates(self, small_run, monkeypatch, error):
        cfg, index, source, _, _ = small_run

        def broken_fold(*args, **kwargs):
            raise error("bug in the fold")

        monkeypatch.setattr(training, "_run_fold", broken_fold)
        with pytest.raises(error, match="bug in the fold"):
            run_cv(cfg, index, source)

    def test_failing_fold_is_filed_as_incomplete(self, small_run, monkeypatch):
        cfg, index, source, _, _ = small_run
        real_fold = training._run_fold

        def first_fold_aborts(cfg, fold, *args):
            if fold == 0:
                raise TrainingAbort("non-finite gradient")
            return real_fold(cfg, fold, *args)

        monkeypatch.setattr(training, "_run_fold", first_fold_aborts)
        report, _ = run_cv(cfg, index, source)
        assert report.incomplete == [{"fold": 0, "error": "TrainingAbort: non-finite gradient"}]
        assert [fold.fold for fold in report.folds] == [1]

    def test_array_source_warns_once_per_run(self, caplog):
        index, features = make_small_dataset()
        cfg = fast_config(**{"train.stage2_max_epochs": 2})
        assert cfg.augment.enabled and cfg.folds > 1
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        with caplog.at_level(logging.WARNING, logger="kan_ausculta.training"):
            for _ in range(2):
                run_cv(cfg, index, source)
        skipped = [r for r in caplog.records if "augmentation skipped" in r.getMessage()]
        assert len(skipped) == 2

    def test_empty_index_rejected(self, small_run):
        cfg, _, source, _, _ = small_run
        with pytest.raises(ValueError):
            run_cv(cfg, DatasetIndex(rows=[], class_names=("a",)), source)


class TestFoldState:
    """What one fold copies and holds: one optimizer state and one best-epoch snapshot."""

    def test_parameters_copied_once_per_improving_epoch(self, monkeypatch):
        index, features = make_small_dataset()
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        # at this seed fold 0 stops early with its best at epoch 2 and fold 1's
        # best is epoch 6 of 10: 7 of 19 epochs improve
        cfg = fast_config(**{"train.stage2_max_epochs": 10, "optim.lr_stage2": 0.03,
                             "train.batch_size": 8})
        improved, copies, predicted = [], [], []
        real_early_stop = training.early_stop
        real_snapshot = training.snapshot_parameters
        real_predict = training._predict

        def counting_early_stop(st, metric, snapshot=None, epoch=None):
            before = st.best_epoch
            stop = real_early_stop(st, metric, snapshot=snapshot, epoch=epoch)
            improved.append(st.best_epoch != before)
            return stop

        def counting_snapshot(model, out=None):
            result = real_snapshot(model, out=out)
            assert out is None or result is out  # later copies reuse the kept arrays
            copies.append(out is None)
            return result

        def recording_predict(model, X):
            predicted.append({name: arr.copy() for name, arr in parameters(model).items()})
            return real_predict(model, X)

        monkeypatch.setattr(training, "early_stop", counting_early_stop)
        monkeypatch.setattr(training, "snapshot_parameters", counting_snapshot)
        monkeypatch.setattr(training, "_predict", recording_predict)
        report, artifacts = run_cv(cfg, index, source)

        assert any(f.best_epoch < f.epochs_run for f in report.folds)
        assert len(copies) == sum(improved) < len(improved)
        assert sum(copies) == cfg.folds  # one fresh copy per fold, then in place
        # each epoch validates the model it trained, then the fold predicts once
        # more with the restored best: that model must be the best epoch's bytes
        start = 0
        for fold, art in zip(report.folds, artifacts):
            best = predicted[start + fold.best_epoch - 1]
            restored = predicted[start + fold.epochs_run]
            for name, arr in parameters(art.model).items():
                assert arr.tobytes() == best[name].tobytes() == restored[name].tobytes()
            start += fold.epochs_run + 1
        assert start == len(predicted)

    def test_fold_peak_admits_one_optimizer_state(self):
        # d_feat near the audio layout's 1927, so the parameters dwarf the rows
        index, features = make_small_dataset(seed=3, d_feat=2000)
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        cfg = load_config(preset="full", overrides={
            "seed": 4, "folds": 2, "train.stage1_epochs": 1, "train.stage2_max_epochs": 3,
            "train.batch_size": 32,
        })
        assert cfg.train.two_stage
        (_, artifacts), peak = traced_peak(lambda: run_cv(cfg, index, source))
        param_bytes = sum(arr.nbytes for arr in parameters(artifacts[0].model).values())
        # fold 1 holds fold 0's finished model, its own model, one AdamW m/v pair,
        # the best-epoch snapshot and one gradient dict: six parameter sets. The
        # margin of one more covers the feature rows, SMOTE's working copies
        # and the backward pass's temporaries. A stage-1 optimizer kept
        # through stage 2 adds two.
        assert peak < (6 + 1) * param_bytes

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_gradient_steps_hold_one_scaled_epoch_matrix(self, preset, monkeypatch):
        # a small model over many rows, so an epoch matrix outweighs a parameter set
        index, features = make_small_dataset(seed=5, d_feat=256, per_class=(150, 24, 14))
        source = ArrayFeatureSource([r.path for r in index.rows], features)
        cfg = fast_config(preset=preset, **{"folds": 5, "train.stage2_max_epochs": 2,
                                            "train.stage1_epochs": 1})
        fold_start, stage1, seen = [], [], []
        real_run_fold, real_pretrain = training._run_fold, training._pretrain
        real_train_one_epoch = training._train_one_epoch

        def marking_run_fold(*args):
            fold_start.append(tracemalloc.get_traced_memory()[0])
            return real_run_fold(*args)

        def marking_pretrain(*args):
            stage1.append(True)
            try:
                return real_pretrain(*args)
            finally:
                stage1.pop()

        def measuring_train_one_epoch(model, params, X, *args):
            if not stage1:
                param_bytes = sum(arr.nbytes for arr in params.values())
                above = tracemalloc.get_traced_memory()[0] - fold_start[-1]
                seen.append((above - 4 * param_bytes - X.nbytes) / X.nbytes)
            return real_train_one_epoch(model, params, X, *args)

        monkeypatch.setattr(training, "_run_fold", marking_run_fold)
        monkeypatch.setattr(training, "_pretrain", marking_pretrain)
        monkeypatch.setattr(training, "_train_one_epoch", measuring_train_one_epoch)
        traced_peak(lambda: run_cv(cfg, index, source))
        assert len(seen) == cfg.folds * cfg.train.stage2_max_epochs
        # the model, the AdamW m/v pair and the best-epoch snapshot, one scaled
        # epoch matrix and the validation rows; an unscaled copy of the epoch
        # matrix, or SMOTE's input, would add at least half a matrix more
        assert max(seen) < 0.5

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_sources_rows_are_left_as_they_were(self, preset, tmp_path):
        # three presets turn SMOTE off and scale the rows a source returns in
        # place: each source must hand out new arrays
        index, features = make_small_dataset(d_feat=12)
        before = features.tobytes()
        cfg = fast_config(preset=preset, **{"train.stage2_max_epochs": 2})
        run_cv(cfg, index, ArrayFeatureSource([r.path for r in index.rows], features))
        assert features.tobytes() == before

        audio_index = wav_index(tmp_path)
        source = _audio_source(load_config(), audio_index, None)
        base = {path: row.tobytes() for path, row in source._cache.items()}
        cfg = fast_config(preset=preset, **{"train.stage2_max_epochs": 2,
                                            "augment.base_probability": 0.5})
        report, _ = run_cv(cfg, audio_index, source)
        assert not report.incomplete
        assert {path: row.tobytes() for path, row in source._cache.items()} == base


class TestReadAhead:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_order_errors_depth_and_exit(self, depth):
        started, finished = [], []

        def call(k):
            started.append(k)
            try:
                if k == 4:
                    raise DataError("call 4 failed")
                return k * k
            finally:
                finished.append(k)

        def computed(count):
            # waits until the helper has finished ``count`` calls, then lets it
            # start any it was wrongly given
            deadline = time.monotonic() + 10
            while len(finished) < count and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.01)
            return started

        calls = [functools.partial(call, k) for k in range(6)]
        for take_failing in (False, True):
            started.clear()
            finished.clear()
            stop = threading.Event()
            before = threading.enumerate()
            with ReadAhead(calls, depth, stop) as ahead:
                assert computed(depth) == list(range(depth))
                for taken in range(1, 5):
                    assert ahead.take() == (taken - 1) ** 2
                    # no more than depth calls start beyond the ones taken
                    ahead_of_taken = min(taken + depth, len(calls))
                    assert computed(ahead_of_taken) == list(range(ahead_of_taken))
                assert not stop.is_set()
                if take_failing:
                    with pytest.raises(DataError, match="call 4 failed"):
                        ahead.take()
            # call 4, computed ahead and never taken, drops its error
            assert stop.is_set()
            assert threading.enumerate() == before


class InlineExecutor:
    """Stands in for the epoch-rows helper: each job runs on the calling thread
    when its result is taken, which is the serial loop's order, and a job
    whose result is never taken never runs."""

    def __init__(self, max_workers, thread_name_prefix=""):
        assert max_workers == 1

    def submit(self, fn, *args):
        return _Deferred(fn, args)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Deferred:
    def __init__(self, fn, args):
        self._fn, self._args = fn, args

    def result(self):
        return self._fn(*self._args)


@pytest.fixture(scope="module")
def wav_run(tmp_path_factory):
    """An augmenting audio run's index and source; every fold stops after its epoch 2 of 4."""
    index = wav_index(tmp_path_factory.mktemp("wavs"))
    source = _audio_source(load_config(), index, None)
    cfg = fast_config(**{"augment.base_probability": 0.7, "train.early_stop_patience": 1,
                         "train.early_stop_threshold": 10.0})
    return cfg, index, source


@pytest.fixture(scope="module")
def many_wavs(tmp_path_factory):
    """Many short recordings and their source: with 5 folds an epoch matrix
    outweighs the validation rows."""
    index = wav_index(tmp_path_factory.mktemp("many"), per_class=(30, 6, 6))
    return index, _audio_source(load_config(), index, None)


def fold_bytes(cfg, index, source):
    """run_cv's report as JSON, and each fold's parameter bytes."""
    folds = []
    report, _ = run_cv(cfg, index, source, lambda art: folds.append(
        {name: arr.tobytes() for name, arr in parameters(art.model).items()}))
    return json.dumps(report.to_dict(), sort_keys=True), folds


def counting_epoch_features(monkeypatch, fail_on=()):
    """Wraps ``epoch_features``; returns, per fold, the threads of its calls in call order.

    Call k (1-based) of fold f raises DataError when (f, k) is in ``fail_on``.
    A fold is known by its augmentation stream: each fold draws from its own.
    """
    calls = []  # (rng, [thread names]), in fold order
    real = AudioFeatureSource.epoch_features

    def wrapped(self, rows, rng, *args):
        fold = next((f for f, (seen, _) in enumerate(calls) if seen is rng), None)
        if fold is None:
            fold = len(calls)
            calls.append((rng, []))
        threads = calls[fold][1]
        threads.append(threading.current_thread().name)
        if (fold, len(threads)) in fail_on:
            raise DataError(f"fold {fold} call {len(threads)} failed")
        return real(self, rows, rng, *args)

    monkeypatch.setattr(AudioFeatureSource, "epoch_features", wrapped)
    return calls


class TestEpochPrefetch:
    """Stage 2 computes an audio source's epochs up to ``EPOCHS_AHEAD`` ahead on a helper thread."""

    def test_same_bytes_as_the_serial_order_and_never_past_the_last_epoch(self, wav_run,
                                                                          monkeypatch):
        cfg, index, source = wav_run
        calls = counting_epoch_features(monkeypatch)
        report, folds = fold_bytes(cfg, index, source)
        assert [fold["epochs_run"] for fold in json.loads(report)["folds"]] == [2, 2]
        # epochs 1 and 2 taken; the helper is on epoch 3 when the fold stops or,
        # if it finished that first, stops at the start of epoch 4
        assert len(calls) == cfg.folds
        assert all(3 <= len(names) <= 4 for _, names in calls)
        assert all(name.startswith("epoch-rows") for _, names in calls for name in names)
        with monkeypatch.context() as inline:
            inline.setattr(training, "ThreadPoolExecutor", InlineExecutor)
            assert fold_bytes(cfg, index, source) == (report, folds)
        # a fold that takes every epoch computes exactly stage2_max_epochs of them
        calls.clear()
        report, _ = fold_bytes(fast_config(**{"augment.base_probability": 0.7,
                                              "train.stage2_max_epochs": 3}), index, source)
        assert [fold["epochs_run"] for fold in json.loads(report)["folds"]] == [3, 3]
        assert [len(names) for _, names in calls] == [3, 3]

    @pytest.mark.parametrize("fail_on, incomplete", [
        ({(0, 2)}, [{"fold": 0, "error": "DataError: fold 0 call 2 failed"}]),
        ({(0, 3), (1, 3)}, []),  # the epochs computed ahead and never taken
    ])
    def test_an_error_counts_only_in_an_epoch_the_loop_takes(self, wav_run, monkeypatch,
                                                            fail_on, incomplete):
        cfg, index, source = wav_run
        clean = fold_bytes(cfg, index, source)
        calls = counting_epoch_features(monkeypatch, fail_on)
        report, folds = fold_bytes(cfg, index, source)
        assert json.loads(report)["incomplete"] == incomplete
        calls.clear()
        with monkeypatch.context() as inline:
            inline.setattr(training, "ThreadPoolExecutor", InlineExecutor)
            assert fold_bytes(cfg, index, source) == (report, folds)
        if not incomplete:
            assert (report, folds) == clean

    @pytest.mark.parametrize("failure", [None, "stage 1", "gradient step"])
    def test_no_thread_outlives_the_run(self, wav_run, monkeypatch, failure):
        cfg, index, source = wav_run

        def fail(*args, **kwargs):
            raise FloatingPointError(f"{failure} failed")

        if failure == "stage 1":
            monkeypatch.setattr(training, "_pretrain", fail)
        elif failure == "gradient step":
            cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, two_stage=False))
            monkeypatch.setattr(training, "adamw_step", fail)
        calls = counting_epoch_features(monkeypatch)
        before = threading.enumerate()
        if failure is None:
            run_cv(cfg, index, source)
        else:
            with pytest.raises(TrainingAbort):  # every fold failed
                run_cv(cfg, index, source)
        assert threading.enumerate() == before
        # when the fold ends, the helper is on an epoch beyond the ones taken
        # (stage 1 fails beside epoch 1's rows, a gradient step beside epoch
        # 2's), and it never starts one more than EPOCHS_AHEAD beyond them;
        # where in that range it is depends on timing
        taken = {None: 2, "stage 1": 0, "gradient step": 1}[failure]
        most = min(taken + training.EPOCHS_AHEAD, cfg.train.stage2_max_epochs)
        assert len(calls) == cfg.folds
        assert all(taken < len(names) <= most for _, names in calls)

    def test_an_early_stop_waits_for_at_most_one_recording(self, wav_run, monkeypatch):
        cfg, index, source = wav_run
        calls = counting_epoch_features(monkeypatch)
        leaving = threading.Event()  # set while a fold's with block shuts the helper down
        late = []  # per fold, the recordings augmented after its with block was left
        real_apply_transforms = training.apply_transforms

        class ShutdownMarkingExecutor(training.ThreadPoolExecutor):
            def shutdown(self, wait=True, cancel_futures=False):
                late.append(0)
                leaving.set()
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                leaving.clear()

        def gated_apply_transforms(*args, **kwargs):
            # the folds stop after epoch 2, so a later epoch's recording waits
            # here until its fold leaves the with block
            if len(calls[-1][1]) > 2:
                leaving.wait(timeout=10)
            if leaving.is_set():
                late[-1] += 1
            return real_apply_transforms(*args, **kwargs)

        monkeypatch.setattr(training, "apply_transforms", gated_apply_transforms)
        with monkeypatch.context() as marked:
            marked.setattr(training, "ThreadPoolExecutor", ShutdownMarkingExecutor)
            report, folds = fold_bytes(cfg, index, source)
        assert [fold["epochs_run"] for fold in json.loads(report)["folds"]] == [2, 2]
        assert late == [1, 1]  # the recording epoch 3 was waiting in
        with monkeypatch.context() as inline:
            inline.setattr(training, "ThreadPoolExecutor", InlineExecutor)
            assert fold_bytes(cfg, index, source) == (report, folds)

    @pytest.mark.parametrize("preset", ["augment_only", "full"])
    def test_gradient_steps_hold_one_scaled_matrix_and_the_epochs_computed_ahead(
            self, preset, many_wavs, monkeypatch):
        # measured as test_gradient_steps_hold_one_scaled_epoch_matrix is, once
        # the helper has finished every epoch it may compute ahead
        index, source = many_wavs
        cfg = fast_config(preset=preset, **{"folds": 5, "train.stage2_max_epochs": 4,
                                            "train.stage1_epochs": 1, "lstm.hidden": 2,
                                            "kan.hidden": 2, "augment.base_probability": 0.2})
        fold_start, stage1, seen = [], [], []
        finished = queue.Queue()  # nbytes of each epoch's rows, once computed
        real_run_fold, real_pretrain = training._run_fold, training._pretrain
        real_train_one_epoch = training._train_one_epoch
        real_epoch_features = AudioFeatureSource.epoch_features

        def marking_run_fold(*args):
            # traced memory at the fold's start, stage-2 epochs taken, nbytes
            # of each epoch's rows computed so far
            fold_start.append([tracemalloc.get_traced_memory()[0], 0, []])
            return real_run_fold(*args)

        def marking_pretrain(*args):
            stage1.append(True)
            try:
                return real_pretrain(*args)
            finally:
                stage1.pop()

        def reporting_epoch_features(*args):
            rows = real_epoch_features(*args)
            finished.put(rows.nbytes)
            return rows

        def computed_rows():
            try:
                return finished.get(timeout=10)
            except queue.Empty:  # pytest.fail is not a fold failure
                pytest.fail("the later epochs' rows were not computed ahead")

        def measuring_train_one_epoch(model, params, X, *args):
            if not stage1:
                start, epoch, computed = fold_start[-1]
                epoch = fold_start[-1][1] = epoch + 1
                # once the helper is idle, every epoch it was given is computed
                submitted = min(epoch + training.EPOCHS_AHEAD, cfg.train.stage2_max_epochs)
                while len(computed) < submitted:
                    computed.append(computed_rows())
                ahead = sum(computed[epoch:])
                # the model and the AdamW m/v pair, plus the best-epoch snapshot
                # from the end of epoch 1 on
                param_sets = 3 if epoch == 1 else 4
                param_bytes = sum(arr.nbytes for arr in params.values())
                above = tracemalloc.get_traced_memory()[0] - start
                seen.append((above - param_sets * param_bytes - X.nbytes - ahead) / X.nbytes)
            return real_train_one_epoch(model, params, X, *args)

        monkeypatch.setattr(training, "_run_fold", marking_run_fold)
        monkeypatch.setattr(training, "_pretrain", marking_pretrain)
        monkeypatch.setattr(training, "_train_one_epoch", measuring_train_one_epoch)
        monkeypatch.setattr(AudioFeatureSource, "epoch_features", reporting_epoch_features)
        traced_peak(lambda: run_cv(cfg, index, source))
        assert len(seen) == cfg.folds * cfg.train.stage2_max_epochs
        # as in that test, plus up to EPOCHS_AHEAD later epochs' unscaled rows.
        # The validation rows and the two scalers are 0.3-0.5 of a matrix here
        # (d is fixed, so the rows are fewer); an unscaled copy of this epoch's
        # matrix would add at least 0.7 more
        assert max(seen) < 0.75

    @pytest.mark.parametrize("case", ["audio source under baseline_ce", "array source under full"])
    def test_base_rows_are_taken_inline(self, wav_run, monkeypatch, case):
        if case.startswith("audio"):
            _, index, source = wav_run
            cfg = fast_config(preset="baseline_ce", **{"train.stage2_max_epochs": 2})
            assert not cfg.augment.enabled
        else:
            index, features = make_small_dataset()
            source = ArrayFeatureSource([r.path for r in index.rows], features)
            cfg = fast_config(**{"train.stage2_max_epochs": 2})
            assert cfg.augment.enabled
        calls = counting_epoch_features(monkeypatch)
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        report, _ = run_cv(cfg, index, source)
        assert started == [] and calls == [] and not report.incomplete

    def test_an_array_source_starts_no_thread(self, monkeypatch):
        index, features = make_small_dataset()
        cfg = fast_config(**{"train.stage2_max_epochs": 2})
        assert cfg.augment.enabled
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        report, _ = run_cv(cfg, index, ArrayFeatureSource([r.path for r in index.rows], features))
        assert started == [] and not report.incomplete


class TestMetricBundle:
    def test_bundle_fields_plain_python(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=60)
        probs = rng.random((60, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        bundle = compute_metric_bundle(y, probs, ("a", "b", "c"), 10)
        assert isinstance(bundle.accuracy, float)
        assert isinstance(bundle.confusion[0][0], int)
        assert {row["name"] for row in bundle.per_class} == {"a", "b", "c"}
        assert bundle.calibration["ece"] >= 0


class TestExportRoundTrip:
    def test_report_json_round_trips_to_equality(self, small_run, tmp_path):
        _, _, _, report, _ = small_run
        written = export(report, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {
            "report.json", "confusion.csv", "per_class.csv", "folds.csv", "calibration.csv",
        }
        loaded = load_report(tmp_path / "report.json")
        assert loaded == report

    def test_folds_csv_has_k_rows_plus_summary(self, small_run, tmp_path):
        cfg, _, _, report, _ = small_run
        export(report, tmp_path)
        lines = (tmp_path / "folds.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.folds + 2  # header + folds + mean/std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")

    def test_confusion_csv_row_sums_match_support(self, small_run, tmp_path):
        _, index, _, report, _ = small_run
        export(report, tmp_path)
        lines = (tmp_path / "confusion.csv").read_text().strip().splitlines()[1:]
        supports = {row["name"]: row["support"] for row in report.pooled.per_class}
        for line in lines:
            cells = line.split(",")
            assert sum(int(v) for v in cells[1:]) == supports[cells[0]]

    def test_unwritable_path_fails_without_partials(self, small_run, tmp_path):
        _, _, _, report, _ = small_run
        from kan_ausculta.errors import DataError

        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(DataError):
            export(report, target)


class TestAudioFeatureSourceCaching:
    def test_base_features_cached_and_deterministic(self, tmp_path):
        import scipy.io.wavfile

        from kan_ausculta.config import RunConfig

        rng = np.random.default_rng(0)
        paths = []
        for k in range(3):
            path = tmp_path / f"{k}_x.wav"
            scipy.io.wavfile.write(path, 22050,
                                   (0.4 * rng.normal(size=6000)).astype(np.float32))
            paths.append(path)
        rows = [IndexRow(path=str(p), patient_id=str(k), label=0, split="train")
                for k, p in enumerate(paths)]
        index = DatasetIndex(rows=rows, class_names=("only",))
        source = _audio_source(RunConfig(), index, None)
        for path in paths:
            path.unlink()  # base rows must come from the cache, not the WAVs
        a = source.base_features(index.rows)
        b = source.base_features(index.rows)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, source.d_feat)
