import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kan_ausculta import atomic as atomic_module
from kan_ausculta import model as model_module
from kan_ausculta.errors import DataError, FingerprintError, ShapeError
from kan_ausculta.model import (
    ModelConfig,
    build_model,
    grads_to_dict,
    CHECKPOINT_VERSION,
    load_checkpoint,
    model_backward,
    model_forward,
    parameters,
    restore_parameters,
    save_checkpoint,
    snapshot_parameters,
    softmax,
)
from kan_ausculta.optim import FocalParams, OptimConfig, adamw_init, adamw_step, finite_diff_check


def small_model(seed=0, d_feat=5, classes=4, kan_init_scale=None, **sizes):
    cfg = ModelConfig(**{"lstm_hidden": 4, "kan_hidden": 5, "dropout": 0.0, **sizes})
    return build_model(d_feat, classes, np.random.default_rng(seed), cfg, kan_init_scale)


class TestForward:
    def test_zero_kan_coefficients_give_zero_logits(self):
        m = small_model(kan_init_scale=0.0)
        for layer in m.kan.layers:
            layer.coeffs[...] = 0.0
        logits, _ = model_forward(m, np.random.default_rng(1).normal(size=5))
        np.testing.assert_array_equal(logits, np.zeros(4))

    def test_logits_finite_for_finite_parameters(self):
        m = small_model(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            logits, _ = model_forward(m, rng.normal(scale=5, size=5))
            assert np.all(np.isfinite(logits))

    def test_eval_forward_bit_reproducible(self):
        m = small_model(seed=5)
        x = np.random.default_rng(6).normal(size=5)
        a, _ = model_forward(m, x)
        b, _ = model_forward(m, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        m = small_model()
        with pytest.raises(ShapeError):
            model_forward(m, np.zeros(6))

    def test_default_architecture_dimensions(self):
        m = build_model(100, 6, np.random.default_rng(0))
        assert m.encoder.hidden_size == 64
        assert m.encoder.output_size == 128
        assert [layer.n_in for layer in m.kan.layers] == [128, 32]
        assert m.kan.n_out == 6
        logits, _ = model_forward(m, np.zeros(100))
        assert logits.shape == (6,)


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        probs = softmax(np.zeros(6))
        np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-15)

    def test_large_offsets_do_not_overflow(self):
        probs = softmax(np.array([3.0, 103.0, 3.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs[1] - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        logits=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        shift=st.floats(-100, 100),
    )
    def test_shift_invariance_and_simplex(self, logits, shift):
        logits = np.array(logits)
        p = softmax(logits)
        q = softmax(logits + shift)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        np.testing.assert_allclose(p, q, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.inf]))


class TestEndToEndGradients:
    def test_twenty_random_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            d_feat = int(rng.integers(3, 9))
            classes = int(rng.integers(3, 7))
            lstm_hidden = int(rng.integers(3, 7))
            sizes = ModelConfig(lstm_hidden, kan_hidden=int(rng.integers(3, 7)), dropout=0.0)
            m = build_model(d_feat, classes, rng, sizes)
            sample = rng.normal(size=d_feat)
            target = int(rng.integers(classes))
            err = finite_diff_check(m, sample, target, h=1e-5, fp=FocalParams(), rng=rng)
            worst = max(worst, err)
        assert worst < 1e-4


class TestEncoderGradients:
    def batch_grads(self, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, m.feature_dim))
        logits, cache = model_forward(m, x, training=True, rng=rng)
        return grads_to_dict(model_backward(m, cache, rng.normal(size=logits.shape)))

    def test_forget_gate_gradients_are_zero_and_decay_moves_them(self):
        m = small_model(seed=16, dropout=0.3)
        grads = self.batch_grads(m, 17)
        h = m.encoder.hidden_size
        forget = slice(h, 2 * h)
        names = [f"lstm.{tag}.{t}" for tag in ("fwd", "bwd") for t in ("w_x", "bias")]
        for name in names:
            assert not np.any(grads[name][forget])
            assert np.any(grads[name])
        params = parameters(m)
        before = {name: params[name][forget].copy() for name in names}
        adamw_step(params, grads, adamw_init(params, 1e-2, OptimConfig(weight_decay=1e-2)))
        for name, old in before.items():
            # zero gradient: the Adam term is 0, and decay subtracts lr * wd * theta
            np.testing.assert_array_equal(params[name][forget], old - old * (1e-2 * 1e-2))
            assert not np.array_equal(params[name][forget], old)

    def test_parameter_and_gradient_dicts_keep_keys_and_shapes(self):
        m = small_model(seed=18)
        expected = [
            "lstm.fwd.w_x", "lstm.fwd.bias",
            "lstm.bwd.w_x", "lstm.bwd.bias",
            "kan.0.coeffs", "kan.1.coeffs",
        ]
        params = parameters(m)
        grads = self.batch_grads(m, 19)
        assert list(params) == expected
        assert list(grads) == expected
        assert params["lstm.fwd.w_x"].shape == (16, 5)
        assert params["lstm.fwd.bias"].shape == (16,)
        assert m.encoder.hidden_size == 4
        assert {k: g.shape for k, g in grads.items()} == {k: p.shape for k, p in params.items()}


class TestSnapshots:
    def test_snapshot_restore_round_trip(self):
        m = small_model(seed=9)
        snap = snapshot_parameters(m)
        x = np.random.default_rng(10).normal(size=5)
        before, _ = model_forward(m, x)
        for arr in parameters(m).values():
            arr += 0.1
        changed, _ = model_forward(m, x)
        assert not np.allclose(before, changed)
        restore_parameters(m, snap)
        after, _ = model_forward(m, x)
        np.testing.assert_array_equal(before, after)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = small_model(seed=11)
        path = tmp_path / "model.npz"
        save_checkpoint(
            m,
            path,
            fingerprint="abc123",
            scaler_mean=np.arange(5.0),
            scaler_scale=np.ones(5),
            meta={"fold": 2},
        )
        loaded, header, mean, scale = load_checkpoint(path, expected_fingerprint="abc123")
        x = np.random.default_rng(12).normal(size=5)
        a, _ = model_forward(m, x)
        b, _ = model_forward(loaded, x)
        np.testing.assert_array_equal(a, b)
        for name, arr in parameters(m).items():
            np.testing.assert_array_equal(parameters(loaded)[name], arr)
        assert header["version"] == CHECKPOINT_VERSION == 2
        assert "base_branch" not in header
        assert header["meta"]["fold"] == 2
        np.testing.assert_array_equal(mean, np.arange(5.0))
        np.testing.assert_array_equal(scale, np.ones(5))

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "model.npz"
        old = small_model(seed=14)
        save_checkpoint(old, path, fingerprint="abc123")
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

                def write(self, data):
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("no space left on device")

            monkeypatch.setattr(model_module, "open", HalfWritten, raising=False)
        else:
            def refuse(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(atomic_module.os, "replace", refuse)

        with pytest.raises(OSError):
            save_checkpoint(small_model(seed=15), path, fingerprint="abc123")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        loaded, _, _, _ = load_checkpoint(path, expected_fingerprint="abc123")
        x = np.random.default_rng(16).normal(size=5)
        np.testing.assert_array_equal(model_forward(loaded, x)[0], model_forward(old, x)[0])

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        m = small_model(seed=13)
        path = tmp_path / "model.npz"
        save_checkpoint(m, path, fingerprint="abc123")
        with pytest.raises(FingerprintError):
            load_checkpoint(path, expected_fingerprint="something-else")


class TestUnreadableCheckpoint:
    """Every file load_checkpoint cannot rebuild a model from is a DataError."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(small_model(seed=20), path, fingerprint="abc123")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "missing.npz")

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.95])
    def test_truncated_file(self, saved, fraction):
        data = saved.read_bytes()
        saved.write_bytes(data[: int(len(data) * fraction)])
        with pytest.raises(DataError):
            load_checkpoint(saved)

    def test_random_bytes(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(np.random.default_rng(21).bytes(4096))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_bare_npy_array(self, tmp_path):
        path = tmp_path / "array.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((3, 4)))
        with pytest.raises(DataError, match="not an .npz archive"):
            load_checkpoint(path)

    def test_version_one_refused(self, tmp_path):
        # the version 1 layout: its header (base_branch key included) and the
        # recurrent matrices this model no longer holds
        m = small_model(seed=22)
        header = {
            "version": 1, "fingerprint": "abc123", "feature_dim": 5, "class_count": 4,
            "lstm_hidden": 4, "dropout_rate": 0.0, "kan_dims": [8, 5, 4], "grid_size": 3,
            "spline_order": 3, "domain": [-1.0, 1.0], "base_branch": False, "meta": {},
        }
        arrays = {name.replace(".", "__"): arr for name, arr in parameters(m).items()}
        arrays["lstm__fwd__w_h"] = arrays["lstm__bwd__w_h"] = np.zeros((16, 4))
        path = tmp_path / "v1.npz"
        np.savez(path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **arrays)
        with pytest.raises(DataError, match="version 1"):
            load_checkpoint(path)
        with pytest.raises(DataError, match="version 1"):
            load_checkpoint(path, expected_fingerprint="abc123")


class TestInitStream:
    """build_model draws the same numbers it drew while the encoder held w_h."""

    @staticmethod
    def reference_init(d_feat, classes, seed, lstm_hidden=64, kan_hidden=32, n_basis=6):
        rng = np.random.default_rng(seed)
        out = {}
        bound = 1.0 / np.sqrt(lstm_hidden)
        for tag in ("fwd", "bwd"):
            out[f"lstm.{tag}.w_x"] = rng.uniform(-bound, bound, size=(4 * lstm_hidden, d_feat))
            rng.uniform(-bound, bound, size=(4 * lstm_hidden, lstm_hidden))  # was w_h
            bias = np.zeros(4 * lstm_hidden)
            bias[lstm_hidden : 2 * lstm_hidden] = 1.0
            out[f"lstm.{tag}.bias"] = bias
        dims = [2 * lstm_hidden, kan_hidden, classes]
        for idx, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
            scale = 0.1 / np.sqrt(n_in)
            out[f"kan.{idx}.coeffs"] = rng.uniform(-scale, scale, size=(n_out, n_in, n_basis))
        return out

    @pytest.mark.parametrize("d_feat", [24, 1927])
    def test_init_matches_the_reference_sequence(self, d_feat):
        params = parameters(build_model(d_feat, 6, np.random.default_rng(7)))
        expected = self.reference_init(d_feat, 6, 7)
        assert list(params) == list(expected)
        for name, arr in expected.items():
            assert np.array_equal(params[name], arr), name
