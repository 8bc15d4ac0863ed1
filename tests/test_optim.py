import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kan_ausculta import optim
from kan_ausculta.errors import TrainingAbort
from kan_ausculta.model import (
    ModelConfig,
    build_model,
    model_backward,
    model_forward,
    parameters,
)
from kan_ausculta.optim import (
    EarlyStopState,
    FocalParams,
    OptimConfig,
    SchedConfig,
    SchedulerState,
    adamw_init,
    adamw_step,
    early_stop,
    finite_diff_check,
    focal_loss,
    focal_loss_batch,
    plateau_step,
)


def adamw_step_oracle(params, grads, st_):
    """The per-tensor AdamW update, one pass over each whole tensor."""
    cfg = st_.cfg
    st_.step += 1
    bc1 = 1.0 - cfg.beta1**st_.step
    bc2 = 1.0 - cfg.beta2**st_.step
    step_size = st_.lr / bc1
    sqrt_bc2 = math.sqrt(bc2)
    for name, theta in params.items():
        g = grads[name]
        m = st_.m[name]
        v = st_.v[name]
        buf = np.empty_like(theta)
        m *= cfg.beta1
        np.multiply(g, 1.0 - cfg.beta1, out=buf)
        m += buf
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=buf)
        buf *= g
        v += buf
        np.sqrt(v, out=buf)
        buf /= sqrt_bc2
        buf += cfg.eps
        np.divide(m, buf, out=buf)
        buf *= step_size
        theta -= buf
        if cfg.weight_decay != 0.0:
            np.multiply(theta, st_.lr * cfg.weight_decay, out=buf)
            theta -= buf


def assert_steps_match_oracle(params, grad_steps, lr, moments=None, **settings):
    """Run ``adamw_step`` and the oracle side by side; compare every byte.

    ``settings`` are ``OptimConfig`` fields; ``moments`` optionally sets the
    starting ``m`` or ``v`` dict by name.
    """
    ours = {name: arr.copy() for name, arr in params.items()}
    ref = {name: arr.copy() for name, arr in params.items()}
    st_ours = adamw_init(ours, lr, OptimConfig(**settings))
    st_ref = adamw_init(ref, lr, OptimConfig(**settings))
    for attr, start in (moments or {}).items():
        for st_ in (st_ours, st_ref):
            setattr(st_, attr, {name: arr.copy() for name, arr in start.items()})
    for grads in grad_steps:
        adamw_step(ours, grads, st_ours)
        adamw_step_oracle(ref, grads, st_ref)
        for name in params:
            for a, b in ((ours[name], ref[name]), (st_ours.m[name], st_ref.m[name]),
                         (st_ours.v[name], st_ref.v[name])):
                np.testing.assert_array_equal(a, b)
                assert a.tobytes() == b.tobytes()


def simplex(rng, n):
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


class TestFocalLoss:
    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(0)
        fp = FocalParams(alpha=1.0, gamma=0.0)
        for _ in range(1000):
            probs = simplex(rng, 6)
            target = int(rng.integers(6))
            loss, _ = focal_loss(probs, target, fp)
            assert abs(loss - (-math.log(probs[target]))) < 1e-12

    def test_paper_configuration_scalar_value(self):
        # p_t = 0.9, alpha = 0.75, gamma = 2: 0.75 * 0.01 * (-ln 0.9)
        probs = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])
        loss, _ = focal_loss(probs, 0, FocalParams(alpha=0.75, gamma=2.0))
        oracle = 0.75 * (1 - 0.9) ** 2 * -math.log(0.9)
        assert abs(loss - oracle) <= 1e-6 * oracle

    def test_monotone_decreasing_in_target_probability(self):
        fp = FocalParams(alpha=0.75, gamma=2.19)
        previous = math.inf
        for p_t in np.linspace(0.05, 0.999, 40):
            probs = np.array([p_t, 1 - p_t])
            loss, _ = focal_loss(probs, 0, fp)
            assert loss >= 0
            assert loss < previous
            previous = loss
        assert previous < 1e-5  # p_t -> 1 drives the loss to zero

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        fp = FocalParams()
        for _ in range(100):
            probs = simplex(rng, 6)
            _, grad = focal_loss(probs, int(rng.integers(6)), fp)
            assert abs(grad.sum()) < 1e-10

    def test_gradient_matches_finite_differences_through_softmax(self):
        from kan_ausculta.model import softmax

        rng = np.random.default_rng(2)
        fp = FocalParams(alpha=0.6, gamma=1.7)
        h = 1e-6
        for _ in range(20):
            logits = rng.normal(size=5)
            target = int(rng.integers(5))
            _, grad = focal_loss(softmax(logits), target, fp)
            for j in range(5):
                lp = logits.copy()
                lp[j] += h
                up, _ = focal_loss(softmax(lp), target, fp)
                lp[j] -= 2 * h
                down, _ = focal_loss(softmax(lp), target, fp)
                numeric = (up - down) / (2 * h)
                assert abs(grad[j] - numeric) <= 1e-8 + 1e-5 * abs(numeric)

    def test_batch_mean_matches_singles(self):
        rng = np.random.default_rng(3)
        fp = FocalParams()
        probs = np.stack([simplex(rng, 4) for _ in range(8)])
        targets = rng.integers(0, 4, size=8)
        batch_loss, batch_grad = focal_loss_batch(probs, targets, fp)
        singles = [focal_loss(p, t, fp) for p, t in zip(probs, targets)]
        assert abs(batch_loss - np.mean([s[0] for s in singles])) < 1e-12
        np.testing.assert_allclose(
            batch_grad, np.stack([s[1] for s in singles]) / 8, atol=1e-12
        )

    def test_per_class_alpha_vector(self):
        fp = FocalParams(alpha=0.75, gamma=0.0, alpha_per_class=[0.1, 0.9])
        probs = np.array([0.5, 0.5])
        loss0, _ = focal_loss(probs, 0, fp)
        loss1, _ = focal_loss(probs, 1, fp)
        assert abs(loss0 - 0.1 * -math.log(0.5)) < 1e-12
        assert abs(loss1 - 0.9 * -math.log(0.5)) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([0.5, 0.5]), 2, FocalParams())

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_nonnegative_everywhere(self, p_t):
        loss, _ = focal_loss(np.array([p_t, 1 - p_t]), 0, FocalParams())
        assert loss >= 0


class TestAdamW:
    def test_first_step_pure_gradient(self):
        params = {"w": np.array([1.0])}
        st_ = adamw_init(params, 0.1, OptimConfig(weight_decay=0.0))
        adamw_step(params, {"w": np.array([1.0])}, st_)
        oracle = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))  # m_hat = v_hat = 1 on step 1
        assert abs(params["w"][0] - oracle) < 1e-12

    def test_zero_gradient_zero_decay_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        st_ = adamw_init(params, 0.1, OptimConfig(weight_decay=0.0))
        adamw_step(params, {"w": np.zeros(2)}, st_)
        np.testing.assert_array_equal(params["w"], np.array([1.0, -2.0]))

    def test_pure_decay_is_decoupled(self):
        params = {"w": np.array([1.0])}
        st_ = adamw_init(params, 0.1, OptimConfig(weight_decay=0.1))
        adamw_step(params, {"w": np.zeros(1)}, st_)
        assert abs(params["w"][0] - 0.99) < 1e-12

    def test_zero_decay_reproduces_adam(self):
        rng = np.random.default_rng(4)
        theta0 = rng.normal(size=6)
        grads = [rng.normal(size=6) for _ in range(5)]

        params = {"w": theta0.copy()}
        st_ = adamw_init(params, 0.01, OptimConfig(weight_decay=0.0))
        for g in grads:
            adamw_step(params, {"w": g}, st_)

        # reference Adam implemented inline
        theta = theta0.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], theta, atol=1e-12)

    def test_decay_independent_of_gradient_magnitude(self):
        for scale in (1e-6, 1.0, 1e6):
            params = {"w": np.array([2.0])}
            st_ = adamw_init(params, 0.1, OptimConfig(weight_decay=0.05))
            adamw_step(params, {"w": np.array([scale])}, st_)
            # decay contribution is always lr * wd * theta regardless of g
            decay_part = 0.1 * 0.05 * params["w"][0]
            assert decay_part == pytest.approx(0.1 * 0.05 * params["w"][0])

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_zero_tensor_matches_per_tensor_oracle(self, monkeypatch, weight_decay):
        monkeypatch.setattr(optim, "_ADAMW_BLOCK", 24)
        rng = np.random.default_rng(1)
        params = {"w": rng.normal(size=(16, 8)), "b": rng.normal(size=40)}
        steps = [{"w": np.zeros((16, 8)), "b": rng.normal(size=40)} for _ in range(5)]
        assert_steps_match_oracle(params, steps, lr=3e-3, weight_decay=weight_decay)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_zero_row_block_matches_per_tensor_oracle(self, monkeypatch, weight_decay):
        # blocks of 3 rows of 8; rows 3-8 (two whole blocks) get no gradient
        monkeypatch.setattr(optim, "_ADAMW_BLOCK", 24)
        rng = np.random.default_rng(2)
        params = {"w": rng.normal(size=(16, 8))}
        steps = []
        for _ in range(5):
            g = rng.normal(size=(16, 8))
            g[3:9] = 0.0
            steps.append({"w": g})
        assert_steps_match_oracle(params, steps, lr=3e-3, weight_decay=weight_decay)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_gradient_waking_after_zero_steps_matches_oracle(self, monkeypatch, weight_decay):
        monkeypatch.setattr(optim, "_ADAMW_BLOCK", 24)
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=(16, 8))}
        steps = [{"w": np.zeros((16, 8))} for _ in range(2)]
        steps += [{"w": rng.normal(size=(16, 8))} for _ in range(2)]
        # a zero gradient with nonzero m and v still takes the Adam term
        steps.append({"w": np.zeros((16, 8))})
        assert_steps_match_oracle(params, steps, lr=3e-3, weight_decay=weight_decay)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_zero_gradient_with_one_live_moment_matches_oracle(self, monkeypatch, moment):
        # g zero but m or v not (v can underflow to zero before m): the
        # block is live, so the moments decay and an m still moves theta
        monkeypatch.setattr(optim, "_ADAMW_BLOCK", 24)
        rng = np.random.default_rng(5)
        params = {"w": rng.normal(size=(16, 8))}
        steps = [{"w": np.zeros((16, 8))} for _ in range(5)]
        start = {moment: {"w": rng.random((16, 8)) * 1e-12}}
        assert_steps_match_oracle(params, steps, moments=start, lr=3e-3)

    def test_model_gradients_match_oracle_at_default_block(self):
        # at d=1927 a block of w_x is 8 rows
        rng = np.random.default_rng(4)
        model = build_model(1927, 6, rng)
        x = rng.normal(size=(16, 1927))
        logits, cache = model_forward(model, x, training=True, rng=rng)
        grads = model_backward(model, cache, rng.normal(size=logits.shape))
        assert_steps_match_oracle(parameters(model), [grads] * 5, lr=3e-3, weight_decay=1e-3)

    def test_nonfinite_gradient_aborts_with_parameter_name(self):
        params = {"w": np.array([1.0])}
        st_ = adamw_init(params, 0.1)
        with pytest.raises(TrainingAbort) as err:
            adamw_step(params, {"w": np.array([np.nan])}, st_)
        assert err.value.parameter == "w"


class TestPlateauScheduler:
    def test_improving_metrics_keep_lr(self):
        st_ = SchedulerState(lr=1.0)
        for metric in (0.5, 0.6, 0.7):
            plateau_step(st_, metric)
        assert st_.lr == 1.0

    def test_halves_exactly_once_after_patience_exhausted(self):
        st_ = SchedulerState(lr=1.0, cfg=SchedConfig(patience=4))
        plateau_step(st_, 0.7)  # best
        lrs = [plateau_step(st_, 0.65) for _ in range(5)]
        assert lrs == [1.0, 1.0, 1.0, 1.0, 0.5]  # 5th stale epoch crosses patience 4

    def test_min_lr_clamps(self):
        st_ = SchedulerState(lr=2e-6, cfg=SchedConfig(patience=0, min_lr=1e-6))
        plateau_step(st_, 0.9)
        assert plateau_step(st_, 0.1) == 1e-6
        assert plateau_step(st_, 0.1) == 1e-6

    def test_threshold_prevents_float_noise_resets(self):
        st_ = SchedulerState(lr=1.0, cfg=SchedConfig(patience=1, threshold=1e-4))
        plateau_step(st_, 0.5)
        plateau_step(st_, 0.5 + 1e-6)  # within threshold: not an improvement
        assert st_.stale == 1


class TestEarlyStop:
    def test_monotone_improvement_never_stops(self):
        st_ = EarlyStopState(patience=7, threshold=1e-4)
        for metric in np.linspace(0.1, 0.9, 30):
            assert not early_stop(st_, metric, snapshot=metric)

    def test_stops_at_seventh_stale_epoch_and_keeps_best(self):
        st_ = EarlyStopState(patience=7, threshold=1e-4)
        assert not early_stop(st_, 0.7, snapshot="best-model", epoch=1)
        outcomes = [early_stop(st_, 0.7 - 0.01 * k, snapshot=f"worse{k}", epoch=1 + k)
                    for k in range(1, 8)]
        assert outcomes == [False] * 6 + [True]
        assert st_.best_snapshot == "best-model"
        assert st_.best_epoch == 1

    def test_returns_best_snapshot_not_last(self):
        st_ = EarlyStopState(patience=3, threshold=1e-4)
        early_stop(st_, 0.4, snapshot="a", epoch=1)
        early_stop(st_, 0.8, snapshot="b", epoch=2)
        early_stop(st_, 0.5, snapshot="c", epoch=3)
        assert st_.best_snapshot == "b"


class TestFiniteDiffCheck:
    def test_zero_model_passes_trivially(self):
        sizes = ModelConfig(lstm_hidden=3, kan_hidden=3, dropout=0.0)
        m = build_model(4, 3, np.random.default_rng(0), sizes)
        for layer in m.kan.layers:
            layer.coeffs[...] = 0.0
        err = finite_diff_check(m, np.zeros(4), 0, rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_random_model_passes_at_small_h(self):
        rng = np.random.default_rng(5)
        m = build_model(5, 4, rng, ModelConfig(lstm_hidden=4, kan_hidden=4, dropout=0.0))
        err = finite_diff_check(m, rng.normal(size=5), 2, h=1e-5, rng=rng)
        assert err < 1e-4

    def test_probes_each_lstm_gate_block(self):
        rng = np.random.default_rng(7)
        m = build_model(5, 4, rng, ModelConfig(lstm_hidden=4, kan_hidden=4, dropout=0.0))
        for name, arr in parameters(m).items():
            if name.startswith("lstm."):
                coords = optim._coord_choices(name, arr, rng)
                # gate blocks (input, cell, output), each the forward then the
                # backward direction's H = 4 rows
                assert [int(c[0]) // 4 for c in coords] == [0, 1, 2, 3, 4, 5], name

    def test_pathological_h_reports_failure(self):
        # h = 1 invalidates the Taylor expansion, so the check must flag it
        rng = np.random.default_rng(6)
        m = build_model(5, 4, rng, ModelConfig(lstm_hidden=4, kan_hidden=4, dropout=0.0))
        err = finite_diff_check(m, rng.normal(size=5), 2, h=1.0, rng=rng)
        assert err > 1e-2
