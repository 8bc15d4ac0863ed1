from dataclasses import dataclass

import numpy as np
import pytest

from kan_ausculta.errors import ContractViolation, ShapeError
from kan_ausculta.lstm import (
    BiLstm,
    _sigmoid,
    bilstm_backward,
    bilstm_encode,
    bilstm_init,
)

# ----------------------------------------------------------------------------
# oracle: the general length-L recurrence with backpropagation through time.
# The model only ever runs one step from zero state (lstm.bilstm_encode), so it
# holds no recurrent matrix and no forget gate, and it runs both directions as
# one step of width 2H; the oracle keeps two directions, each with both,
# stacked as (input, forget, cell, output). At length 1 this oracle must give
# the same outputs and gradients.


@dataclass
class RecurrentWeights:
    """One direction of the general four-gate LSTM."""

    w_x: np.ndarray  # (4H, d_in)
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass
class RecurrentGrads:
    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray


@dataclass
class OracleBiLstm:
    forward: RecurrentWeights
    backward: RecurrentWeights
    dropout_rate: float

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size


DIRECTIONS = ("fwd", "bwd")


def direction_rows(arr: np.ndarray, k: int) -> np.ndarray:
    """Direction ``k``'s rows (0 forward, 1 backward) of the model's ``w_x`` or
    ``bias``: a (3, H, ...) view of its gate blocks (input, cell, output)."""
    return arr.reshape((3, 2, -1) + arr.shape[1:])[:, k]


def split_rows(arr: np.ndarray, k: int) -> np.ndarray:
    """``direction_rows`` as one (3H, ...) array."""
    rows = direction_rows(arr, k)
    return rows.reshape((-1,) + rows.shape[2:])


def with_recurrent(m: BiLstm, rng) -> OracleBiLstm:
    """``m`` as two four-gate LSTM directions: each its three gate blocks around a
    uniform forget block with forget bias 1, and a uniform recurrent matrix."""
    hidden = m.hidden_size
    bound = 1.0 / np.sqrt(hidden)

    def direction(k):
        w_x, bias = split_rows(m.w_x, k), split_rows(m.bias, k)
        w_f = rng.uniform(-bound, bound, (hidden, m.input_size))
        w_x = np.concatenate([w_x[:hidden], w_f, w_x[hidden:]])
        bias = np.concatenate([bias[:hidden], np.ones(hidden), bias[hidden:]])
        return RecurrentWeights(w_x, rng.uniform(-bound, bound, (4 * hidden, hidden)), bias)

    return OracleBiLstm(direction(0), direction(1), m.dropout_rate)


def oracle_sigmoid(x):
    # branch on sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_cell_step(w: RecurrentWeights, x_t, h_prev, c_prev):
    """One cell update; accepts single vectors or leading-batch arrays."""
    x_t = np.asarray(x_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    h_size = w.hidden_size
    if x_t.shape[-1] != w.input_size:
        raise ShapeError(f"expected input width {w.input_size}, got {x_t.shape[-1]}")
    if h_prev.shape[-1] != h_size or c_prev.shape[-1] != h_size:
        raise ShapeError("state widths do not match the hidden size")

    a = x_t @ w.w_x.T + h_prev @ w.w_h.T + w.bias
    i = oracle_sigmoid(a[..., :h_size])
    f = oracle_sigmoid(a[..., h_size : 2 * h_size])
    g = np.tanh(a[..., 2 * h_size : 3 * h_size])
    o = oracle_sigmoid(a[..., 3 * h_size :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, (x_t, h_prev, c_prev, i, f, g, o, c)


def _run_direction(w: RecurrentWeights, seq: np.ndarray, reverse: bool):
    h = np.zeros(seq.shape[:-2] + (w.hidden_size,))
    c = np.zeros_like(h)
    steps = []
    indices = range(seq.shape[-2])
    if reverse:
        indices = reversed(indices)
    for t in indices:
        h, c, cache = lstm_cell_step(w, seq[..., t, :], h, c)
        steps.append(cache)
    return h, steps


def oracle_encode(m: OracleBiLstm, seq, training=False, rng=None):
    """Concat of the final states of a pass over t = 1..L and one over t = L..1."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim not in (2, 3):
        raise ShapeError(f"sequence must be (L, d) or (B, L, d), got shape {seq.shape}")
    if seq.shape[-2] < 1:
        raise ValueError("empty sequence")
    h_fwd, fwd_steps = _run_direction(m.forward, seq, reverse=False)
    h_bwd, bwd_steps = _run_direction(m.backward, seq, reverse=True)
    out = np.concatenate([h_fwd, h_bwd], axis=-1)
    mask = None
    if training and m.dropout_rate > 0.0:
        keep = 1.0 - m.dropout_rate
        mask = (rng.random(out.shape) < keep).astype(float) / keep
        out = out * mask
    return out, (fwd_steps, bwd_steps, mask, seq.shape)


def _bptt(w: RecurrentWeights, steps: list, dh_final):
    grads = RecurrentGrads(
        w_x=np.zeros_like(w.w_x), w_h=np.zeros_like(w.w_h), bias=np.zeros_like(w.bias)
    )
    dh = dh_final
    dc = np.zeros_like(dh_final)
    dxs = []
    for x_t, h_prev, c_prev, i, f, g, o, c in reversed(steps):
        tanh_c = np.tanh(c)
        da_o = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da_f = dc * c_prev * f * (1.0 - f)
        da_i = dc * g * i * (1.0 - i)
        da_g = dc * i * (1.0 - g * g)
        da = np.concatenate([da_i, da_f, da_g, da_o], axis=-1)
        da2 = da.reshape(-1, da.shape[-1])
        grads.w_x += da2.T @ x_t.reshape(-1, x_t.shape[-1])
        grads.w_h += da2.T @ h_prev.reshape(-1, h_prev.shape[-1])
        grads.bias += da2.sum(axis=0)
        dxs.append(da @ w.w_x)
        dh = da @ w.w_h
        dc = dc * f
    dxs.reverse()  # back to this direction's own step order
    return grads, dxs


def oracle_backward(m: OracleBiLstm, cache, upstream):
    """Returns ``((fwd, bwd), grad_seq)``: one ``RecurrentGrads`` per direction, and
    ``grad_seq`` shaped like the sequence."""
    fwd_steps, bwd_steps, mask, seq_shape = cache
    upstream = np.asarray(upstream, dtype=float)
    if mask is not None:
        upstream = upstream * mask
    h = m.hidden_size
    fwd_grads, fwd_dxs = _bptt(m.forward, fwd_steps, upstream[..., :h])
    bwd_grads, bwd_dxs = _bptt(m.backward, bwd_steps, upstream[..., h:])
    grad_seq = np.zeros(seq_shape)
    length = seq_shape[-2]
    for t in range(length):
        grad_seq[..., t, :] += fwd_dxs[t]
        # the reversed direction's step s consumed original index L-1-s
        grad_seq[..., length - 1 - t, :] += bwd_dxs[t]
    return (fwd_grads, bwd_grads), grad_seq


def zero_weights(d_in, hidden):
    return RecurrentWeights(
        w_x=np.zeros((4 * hidden, d_in)),
        w_h=np.zeros((4 * hidden, hidden)),
        bias=np.zeros(4 * hidden),
    )


def grad_tensors(grads) -> dict:
    """Name each direction's gradients, given as the model's ``(w_x, bias)`` pair,
    whose rows are split into the directions' (3H, ...) rows, or as the oracle's
    ``RecurrentGrads`` per direction."""
    if isinstance(grads[0], RecurrentGrads):
        return {f"{tag}.{name}": arr for tag, g in zip(DIRECTIONS, grads)
                for name, arr in vars(g).items()}
    return {f"{tag}.{name}": split_rows(arr, k) for k, tag in enumerate(DIRECTIONS)
            for name, arr in zip(("w_x", "bias"), grads)}


def weight_tensors(m) -> dict:
    """Name each direction's parameters like ``grad_tensors``: views into the model's
    merged ``w_x`` and ``bias``, or the oracle's ``RecurrentWeights``."""
    if isinstance(m, OracleBiLstm):
        return {f"{tag}.{name}": arr for tag, w in zip(DIRECTIONS, (m.forward, m.backward))
                for name, arr in vars(w).items()}
    return {f"{tag}.{name}": direction_rows(getattr(m, name), k)
            for k, tag in enumerate(DIRECTIONS) for name in ("w_x", "bias")}


class TestCellStep:
    def test_all_zero_inputs_give_zero_state(self):
        w = zero_weights(3, 4)
        h, c, _ = lstm_cell_step(w, np.zeros(3), np.zeros(4), np.zeros(4))
        # sigmoid(0) = 0.5 and tanh(0) = 0, so c = 0 and h = 0
        np.testing.assert_array_equal(c, np.zeros(4))
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_zero_weights_halve_previous_cell(self):
        w = zero_weights(3, 4)
        c0 = np.array([1.0, -2.0, 0.5, 3.0])
        _, c, _ = lstm_cell_step(w, np.zeros(3), np.zeros(4), c0)
        np.testing.assert_allclose(c, 0.5 * c0, atol=1e-15)

    def test_hidden_output_bounded(self):
        rng = np.random.default_rng(0)
        m = bilstm_init(5, 6, 0.0, rng)
        w = with_recurrent(m, rng).forward
        for _ in range(20):
            h, _, _ = lstm_cell_step(
                w, rng.normal(scale=10, size=5), rng.normal(size=6), rng.normal(size=6)
            )
            assert np.all(np.abs(h) < 1.0)
        out, _ = bilstm_encode(m, rng.normal(scale=10, size=(20, 5)))
        assert np.all(np.abs(out) < 1.0)

    def test_shape_mismatch(self):
        w = zero_weights(3, 4)
        with pytest.raises(ShapeError):
            lstm_cell_step(w, np.zeros(2), np.zeros(4), np.zeros(4))
        m = BiLstm(w_x=np.zeros((24, 3)), bias=np.zeros(24), dropout_rate=0.3)
        with pytest.raises(ShapeError):
            bilstm_encode(m, np.zeros(2))
        with pytest.raises(ShapeError):
            bilstm_encode(m, np.zeros((2, 1, 3)))


def without_forget(arr, hidden):
    """The oracle's four-gate rows less the forget block H:2H."""
    return np.delete(arr, np.s_[hidden : 2 * hidden], axis=0)


class TestOneStepMatchesOracle:
    """The closed form gives the length-1 oracle's results, dropout included,
    whatever the oracle's forget block holds."""

    def test_sigmoid_matches_two_branch_formula(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(scale=20.0, size=(64, 4)).ravel(),
            [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 1e4, -1e4, np.inf, -np.inf],
        ])
        out, ref = _sigmoid(x), oracle_sigmoid(x)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert np.isnan(_sigmoid(np.array([np.nan]))).all()

    @pytest.mark.parametrize("d_in", [24, 1927])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("training", [False, True])
    def test_output_and_all_gradients_equal(self, d_in, batched, training):
        rng = np.random.default_rng(d_in + 2 * batched + training)
        m = bilstm_init(d_in, 64, 0.3, rng)
        x = rng.normal(size=(64, d_in) if batched else d_in)
        upstream = rng.normal(size=x.shape[:-1] + (128,))

        out, cache = bilstm_encode(m, x, training=training, rng=np.random.default_rng(5))
        oracle = with_recurrent(m, np.random.default_rng(6))
        ref, ref_cache = oracle_encode(
            oracle, x[..., None, :], training=training, rng=np.random.default_rng(5)
        )
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

        grads = grad_tensors(bilstm_backward(m, cache, upstream))
        ref_grads = grad_tensors(oracle_backward(oracle, ref_cache, upstream)[0])
        # a step from zero state never reads w_h or the forget rows: their
        # oracle gradients are 0
        assert not np.any(ref_grads.pop("fwd.w_h")) and not np.any(ref_grads.pop("bwd.w_h"))
        for name, ref_grad in ref_grads.items():
            assert not np.any(ref_grad[64:128]), name
            ref_grads[name] = without_forget(ref_grad, 64)
        assert list(grads) == list(ref_grads)
        for name, ref_grad in ref_grads.items():
            assert grads[name].shape == ref_grad.shape, name
            if name.endswith("w_x") and d_in == 1927 and batched:
                # BLAS blocks the 4H-row product differently from the 6H-row
                # one at this width, so the sums over the batch are ordered
                # differently
                np.testing.assert_allclose(grads[name], ref_grad, rtol=1e-13, err_msg=name)
            else:
                assert np.array_equal(grads[name], ref_grad), name


class TestEncode:
    def test_length_one_output_width(self):
        m = bilstm_init(10, 64, 0.3, np.random.default_rng(0))
        out, _ = bilstm_encode(m, np.random.default_rng(1).normal(size=10))
        assert out.shape == (128,)
        batch, _ = bilstm_encode(m, np.random.default_rng(1).normal(size=(3, 10)))
        assert batch.shape == (3, 128)

    def test_empty_sequence_rejected(self):
        m = bilstm_init(4, 3, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            oracle_encode(m, np.zeros((0, 4)))

    def test_zero_dropout_training_equals_eval(self):
        m = bilstm_init(4, 3, 0.0, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 4))
        eval_out, _ = bilstm_encode(m, x, training=False)
        train_out, _ = bilstm_encode(m, x, training=True, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(eval_out, train_out)

    def test_inverted_dropout_preserves_expectation(self):
        # Monte-Carlo: the mean over mask draws matches the undropped output within 2%
        m = bilstm_init(3, 4, 0.3, np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=3)
        reference, _ = bilstm_encode(m, x, training=False)
        rng = np.random.default_rng(7)
        total = np.zeros_like(reference)
        draws = 10_000
        for _ in range(draws):
            out, _ = bilstm_encode(m, x, training=True, rng=rng)
            total += out
        mean = total / draws
        scale = np.abs(reference).max()
        np.testing.assert_allclose(mean, reference, atol=0.02 * scale)

    def test_bidirectional_symmetry(self):
        rng = np.random.default_rng(11)
        m = with_recurrent(bilstm_init(5, 4, 0.0, rng), rng)
        seq = rng.normal(size=(6, 5))
        out, _ = oracle_encode(m, seq)
        swapped = OracleBiLstm(forward=m.backward, backward=m.forward, dropout_rate=0.0)
        out_rev, _ = oracle_encode(swapped, seq[::-1])
        np.testing.assert_allclose(out_rev[:4], out[4:], atol=1e-14)
        np.testing.assert_allclose(out_rev[4:], out[:4], atol=1e-14)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(13)
        m = bilstm_init(4, 3, 0.0, rng)
        seqs = rng.normal(size=(5, 3, 4))
        oracle = with_recurrent(m, rng)
        batched, _ = oracle_encode(oracle, seqs)
        singles = np.stack([oracle_encode(oracle, s)[0] for s in seqs])
        np.testing.assert_allclose(batched, singles, atol=1e-14)
        xs = seqs[:, 0, :]
        batched, _ = bilstm_encode(m, xs)
        singles = np.stack([bilstm_encode(m, x)[0] for x in xs])
        np.testing.assert_allclose(batched, singles, atol=1e-14)


def assert_matches_finite_differences(m, loss, grads: dict, rng):
    h = 1e-5
    weights = weight_tensors(m)
    for name, grad in grads.items():
        arr = weights[name]
        analytic = grad.reshape(-1)
        picks = rng.choice(arr.size, size=min(10, arr.size), replace=False)
        for p in picks:
            coord = np.unravel_index(p, arr.shape)
            orig = arr[coord]
            arr[coord] = orig + h
            up = loss()
            arr[coord] = orig - h
            down = loss()
            arr[coord] = orig
            numeric = (up - down) / (2 * h)
            a = analytic[p]
            assert abs(a - numeric) <= 1e-8 + 1e-5 * max(abs(a), abs(numeric)), name


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        m = bilstm_init(4, 3, 0.0, rng)
        _, cache = bilstm_encode(m, rng.normal(size=4))
        grads = bilstm_backward(m, cache, np.zeros(6))
        assert all(not np.any(g) for g in grad_tensors(grads).values())

    @pytest.mark.parametrize("length", [1, 3])
    def test_finite_difference_all_tensors(self, length):
        rng = np.random.default_rng(17 + length)
        m = with_recurrent(bilstm_init(3, 4, 0.0, rng), rng)
        seq = rng.normal(size=(length, 3))
        upstream = rng.normal(size=8)

        _, cache = oracle_encode(m, seq)
        grads, grad_seq = oracle_backward(m, cache, upstream)

        def loss():
            out, _ = oracle_encode(m, seq)
            return float(upstream @ out)

        assert_matches_finite_differences(m, loss, grad_tensors(grads), rng)

        h = 1e-5
        for t in range(length):
            for j in range(3):
                sp = seq.copy()
                sp[t, j] += h
                up = float(upstream @ oracle_encode(m, sp)[0])
                sp[t, j] -= 2 * h
                down = float(upstream @ oracle_encode(m, sp)[0])
                numeric = (up - down) / (2 * h)
                a = grad_seq[t, j]
                assert abs(a - numeric) <= 1e-8 + 1e-5 * max(abs(a), abs(numeric))

    @pytest.mark.parametrize("batched", [False, True])
    def test_finite_difference_one_step(self, batched):
        rng = np.random.default_rng(19 + batched)
        m = bilstm_init(3, 4, 0.0, rng)
        x = rng.normal(size=(5, 3) if batched else 3)
        upstream = rng.normal(size=x.shape[:-1] + (8,))

        _, cache = bilstm_encode(m, x)
        grads = bilstm_backward(m, cache, upstream)

        def loss():
            out, _ = bilstm_encode(m, x)
            return float(np.sum(upstream * out))

        assert_matches_finite_differences(m, loss, grad_tensors(grads), rng)

    def test_recurrent_weights_get_gradient_beyond_length_one(self):
        rng = np.random.default_rng(23)
        m = with_recurrent(bilstm_init(3, 4, 0.0, rng), rng)
        _, cache = oracle_encode(m, rng.normal(size=(3, 3)))
        grads, _ = oracle_backward(m, cache, rng.normal(size=8))
        assert np.abs(grads[0].w_h).max() > 0

    def test_dropout_mask_applied_in_backward(self):
        rng = np.random.default_rng(29)
        m = bilstm_init(3, 4, 0.5, rng)
        x = rng.normal(size=3)
        out, cache = bilstm_encode(m, x, training=True, rng=np.random.default_rng(31))
        upstream = np.ones(8)
        grads = bilstm_backward(m, cache, upstream)
        # gradient flows only through kept units; a fully dropped output
        # coordinate contributes nothing
        dropped = cache.dropout_mask == 0
        assert dropped.any()  # with p=0.5 over 8 units this seed drops some
        _, eval_cache = bilstm_encode(m, x)
        masked = bilstm_backward(m, eval_cache, upstream * cache.dropout_mask)
        for name, g in grad_tensors(masked).items():
            assert np.array_equal(grad_tensors(grads)[name], g), name

    def test_mismatched_upstream_raises(self):
        rng = np.random.default_rng(0)
        m = bilstm_init(4, 3, 0.0, rng)
        _, cache = bilstm_encode(m, rng.normal(size=4))
        with pytest.raises(ContractViolation):
            bilstm_backward(m, cache, np.zeros(7))
        _, cache = bilstm_encode(m, rng.normal(size=(2, 4)))
        with pytest.raises(ContractViolation):
            bilstm_backward(m, cache, np.zeros(6))

    def test_foreign_cache_rejected(self):
        rng = np.random.default_rng(0)
        m = bilstm_init(4, 3, 0.0, rng)
        other = bilstm_init(5, 3, 0.0, rng)
        _, cache = bilstm_encode(m, rng.normal(size=4))
        with pytest.raises(ContractViolation):
            bilstm_backward(other, cache, np.zeros(6))
