"""Bidirectional LSTM encoder over one feature vector, with exact gradients.

The model encodes one aggregated feature vector per recording, so each
direction runs a single cell step from zero state, and the two directions
differ only in their weights. With ``h_prev = c_prev = 0`` the recurrent
product and the forget gate drop out, leaving a closed form:

    a       = W x + b                   (three gate blocks)
    i, o    = sigmoid(a)                (their gate blocks)
    g       = tanh(a)                   (cell-candidate block)
    c       = i * g
    h       = o * tanh(c)

Gate layout: the input and bias tensors stack the three gates a step from
zero state reads as contiguous blocks in the order (input, cell, output),
i.e. a hidden size H yields stacked shapes (3H, d_in) and (3H,). The forget
gate multiplies the zero cell and the recurrent matrix the zero state, so a
direction holds neither.

The encoder concatenates the two directions' hidden states; inverted
dropout is applied to that output in training mode only. Gradients come back
as plain ``(w_x, bias)`` array pairs, one per direction. The general
length-L recurrence with backpropagation through time lives in
``tests/test_lstm.py`` as the oracle this closed form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeError

__all__ = [
    "LstmWeights",
    "BiLstm",
    "EncodeCache",
    "lstm_init",
    "bilstm_init",
    "bilstm_encode",
    "bilstm_backward",
]


def _sigmoid(x):
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) so
    # exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LstmWeights:
    """Gate parameters for one direction; gates stacked along the first axis."""

    w_x: np.ndarray  # (3H, d_in)
    bias: np.ndarray  # (3H,)

    @property
    def hidden_size(self) -> int:
        return self.bias.shape[0] // 3

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass
class BiLstm:
    forward: LstmWeights
    backward: LstmWeights
    dropout_rate: float

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if (
            self.forward.hidden_size != self.backward.hidden_size
            or self.forward.input_size != self.backward.input_size
        ):
            raise ShapeError("forward/backward directions must share (d_in, H)")

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size

    @property
    def input_size(self) -> int:
        return self.forward.input_size

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size


def lstm_init(d_in: int, hidden: int, rng: np.random.Generator) -> LstmWeights:
    """Uniform [-1/sqrt(H), 1/sqrt(H)] input matrix, zero bias."""
    if d_in < 1 or hidden < 1:
        raise ValueError(f"dimensions must be positive, got ({d_in}, {hidden})")
    bound = 1.0 / np.sqrt(hidden)
    # the four-gate input block and the (4H, H) recurrent block are drawn so
    # seeded inits keep their bytes; the forget rows H:2H and the recurrent
    # block are discarded
    w_x = rng.uniform(-bound, bound, size=(4 * hidden, d_in))
    rng.uniform(-bound, bound, size=(4 * hidden, hidden))
    w_x = np.delete(w_x, np.s_[hidden : 2 * hidden], axis=0)
    return LstmWeights(w_x=w_x, bias=np.zeros(3 * hidden))


def bilstm_init(
    d_in: int, hidden: int, dropout_rate: float, rng: np.random.Generator
) -> BiLstm:
    return BiLstm(
        forward=lstm_init(d_in, hidden, rng),
        backward=lstm_init(d_in, hidden, rng),
        dropout_rate=dropout_rate,
    )


@dataclass
class EncodeCache:
    x: np.ndarray
    fwd_gates: tuple  # (i, g, o, tanh(c)) of the forward direction
    bwd_gates: tuple
    dropout_mask: np.ndarray | None
    hidden_size: int


def _step_from_zero(w: LstmWeights, x: np.ndarray):
    """One cell step from zero state; returns ``(h, (i, g, o, tanh(c)))``."""
    h_size = w.hidden_size
    a = x @ w.w_x.T + w.bias
    i = _sigmoid(a[..., :h_size])
    g = np.tanh(a[..., h_size : 2 * h_size])
    o = _sigmoid(a[..., 2 * h_size :])
    tanh_c = np.tanh(i * g)
    return o * tanh_c, (i, g, o, tanh_c)


def bilstm_encode(
    m: BiLstm,
    x,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Encode a feature vector to concat(forward state, backward state).

    ``x`` is (d_in,) for one sample or (B, d_in) for a batch. The output
    has width 2H. In training mode an inverted-dropout mask (Bernoulli
    keep / (1 - p)) is applied to the output so that its expectation
    matches eval mode, which applies the identity.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ShapeError(f"input must be (d,) or (B, d), got shape {x.shape}")
    if x.shape[-1] != m.input_size:
        raise ShapeError(f"expected input width {m.input_size}, got {x.shape[-1]}")

    h_fwd, fwd_gates = _step_from_zero(m.forward, x)
    h_bwd, bwd_gates = _step_from_zero(m.backward, x)
    out = np.concatenate([h_fwd, h_bwd], axis=-1)

    mask = None
    if training and m.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode encode needs an rng for dropout")
        keep = 1.0 - m.dropout_rate
        mask = (rng.random(out.shape) < keep).astype(float) / keep
        out = out * mask

    cache = EncodeCache(
        x=x,
        fwd_gates=fwd_gates,
        bwd_gates=bwd_gates,
        dropout_mask=mask,
        hidden_size=m.hidden_size,
    )
    return out, cache


def _step_grads(x2: np.ndarray, gates: tuple, dh) -> tuple[np.ndarray, np.ndarray]:
    """``(w_x, bias)`` gradients of one zero-state step; ``x2`` is the (B, d_in) input."""
    i, g, o, tanh_c = gates
    da_o = dh * tanh_c * o * (1.0 - o)
    dc = dh * o * (1.0 - tanh_c * tanh_c)
    da_i = dc * g * i * (1.0 - i)
    da_g = dc * i * (1.0 - g * g)
    da = np.concatenate([da_i, da_g, da_o], axis=-1)
    da2 = da.reshape(-1, da.shape[-1])
    return da2.T @ x2, da2.sum(axis=0)


def bilstm_backward(m: BiLstm, cache: EncodeCache, upstream):
    """Exact gradients of the encode output w.r.t. all parameters.

    Returns one ``(w_x, bias)`` gradient pair per direction, forward first.
    ``upstream`` must match the encode output shape (..., 2H).
    """
    upstream = np.asarray(upstream, dtype=float)
    if cache.x.shape[-1] != m.input_size or cache.hidden_size != m.hidden_size:
        raise ContractViolation("cache does not belong to this encoder")
    expected = cache.x.shape[:-1] + (2 * m.hidden_size,)
    if upstream.shape != expected:
        raise ContractViolation(
            f"upstream shape {upstream.shape} does not match encode output {expected}"
        )

    if cache.dropout_mask is not None:
        upstream = upstream * cache.dropout_mask

    h = m.hidden_size
    x2 = cache.x.reshape(-1, cache.x.shape[-1])
    return (
        _step_grads(x2, cache.fwd_gates, upstream[..., :h]),
        _step_grads(x2, cache.bwd_gates, upstream[..., h:]),
    )
