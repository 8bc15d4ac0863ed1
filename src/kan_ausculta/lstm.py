"""Bidirectional LSTM encoder over one feature vector, with exact gradients.

The model encodes one aggregated feature vector per recording, so each
direction runs a single cell step from zero state, and the two directions
differ only in their weights. With ``h_prev = c_prev = 0`` the recurrent
product and the forget gate drop out, and the two directions together are
one step of width 2H:

    a       = W x + b                   (three gate blocks)
    i, o    = sigmoid(a)                (their gate blocks)
    g       = tanh(a)                   (cell-candidate block)
    c       = i * g
    h       = o * tanh(c)               (concat(forward state, backward state))

Gate layout: ``w_x`` (6H, d_in) and ``bias`` (6H,) stack the three gates a
step from zero state reads as contiguous blocks in the order (input, cell,
output); each gate block holds the forward direction's H rows over the
backward direction's H rows. The forget gate multiplies the zero cell and
the recurrent matrix the zero state, so the encoder holds neither.

Inverted dropout is applied to the output in training mode only. Gradients
come back as one plain ``(w_x, bias)`` array pair. The general length-L
recurrence with backpropagation through time lives in ``tests/test_lstm.py``
as the oracle this closed form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeError

__all__ = [
    "BiLstm",
    "EncodeCache",
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
class BiLstm:
    """Both directions' gate parameters, gate-stacked along the first axis."""

    w_x: np.ndarray  # (6H, d_in)
    bias: np.ndarray  # (6H,)
    dropout_rate: float

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def hidden_size(self) -> int:
        """H, the width of one direction."""
        return self.bias.shape[0] // 6

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size


def bilstm_init(
    d_in: int, hidden: int, dropout_rate: float, rng: np.random.Generator
) -> BiLstm:
    """Uniform [-1/sqrt(H), 1/sqrt(H)] input matrix, zero bias."""
    if d_in < 1 or hidden < 1:
        raise ValueError(f"dimensions must be positive, got ({d_in}, {hidden})")
    bound = 1.0 / np.sqrt(hidden)
    # per direction, the four-gate input block and the (4H, H) recurrent
    # block are drawn so seeded inits keep their bytes; the forget rows H:2H
    # and the recurrent block are discarded
    w_x = np.empty((3, 2, hidden, d_in))  # (gate, direction, row, column)
    for direction in range(2):
        draw = rng.uniform(-bound, bound, size=(4, hidden, d_in))  # (input, forget, cell, output)
        rng.uniform(-bound, bound, size=(4 * hidden, hidden))
        w_x[0, direction] = draw[0]
        w_x[1:, direction] = draw[2:]
    return BiLstm(
        w_x=w_x.reshape(6 * hidden, d_in), bias=np.zeros(6 * hidden), dropout_rate=dropout_rate
    )


@dataclass
class EncodeCache:
    x: np.ndarray
    gates: tuple  # (i, g, o, tanh(c)), each of width 2H
    dropout_mask: np.ndarray | None
    hidden_size: int


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

    width = m.output_size
    a = x @ m.w_x.T + m.bias
    i = _sigmoid(a[..., :width])
    g = np.tanh(a[..., width : 2 * width])
    o = _sigmoid(a[..., 2 * width :])
    tanh_c = np.tanh(i * g)
    out = o * tanh_c

    mask = None
    if training and m.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode encode needs an rng for dropout")
        keep = 1.0 - m.dropout_rate
        mask = (rng.random(out.shape) < keep).astype(float) / keep
        out = out * mask

    cache = EncodeCache(x=x, gates=(i, g, o, tanh_c), dropout_mask=mask, hidden_size=m.hidden_size)
    return out, cache


def bilstm_backward(m: BiLstm, cache: EncodeCache, upstream):
    """Exact gradients of the encode output w.r.t. all parameters.

    Returns the ``(w_x, bias)`` gradient pair. ``upstream`` must match the
    encode output shape (..., 2H).
    """
    upstream = np.asarray(upstream, dtype=float)
    if cache.x.shape[-1] != m.input_size or cache.hidden_size != m.hidden_size:
        raise ContractViolation("cache does not belong to this encoder")
    expected = cache.x.shape[:-1] + (m.output_size,)
    if upstream.shape != expected:
        raise ContractViolation(
            f"upstream shape {upstream.shape} does not match encode output {expected}"
        )

    dh = upstream if cache.dropout_mask is None else upstream * cache.dropout_mask
    i, g, o, tanh_c = cache.gates
    da_o = dh * tanh_c * o * (1.0 - o)
    dc = dh * o * (1.0 - tanh_c * tanh_c)
    da_i = dc * g * i * (1.0 - i)
    da_g = dc * i * (1.0 - g * g)
    da = np.concatenate([da_i, da_g, da_o], axis=-1)
    da2 = da.reshape(-1, da.shape[-1])
    return da2.T @ cache.x.reshape(-1, cache.x.shape[-1]), da2.sum(axis=0)
