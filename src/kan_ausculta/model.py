"""The hybrid classifier: feature vector -> BiLSTM (one step) -> KAN -> logits.

The aggregated feature vector is encoded by one step of the bidirectional
LSTM from zero state (output width 2H, dropout in training mode),
then passed through the KAN stack whose final layer width equals the
class count. Softmax lives outside the network; the network boundary is
raw logits.

Parameters are exposed as a flat name -> ndarray dict (views, not copies),
and ``model_backward`` returns gradients under the same names, so the
optimizer, checkpointing, and the finite-difference checker all share one
addressing scheme, every tensor of which the forward pass reads:

    lstm.w_x  lstm.bias
    kan.<l>.coeffs

The ``lstm`` pair stacks the gate blocks (input, cell, output), each the
forward direction's H rows over the backward direction's: shapes
(6H, d_feat) and (6H,).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write, read_npz
from .errors import DataError, FingerprintError, ShapeError
from .kan import KanLayer, KanNetwork, kan_network_init, network_backward, network_forward
from .lstm import BiLstm, bilstm_backward, bilstm_encode, bilstm_init
from .splines import KnotVector, make_uniform_grid

__all__ = [
    "ModelConfig",
    "HybridModel",
    "build_model",
    "model_forward",
    "model_backward",
    "softmax",
    "parameters",
    "snapshot_parameters",
    "restore_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 4


@dataclass
class ModelConfig:
    """Architecture settings: the ``lstm.*`` and ``kan.*`` config keys."""

    lstm_hidden: int = 64
    dropout: float = 0.3
    kan_hidden: int = 32
    grid_size: int = 3
    spline_order: int = 3
    domain_min: float = -1.0
    domain_max: float = 1.0

    def __post_init__(self):
        if self.lstm_hidden < 1 or self.kan_hidden < 1:
            raise ValueError("hidden sizes must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        self.grid()  # refuses a bad grid size, spline order or domain

    def grid(self) -> KnotVector:
        return make_uniform_grid(self.domain_min, self.domain_max, self.grid_size, self.spline_order)


@dataclass
class HybridModel:
    encoder: BiLstm
    kan: KanNetwork

    def __post_init__(self):
        if self.encoder.output_size != self.kan.n_in:
            raise ShapeError(
                f"encoder output {self.encoder.output_size} != KAN input {self.kan.n_in}"
            )

    @property
    def feature_dim(self) -> int:
        return self.encoder.input_size

    @property
    def class_count(self) -> int:
        return self.kan.n_out


def build_model(
    d_feat: int,
    class_count: int,
    rng: np.random.Generator,
    cfg: ModelConfig | None = None,
) -> HybridModel:
    """Assemble the architecture of ``cfg`` around a discovered feature width.

    ``cfg`` defaults to ``ModelConfig()``, the paper's sizes.
    """
    cfg = cfg or ModelConfig()
    encoder = bilstm_init(d_feat, cfg.lstm_hidden, cfg.dropout, rng)
    kan = kan_network_init([2 * cfg.lstm_hidden, cfg.kan_hidden, class_count], cfg.grid(), rng)
    return HybridModel(encoder=encoder, kan=kan)


def model_forward(
    m: HybridModel,
    x,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the full composition on (d_feat,) or (B, d_feat) inputs."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.feature_dim:
        raise ShapeError(f"expected feature width {m.feature_dim}, got {x.shape[-1]}")
    encoded, enc_cache = bilstm_encode(m.encoder, x, training=training, rng=rng)
    logits, kan_caches = network_forward(m.kan, encoded)
    return logits, (enc_cache, kan_caches)


def model_backward(m: HybridModel, cache, grad_logits) -> dict[str, np.ndarray]:
    """Exact gradients of sum(grad_logits * logits) w.r.t. every parameter.

    Keyed and ordered as ``parameters(m)``; the arrays are new, not views.
    """
    enc_cache, kan_caches = cache
    grad_encoded, kan_grads = network_backward(m.kan, kan_caches, grad_logits)
    return _named(*bilstm_backward(m.encoder, enc_cache, grad_encoded), kan_grads)


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; rows sum to 1."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _named(w_x, bias, kan_coeffs) -> dict[str, np.ndarray]:
    """Name the LSTM's ``w_x`` and ``bias`` and each KAN layer's coefficients."""
    out = {"lstm.w_x": w_x, "lstm.bias": bias}
    for idx, coeffs in enumerate(kan_coeffs):
        out[f"kan.{idx}.coeffs"] = coeffs
    return out


def parameters(m: HybridModel) -> dict[str, np.ndarray]:
    """Flat name -> array views over all learnable tensors."""
    return _named(m.encoder.w_x, m.encoder.bias, [layer.coeffs for layer in m.kan.layers])


def snapshot_parameters(
    m: HybridModel, out: dict[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """A copy of every parameter; with ``out`` (an earlier snapshot of ``m``), written into it."""
    if out is None:
        return {name: arr.copy() for name, arr in parameters(m).items()}
    for name, arr in parameters(m).items():
        out[name][...] = arr
    return out


def restore_parameters(m: HybridModel, snapshot: dict[str, np.ndarray]) -> None:
    params = parameters(m)
    if set(params) != set(snapshot):
        raise ShapeError("snapshot does not match the model's parameter set")
    for name, arr in params.items():
        arr[...] = snapshot[name]


def save_checkpoint(
    m: HybridModel,
    path,
    fingerprint: str,
    scaler_mean: np.ndarray | None = None,
    scaler_scale: np.ndarray | None = None,
    meta: dict | None = None,
) -> None:
    """Write every tensor plus a JSON meta block into one .npz container, atomically."""
    grid = m.kan.layers[0].grid
    header = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "feature_dim": m.feature_dim,
        "class_count": m.class_count,
        "lstm_hidden": m.encoder.hidden_size,
        "dropout_rate": m.encoder.dropout_rate,
        "kan_dims": [m.kan.layers[0].n_in] + [layer.n_out for layer in m.kan.layers],
        "grid_size": grid.grid_size,
        "spline_order": grid.order,
        "domain": [grid.t_min, grid.t_max],
        "meta": meta or {},
    }
    arrays = {name.replace(".", "__"): arr for name, arr in parameters(m).items()}
    if scaler_mean is not None:
        arrays["scaler_mean"] = scaler_mean
        arrays["scaler_scale"] = scaler_scale
    with atomic_write(path) as staged, open(staged, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path, expected_fingerprint: str | None = None):
    """Rebuild a model from a checkpoint; rejects fingerprint mismatches.

    Returns ``(model, header, scaler_mean, scaler_scale)`` where the scaler
    entries are None when the checkpoint carries no scaler. A file
    ``read_npz`` refuses, or one it cannot rebuild a model from, raises
    ``DataError``, and so does a checkpoint of another version (version 1
    held recurrent matrices, version 2 a forget-gate block, version 3 one
    ``lstm.{fwd,bwd}.*`` pair per direction).
    """
    with read_npz(path, "checkpoint") as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {header.get('version')}")
        if expected_fingerprint is not None and header["fingerprint"] != expected_fingerprint:
            raise FingerprintError(
                f"feature-layout fingerprint mismatch: checkpoint has "
                f"{header['fingerprint']}, expected {expected_fingerprint}"
            )
        arrays = {key.replace("__", "."): data[key] for key in data.files}
        encoder = BiLstm(arrays["lstm.w_x"], arrays["lstm.bias"], header["dropout_rate"])
        grid = make_uniform_grid(*header["domain"], header["grid_size"], header["spline_order"])
        layers = [
            KanLayer(coeffs=arrays[f"kan.{idx}.coeffs"], grid=grid)
            for idx in range(len(header["kan_dims"]) - 1)
        ]
        model = HybridModel(encoder=encoder, kan=KanNetwork(layers=layers))
    return model, header, arrays.get("scaler_mean"), arrays.get("scaler_scale")
