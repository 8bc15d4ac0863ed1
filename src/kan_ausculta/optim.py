"""Training machinery: focal loss, AdamW, LR plateau scheduling, early stopping.

The focal loss is computed on softmax probabilities and returns the exact
gradient with respect to the *logits* (the softmax Jacobian is folded in),
which is what the model backward pass consumes. With (alpha=1, gamma=0) it
reduces to plain cross-entropy, which is how the cross-entropy ablation
presets are realized.

A finite-difference gradient checker is included because every analytic
gradient in this package is verified against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingAbort
from .model import model_backward, model_forward, parameters, softmax

__all__ = [
    "FocalParams",
    "focal_loss",
    "focal_loss_batch",
    "OptimConfig",
    "SchedConfig",
    "AdamWState",
    "adamw_init",
    "adamw_step",
    "SchedulerState",
    "plateau_step",
    "EarlyStopState",
    "early_stop",
    "finite_diff_check",
]

PROB_CLAMP = 1e-12


@dataclass
class FocalParams:
    """Loss shape: -alpha * (1 - p_target)^gamma * log(p_target)."""

    alpha: float = 0.75
    gamma: float = 2.19
    alpha_per_class: np.ndarray | None = None  # optional per-class balancing vector
    # name-keyed overrides from config (focal.alpha.<Class>), resolved to the
    # vector once the class list is known
    alpha_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(0.0 < a <= 1.0 for a in (self.alpha, *self.alpha_overrides.values())):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha} {self.alpha_overrides}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.alpha_per_class is not None:
            self.alpha_per_class = np.asarray(self.alpha_per_class, dtype=float)

    def resolve(self, class_names) -> "FocalParams":
        """Bind name-keyed alpha overrides to a concrete per-class vector."""
        if not self.alpha_overrides:
            return self
        vector = np.full(len(class_names), self.alpha)
        for name, value in self.alpha_overrides.items():
            if name in class_names:
                vector[class_names.index(name)] = float(value)
        return FocalParams(alpha=self.alpha, gamma=self.gamma, alpha_per_class=vector)


def focal_loss(probs, target: int, fp: FocalParams):
    """Loss and exact logit gradient for one probability vector.

    ``focal_loss_batch`` on a batch of one. ``probs`` must lie on the
    simplex (a softmax output). The returned gradient is d(loss)/d(logits)
    under the softmax parameterization, so its components always sum to zero.
    """
    loss, grad = focal_loss_batch(np.asarray(probs, dtype=float)[None, :], [target], fp)
    return loss, grad[0]


def focal_loss_batch(probs, targets, fp: FocalParams):
    """Mean focal loss over a batch and the per-row logit gradients of the mean."""
    probs = np.asarray(probs, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n, n_classes = probs.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch size {n}")
    if np.any(targets < 0) or np.any(targets >= n_classes):
        raise ValueError("target index out of range")

    if fp.alpha_per_class is not None:
        alpha = fp.alpha_per_class[targets]
    else:
        alpha = np.full(n, fp.alpha)
    gamma = fp.gamma
    p_t = np.clip(probs[np.arange(n), targets], PROB_CLAMP, 1.0 - PROB_CLAMP)
    one_minus = 1.0 - p_t
    log_p = np.log(p_t)
    losses = -alpha * one_minus**gamma * log_p
    # d(loss)/d(p_t); the gamma=0 branch avoids 0^(-1) when p_t == 1.
    if gamma == 0.0:
        dl_dp = -alpha / p_t
    else:
        dl_dp = alpha * (gamma * one_minus ** (gamma - 1.0) * log_p - one_minus**gamma / p_t)

    # chain through softmax: dp_t/dlogit_j = p_t * (delta_tj - p_j)
    grad = (dl_dp * p_t)[:, None] * (-probs)
    grad[np.arange(n), targets] += dl_dp * p_t
    return float(losses.mean()), grad / n


@dataclass
class OptimConfig:
    """AdamW settings: the ``optim.*`` config keys; each stage starts at its own rate."""

    lr_stage1: float = 3e-3
    lr_stage2: float = 3e-3
    weight_decay: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        values = (self.lr_stage1, self.lr_stage2, self.weight_decay, self.beta1, self.beta2, self.eps)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("optimizer settings must be finite")
        if min(self.lr_stage1, self.lr_stage2, self.eps) <= 0 or self.weight_decay < 0:
            raise ValueError("learning rates and eps must be positive, weight_decay >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam over a named parameter dict, at rate ``lr``."""

    lr: float
    cfg: OptimConfig
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


def adamw_init(params: dict, lr: float, cfg: OptimConfig | None = None) -> AdamWState:
    """Zero moments for ``params`` at rate ``lr``.

    ``cfg`` (default ``OptimConfig()``) gives betas, eps and weight decay;
    its stage rates are not read here.
    """
    st = AdamWState(lr=lr, cfg=cfg or OptimConfig())
    st.m = {name: np.zeros_like(arr) for name, arr in params.items()}
    st.v = {name: np.zeros_like(arr) for name, arr in params.items()}
    return st


# entries per block of ``adamw_step``: 128 KiB of float64 per array, so a
# block of theta, g, m, v and the scratch buffer stays in cache across passes
_ADAMW_BLOCK = 2**14


def adamw_step(params: dict, grads: dict, st: AdamWState) -> None:
    """In-place update: theta -= lr * m_hat / (sqrt(v_hat) + eps) + lr * wd * theta.

    m_hat = m / bc1 and v_hat = v / bc2 are folded into scalars, so every
    tensor op writes into m, v, theta or one scratch block per tensor.
    Each tensor is walked in blocks of leading-axis rows of about
    ``_ADAMW_BLOCK`` entries; every operation is elementwise, so blocks
    give the bytes of one pass over the whole tensor.
    """
    beta1, beta2, eps, weight_decay = st.cfg.beta1, st.cfg.beta2, st.cfg.eps, st.cfg.weight_decay
    st.step += 1
    bc1 = 1.0 - beta1**st.step
    bc2 = 1.0 - beta2**st.step
    step_size = st.lr / bc1
    sqrt_bc2 = math.sqrt(bc2)
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingAbort("non-finite gradient", parameter=name)
        m = st.m[name]
        v = st.v[name]
        rows = max(1, _ADAMW_BLOCK * len(theta) // max(1, theta.size))
        scratch = np.empty_like(theta[:rows])  # the one scratch block of this tensor
        for lo in range(0, len(theta), rows):
            block = slice(lo, lo + rows)
            tb, gb, mb, vb = theta[block], g[block], m[block], v[block]
            buf = scratch[: len(tb)]
            mb *= beta1
            np.multiply(gb, 1.0 - beta1, out=buf)
            mb += buf
            vb *= beta2
            np.multiply(gb, 1.0 - beta2, out=buf)
            buf *= gb
            vb += buf
            np.sqrt(vb, out=buf)
            buf /= sqrt_bc2
            buf += eps
            np.divide(mb, buf, out=buf)
            buf *= step_size
            tb -= buf
            if weight_decay != 0.0:
                np.multiply(tb, st.lr * weight_decay, out=buf)
                tb -= buf


@dataclass
class SchedConfig:
    """Reduce-on-plateau settings: the ``sched.*`` config keys."""

    factor: float = 0.5
    patience: int = 4
    threshold: float = 1e-4
    min_lr: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.factor < 1.0):
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not (math.isfinite(self.threshold) and math.isfinite(self.min_lr)):
            raise ValueError("threshold and min_lr must be finite")


@dataclass
class SchedulerState:
    """Reduce-on-plateau for a higher-is-better metric, from rate ``lr``."""

    lr: float
    cfg: SchedConfig = field(default_factory=SchedConfig)
    best: float = -math.inf
    stale: int = 0


def plateau_step(st: SchedulerState, metric: float) -> float:
    """Record one epoch's metric; halve the LR after patience is exhausted.

    Improvement means strictly beating the best by more than the threshold.
    Returns the (possibly reduced) learning rate.
    """
    if not math.isfinite(metric):
        raise ValueError("metric must be finite")
    if metric > st.best + st.cfg.threshold:
        st.best = metric
        st.stale = 0
    else:
        st.stale += 1
        if st.stale > st.cfg.patience:
            st.lr = max(st.lr * st.cfg.factor, st.cfg.min_lr)
            st.stale = 0
    return st.lr


@dataclass
class EarlyStopState:
    """Stop after ``patience`` consecutive non-improving epochs, keeping the best snapshot."""

    patience: int
    threshold: float
    best: float = -math.inf
    stale: int = 0
    best_snapshot: object = None
    best_epoch: int = -1


def early_stop(st: EarlyStopState, metric: float, snapshot=None, epoch: int | None = None) -> bool:
    """Returns True when training should stop.

    On improvement the provided ``snapshot`` (opaque to this function)
    replaces the stored best; the caller later restores it, so a stopped
    run hands back the epoch-of-best model rather than the last one.
    """
    if not math.isfinite(metric):
        raise ValueError("metric must be finite")
    if metric > st.best + st.threshold:
        st.best = metric
        st.stale = 0
        st.best_snapshot = snapshot
        if epoch is not None:
            st.best_epoch = epoch
        return False
    st.stale += 1
    return st.stale >= st.patience


_COORDS_PER_TENSOR = 4


def _coord_choices(name: str, arr: np.ndarray, rng) -> list[tuple]:
    """Flat coordinates to probe: ``_COORDS_PER_TENSOR``, or one per LSTM row block
    (gate x direction)."""
    size = arr.size
    if name.startswith("lstm.") and arr.shape[0] % 6 == 0:
        block = arr.shape[0] // 6
        row_stride = size // arr.shape[0]
        picks = []
        for first in range(0, arr.shape[0], block):
            row = first + int(rng.integers(block))
            offset = int(rng.integers(row_stride)) if row_stride > 1 else 0
            picks.append(row * row_stride + offset)
        return [np.unravel_index(p, arr.shape) for p in picks]
    n = min(_COORDS_PER_TENSOR, size)
    flat = rng.choice(size, size=n, replace=False)
    return [np.unravel_index(int(p), arr.shape) for p in flat]


def finite_diff_check(
    model,
    sample,
    target: int,
    h: float = 1e-5,
    fp: FocalParams | None = None,
    *,
    rng: np.random.Generator,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Probes a seeded subsample of coordinates in every parameter tensor
    (covering each LSTM gate block of each direction) through the full
    focal-loss composition. Differences below 1e-8 absolute count as zero
    error.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if fp is None:
        fp = FocalParams()
    sample = np.asarray(sample, dtype=float)

    def loss_at() -> float:
        logits, _ = model_forward(model, sample, training=False)
        loss, _ = focal_loss(softmax(logits), target, fp)
        return loss

    logits, cache = model_forward(model, sample, training=False)
    _, grad_logits = focal_loss(softmax(logits), target, fp)
    analytic = model_backward(model, cache, grad_logits)

    params = parameters(model)
    atol = 1e-8
    worst = 0.0
    for name, arr in params.items():
        for coord in _coord_choices(name, arr, rng):
            original = arr[coord]
            arr[coord] = original + h
            up = loss_at()
            arr[coord] = original - h
            down = loss_at()
            arr[coord] = original
            numeric = (up - down) / (2.0 * h)
            diff = abs(analytic[name][coord] - numeric)
            if diff > atol:
                denom = max(abs(analytic[name][coord]), abs(numeric))
                worst = max(worst, diff / denom)
    return worst
