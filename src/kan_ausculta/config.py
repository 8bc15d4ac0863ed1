"""Run configuration: defaults, flat dotted-key config files, ablation presets.

Config files are plain text with one ``dotted.key = value`` per line and
``#`` comments, e.g.::

    focal.gamma = 2.19
    augment.prob.URTI = 0.6
    train.two_stage = true

Sections are the settings dataclasses of the modules that use them
(``model``, ``optim``, ``imbalance``, ``features``): each setting has one
default and one range check, run at load, so a bad value raises
``ValueError`` before any data is read.

Unknown keys are rejected. Presets mirror the imbalance-technique
ablation: each differs from ``full`` only in its documented switches.
``baseline_ce`` additionally disables two-stage training since it is the
"no techniques" configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .features import FeatureConfig
from .imbalance import AugmentConfig, SmoteConfig
from .model import ModelConfig
from .optim import FocalParams, OptimConfig, SchedConfig

__all__ = ["RunConfig", "PRESETS", "load_config", "apply_overrides", "config_echo"]


@dataclass
class TrainConfig:
    batch_size: int = 64
    stage1_epochs: int = 7
    stage1_majority_cap: int = 50
    stage2_max_epochs: int = 30
    early_stop_patience: int = 7
    early_stop_threshold: float = 1e-4
    two_stage: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.stage2_max_epochs < 1:
            raise ValueError("batch_size and stage2_max_epochs must be positive")
        if self.stage1_majority_cap < 1:
            raise ValueError("stage1_majority_cap must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not math.isfinite(self.early_stop_threshold):
            raise ValueError("early_stop_threshold must be finite")


@dataclass
class RunConfig:
    seed: int = 42
    folds: int = 5
    jobs: int = 1
    preset: str = "full"
    min_class_count: int = 10
    calibration_bins: int = 10
    spline_samples: int = 41
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    focal: FocalParams = field(default_factory=FocalParams)
    optim: OptimConfig = field(default_factory=OptimConfig)
    sched: SchedConfig = field(default_factory=SchedConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    smote: SmoteConfig = field(default_factory=SmoteConfig)

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.calibration_bins < 1:
            raise ValueError("calibration_bins must be >= 1")
        if self.spline_samples < 2:
            raise ValueError("spline_samples must be >= 2")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")


# dotted key -> (section attr or None for top level, field name, type)
_KEY_TABLE = {
    "seed": (None, "seed", int),
    "folds": (None, "folds", int),
    "jobs": (None, "jobs", int),
    "preset": (None, "preset", str),
    "data.min_class_count": (None, "min_class_count", int),
    "eval.calibration_bins": (None, "calibration_bins", int),
    "eval.spline_samples": (None, "spline_samples", int),
    "features.sample_rate": ("features", "sample_rate", int),
    "features.band_low": ("features", "band_low", float),
    "features.band_high": ("features", "band_high", float),
    "features.frame_length": ("features", "frame_length", int),
    "features.hop_length": ("features", "hop_length", int),
    "features.n_mels": ("features", "n_mels", int),
    "features.n_mfcc": ("features", "n_mfcc", int),
    "features.subbands": ("features", "subbands", bool),
    "lstm.hidden": ("model", "lstm_hidden", int),
    "lstm.dropout": ("model", "dropout", float),
    "kan.hidden": ("model", "kan_hidden", int),
    "kan.grid_size": ("model", "grid_size", int),
    "kan.order": ("model", "spline_order", int),
    "kan.domain_min": ("model", "domain_min", float),
    "kan.domain_max": ("model", "domain_max", float),
    "focal.alpha": ("focal", "alpha", float),
    "focal.gamma": ("focal", "gamma", float),
    "optim.lr_stage1": ("optim", "lr_stage1", float),
    "optim.lr_stage2": ("optim", "lr_stage2", float),
    "optim.weight_decay": ("optim", "weight_decay", float),
    "optim.beta1": ("optim", "beta1", float),
    "optim.beta2": ("optim", "beta2", float),
    "optim.eps": ("optim", "eps", float),
    "sched.factor": ("sched", "factor", float),
    "sched.patience": ("sched", "patience", int),
    "sched.threshold": ("sched", "threshold", float),
    "sched.min_lr": ("sched", "min_lr", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.stage1_epochs": ("train", "stage1_epochs", int),
    "train.stage1_majority_cap": ("train", "stage1_majority_cap", int),
    "train.stage2_max_epochs": ("train", "stage2_max_epochs", int),
    "train.early_stop_patience": ("train", "early_stop_patience", int),
    "train.early_stop_threshold": ("train", "early_stop_threshold", float),
    "train.two_stage": ("train", "two_stage", bool),
    "augment.enabled": ("augment", "enabled", bool),
    "augment.base_probability": ("augment", "base_probability", float),
    "augment.noise_level": ("augment", "noise_level", float),
    "augment.max_shift_fraction": ("augment", "max_shift_fraction", float),
    "augment.pitch_semitones": ("augment", "pitch_range_semitones", float),
    "augment.per_epoch": ("augment", "per_epoch", bool),
    "smote.enabled": ("smote", "enabled", bool),
    "smote.k": ("smote", "k", int),
    "smote.target_ratio": ("smote", "target_ratio", float),
}

# keys with a per-class-name tail, e.g. augment.prob.URTI = 0.6
_PREFIX_TABLE = {
    "augment.prob.": ("augment", "class_probability", float),
    "augment.pitch.": ("augment", "class_pitch_range", float),
    "smote.target.": ("smote", "target_counts", int),
    "focal.alpha.": ("focal", "alpha_overrides", float),
}

# each preset's full switch set, applied on top of the loaded config
PRESETS = {
    "full": {
        "focal.alpha": 0.75,
        "focal.gamma": 2.19,
        "augment.enabled": True,
        "smote.enabled": True,
        "train.two_stage": True,
    },
    "baseline_ce": {
        "focal.alpha": 1.0,
        "focal.gamma": 0.0,
        "augment.enabled": False,
        "smote.enabled": False,
        "train.two_stage": False,
    },
    "focal_only": {
        "focal.alpha": 0.75,
        "focal.gamma": 2.19,
        "augment.enabled": False,
        "smote.enabled": False,
        "train.two_stage": True,
    },
    "augment_only": {
        "focal.alpha": 1.0,
        "focal.gamma": 0.0,
        "augment.enabled": True,
        "smote.enabled": False,
        "train.two_stage": True,
    },
    "smote_only": {
        "focal.alpha": 1.0,
        "focal.gamma": 0.0,
        "augment.enabled": False,
        "smote.enabled": True,
        "train.two_stage": True,
    },
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def _coerce(raw, kind):
    if not isinstance(raw, str):
        return kind(raw)
    raw = raw.strip()
    if kind is bool:
        return _parse_bool(raw)
    return int(raw, 0) if kind is int else kind(raw)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into a raw override dict (strings)."""
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        overrides[key] = value
    return overrides


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply dotted-key overrides, rejecting unknown keys, returning a new config."""
    top: dict = {}
    nested: dict[str, dict] = {}
    for key, raw in overrides.items():
        if key in _KEY_TABLE:
            section, attr, kind = _KEY_TABLE[key]
            value = _coerce(raw, kind)
            if section is None:
                top[attr] = value
            else:
                nested.setdefault(section, {})[attr] = value
            continue
        for prefix, (section, attr, kind) in _PREFIX_TABLE.items():
            if key.startswith(prefix) and len(key) > len(prefix):
                class_name = key[len(prefix) :]
                current = dict(getattr(getattr(cfg, section), attr))
                merged = nested.setdefault(section, {}).setdefault(attr, current)
                merged[class_name] = _coerce(raw, kind)
                break
        else:
            raise ValueError(f"unknown config key {key!r}")

    sections = {}
    for section, values in nested.items():
        sections[section] = replace(getattr(cfg, section), **values)
    return replace(cfg, **top, **sections)


def load_config(path=None, preset: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults -> config file -> preset switches -> explicit overrides."""
    cfg = RunConfig()
    if path is not None:
        cfg = apply_overrides(cfg, parse_config_file(path))
    preset = preset or cfg.preset
    cfg = apply_overrides(cfg, {"preset": preset})
    cfg = apply_overrides(cfg, PRESETS[preset])
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _flatten(obj, prefix: str, out: dict) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        key = f"{prefix}{f.name}"
        if hasattr(value, "__dataclass_fields__"):
            _flatten(value, f"{key}.", out)
        elif isinstance(value, dict):
            for sub, sub_value in sorted(value.items()):
                out[f"{key}.{sub}"] = sub_value
        elif value is None or isinstance(value, (bool, int, float, str)):
            out[key] = value
        else:
            out[key] = str(value)


def config_echo(cfg: RunConfig) -> dict:
    """Flat key -> value view of the full configuration for reports."""
    out: dict = {}
    _flatten(cfg, "", out)
    return out
