import pytest

from kan_ausculta.config import (
    PRESETS,
    RunConfig,
    apply_overrides,
    config_echo,
    load_config,
    parse_config_file,
)

# settings each range check refuses when the config is loaded, before any data is read
BAD_SETTINGS = [
    ("kan.grid_size", "0"),
    ("kan.order", "0"),
    ("kan.domain_max", "inf"),
    ("kan.domain_min", "nan"),
    ("lstm.hidden", "0"),
    ("optim.beta1", "1.5"),
    ("optim.beta2", "-0.1"),
    ("optim.eps", "0"),
    ("optim.lr_stage1", "inf"),
    ("optim.lr_stage2", "nan"),
    ("optim.weight_decay", "-1"),
    ("sched.factor", "nan"),
    ("sched.threshold", "inf"),
    ("sched.min_lr", "nan"),
    ("sched.min_lr", "0.5"),
    ("focal.gamma", "nan"),
    ("focal.gamma", "inf"),
    ("focal.alpha.URTI", "-5"),
    ("focal.alpha.URTI", "nan"),
    # per-class keys whose class name is misspelt or miscased
    ("augment.prob.urti", "0.9"),
    ("focal.alpha.Urti", "0.9"),
    ("smote.target.URTl", "40"),
    ("train.early_stop_threshold", "nan"),
    ("train.early_stop_patience", "0"),
    ("train.stage1_majority_cap", "0"),
    ("train.stage1_epochs", "-3"),
    ("data.min_class_count", "0"),
    ("eval.calibration_bins", "0"),
    ("jobs", "0"),
    ("jobs", "-3"),
    ("features.frame_length", "0"),
    ("features.hop_length", "0"),
]

# keys of older releases, refused as unknown when the config is loaded
REMOVED_KEYS = [("eval.spline_samples", "1"), ("augment.per_epoch", "false")]

# config_echo(load_config(preset="full")): every key of report.json's config echo, in order
FULL_ECHO = [
    ("seed", 42),
    ("folds", 5),
    ("jobs", 1),
    ("preset", "full"),
    ("min_class_count", 10),
    ("calibration_bins", 10),
    ("features.sample_rate", 22050),
    ("features.band_low", 100.0),
    ("features.band_high", 2000.0),
    ("features.filter_order", 4),
    ("features.frame_length", 2048),
    ("features.hop_length", 512),
    ("features.n_mels", 128),
    ("features.n_mfcc", 40),
    ("features.n_chroma", 12),
    ("features.subbands", False),
    ("model.lstm_hidden", 64),
    ("model.dropout", 0.3),
    ("model.kan_hidden", 32),
    ("model.grid_size", 3),
    ("model.spline_order", 3),
    ("model.domain_min", -1.0),
    ("model.domain_max", 1.0),
    ("focal.alpha", 0.75),
    ("focal.gamma", 2.19),
    ("focal.alpha_per_class", None),
    ("optim.lr_stage1", 0.003),
    ("optim.lr_stage2", 0.003),
    ("optim.weight_decay", 0.001),
    ("optim.beta1", 0.9),
    ("optim.beta2", 0.999),
    ("optim.eps", 1e-08),
    ("sched.factor", 0.5),
    ("sched.patience", 4),
    ("sched.threshold", 0.0001),
    ("sched.min_lr", 1e-06),
    ("train.batch_size", 64),
    ("train.stage1_epochs", 7),
    ("train.stage1_majority_cap", 50),
    ("train.stage2_max_epochs", 30),
    ("train.early_stop_patience", 7),
    ("train.early_stop_threshold", 0.0001),
    ("train.two_stage", True),
    ("augment.enabled", True),
    ("augment.base_probability", 0.095),
    ("augment.class_probability.Bronchiolitis", 0.3),
    ("augment.class_probability.Pneumonia", 0.2),
    ("augment.class_probability.URTI", 0.6),
    ("augment.noise_level", 2.17e-05),
    ("augment.max_shift_fraction", 0.15),
    ("augment.pitch_range_semitones", 2.0),
    ("augment.class_pitch_range.Bronchiolitis", 1.0),
    ("augment.class_pitch_range.Pneumonia", 1.5),
    ("augment.class_pitch_range.URTI", 1.0),
    ("smote.enabled", True),
    ("smote.k", 5),
    ("smote.target_ratio", 0.5),
]


class TestDefaults:
    def test_paper_default_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.model.lstm_hidden == 64
        assert cfg.model.dropout == 0.3
        assert cfg.model.kan_hidden == 32
        assert cfg.model.grid_size == 3
        assert cfg.model.spline_order == 3
        assert cfg.focal.alpha == 0.75
        assert cfg.focal.gamma == 2.19
        assert cfg.optim.lr_stage2 == 3e-3
        assert cfg.optim.weight_decay == 1e-3
        assert cfg.train.batch_size == 64
        assert cfg.train.stage2_max_epochs == 30
        assert cfg.train.early_stop_patience == 7
        assert cfg.sched.factor == 0.5
        assert cfg.sched.patience == 4
        assert cfg.train.stage1_epochs == 7
        assert cfg.train.stage1_majority_cap == 50
        assert cfg.folds == 5
        assert cfg.augment.base_probability == 0.095
        assert cfg.augment.noise_level == 2.17e-5
        assert cfg.augment.max_shift_fraction == 0.15
        assert cfg.augment.pitch_range_semitones == 2.0
        assert cfg.augment.class_probability["URTI"] == 0.6
        assert cfg.smote.k == 5
        assert cfg.smote.target_ratio == 0.5


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # comment line
            focal.gamma = 1.5
            lstm.hidden = 32          # trailing comment
            augment.prob.URTI = 0.8
            smote.target.Bronchiolitis = 40
            train.two_stage = false
            """
        )
        cfg = apply_overrides(RunConfig(), parse_config_file(path))
        assert cfg.focal.gamma == 1.5
        assert cfg.model.lstm_hidden == 32
        assert cfg.augment.class_probability["URTI"] == 0.8
        assert cfg.smote.target_counts["Bronchiolitis"] == 40
        assert cfg.train.two_stage is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(RunConfig(), {"focal.delta": "1.0"})

    @pytest.mark.parametrize("key", ["kan.base_branch", "kan.init_scale"])
    def test_removed_model_keys_rejected(self, key):
        # the SiLU base branch and the coefficient-scale knob are gone
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(RunConfig(), {key: "0"})

    def test_per_class_alpha_resolves_to_vector(self):
        cfg = apply_overrides(RunConfig(), {"focal.alpha.URTI": "0.9"})
        fp = cfg.focal.resolve(("Healthy", "COPD", "URTI"))
        assert fp.alpha_per_class is not None
        assert fp.alpha_per_class[2] == 0.9
        assert fp.alpha_per_class[0] == 0.75
        # no overrides: scalar form untouched
        assert RunConfig().focal.resolve(("a", "b")).alpha_per_class is None

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), {"folds": "many"})

    def test_invalid_field_value_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), {"lstm.dropout": "1.5"})

    @pytest.mark.parametrize("key", ["augment.pitch_semitones", "augment.pitch.URTI",
                                     "augment.pitch.COPD"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-3", "-0.5"])
    def test_bad_pitch_range_rejected_at_load(self, key, value):
        with pytest.raises(ValueError, match="pitch ranges must be finite and >= 0"):
            load_config(overrides={key: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    def test_bad_noise_level_rejected_at_load(self, value):
        with pytest.raises(ValueError, match="noise_level must be finite and >= 0"):
            load_config(overrides={"augment.noise_level": value})

    @pytest.mark.parametrize("key", ["augment.pitch_semitones", "augment.pitch.URTI"])
    def test_zero_pitch_range_accepted(self, key):
        cfg = load_config(overrides={key: "0"})
        assert cfg.augment.pitch_range_for("URTI" if key.endswith("URTI") else None) == 0.0

    @pytest.mark.parametrize("key, value", BAD_SETTINGS + REMOVED_KEYS)
    def test_bad_setting_rejected_at_load(self, key, value):
        with pytest.raises(ValueError):
            load_config(overrides={key: value})

    @pytest.mark.parametrize("key, value", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, key, value):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            load_config(path=path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key-value line\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(path)


class TestPresets:
    def test_full_activates_all_techniques(self):
        cfg = load_config(preset="full")
        assert cfg.focal.gamma == 2.19 and cfg.focal.alpha == 0.75
        assert cfg.augment.enabled and cfg.smote.enabled and cfg.train.two_stage

    def test_baseline_is_plain_cross_entropy(self):
        cfg = load_config(preset="baseline_ce")
        assert cfg.focal.alpha == 1.0 and cfg.focal.gamma == 0.0
        assert not cfg.augment.enabled
        assert not cfg.smote.enabled
        assert not cfg.train.two_stage

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_differ_from_full_only_on_documented_switches(self, preset):
        full = config_echo(load_config(preset="full"))
        other = config_echo(load_config(preset=preset))
        documented = set(PRESETS[preset]) | set(PRESETS["full"]) | {"preset"}
        changed = {k for k in full if full[k] != other[k]}
        key_map = {
            "focal.alpha": "focal.alpha",
            "focal.gamma": "focal.gamma",
            "augment.enabled": "augment.enabled",
            "smote.enabled": "smote.enabled",
            "train.two_stage": "train.two_stage",
            "preset": "preset",
        }
        assert changed <= {key_map[k] for k in documented if k in key_map}

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            load_config(preset="does_not_exist")

    def test_explicit_overrides_beat_preset(self):
        cfg = load_config(preset="baseline_ce", overrides={"seed": 9, "folds": 3})
        assert cfg.seed == 9 and cfg.folds == 3


class TestEcho:
    def test_full_preset_echo_is_pinned(self):
        echo = config_echo(load_config(preset="full"))
        assert list(echo.items()) == FULL_ECHO
        assert [type(v) for v in echo.values()] == [type(v) for _, v in FULL_ECHO]

    def test_echo_is_flat_and_complete(self):
        echo = config_echo(RunConfig())
        assert echo["focal.gamma"] == 2.19
        assert echo["model.lstm_hidden"] == 64
        assert echo["augment.class_probability.URTI"] == 0.6
        assert all(isinstance(k, str) for k in echo)
