import json

import pytest

from cbsel.config import ENV_PREFIX, RunConfig, load_config
from cbsel.errors import ConfigError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.var_floor == 1e-6
        assert cfg.kmeans_max_iter == 100
        assert cfg.kmeans_tol == 1e-4
        assert cfg.temperature == 0.07
        assert cfg.alpha == 0.5
        assert cfg.replay_per_class == 20
        assert cfg.round_size == 20
        assert cfg.use_unlabeled_distributions is False

    @pytest.mark.parametrize("field,value", [
        ("var_floor", 0.0),
        ("var_floor", -1.0),
        ("kmeans_max_iter", 0),
        ("kmeans_tol", 0.0),
        ("temperature", 0.0),
        ("alpha", -0.1),
        ("alpha", 1.1),
        ("replay_per_class", -1),
        ("round_size", 0),
    ])
    def test_range_violations(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    def test_alpha_endpoints_allowed(self):
        assert RunConfig(alpha=0.0).alpha == 0.0
        assert RunConfig(alpha=1.0).alpha == 1.0

    def test_replace_skips_none(self):
        cfg = RunConfig().replace(alpha=None, round_size=7)
        assert cfg.alpha == 0.5
        assert cfg.round_size == 7

    def test_replace_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig().replace(learning_rate=0.1)

    def test_to_dict_round_trip(self):
        cfg = RunConfig(alpha=0.25, round_size=5)
        assert RunConfig(**cfg.to_dict()) == cfg


class TestLoadConfig:
    def test_no_sources_gives_defaults(self):
        assert load_config(env={}) == RunConfig()

    def test_file_layer(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 0.75, "round_size": 4}))
        cfg = load_config(path, env={})
        assert cfg.alpha == 0.75
        assert cfg.round_size == 4
        assert cfg.temperature == 0.07

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 0.75}))
        cfg = load_config(path, env={ENV_PREFIX + "ALPHA": "0.25"})
        assert cfg.alpha == 0.25

    def test_overrides_beat_env(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"round_size": 4}))
        cfg = load_config(
            path,
            overrides={"round_size": 9, "alpha": None},
            env={ENV_PREFIX + "ROUND_SIZE": "6", ENV_PREFIX + "ALPHA": "0.1"},
        )
        assert cfg.round_size == 9
        assert cfg.alpha == 0.1

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"momentum": 0.9}))
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"momentum": 0.9}, env={})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_file_must_be_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_env_bool_parsing(self, raw, expected):
        cfg = load_config(env={ENV_PREFIX + "USE_UNLABELED_DISTRIBUTIONS": raw})
        assert cfg.use_unlabeled_distributions is expected

    def test_env_bool_garbage(self):
        with pytest.raises(ConfigError):
            load_config(env={ENV_PREFIX + "USE_UNLABELED_DISTRIBUTIONS": "maybe"})

    def test_env_numeric_coercion(self):
        cfg = load_config(env={
            ENV_PREFIX + "VAR_FLOOR": "1e-3",
            ENV_PREFIX + "REPLAY_PER_CLASS": "3",
        })
        assert cfg.var_floor == 1e-3
        assert cfg.replay_per_class == 3

    def test_env_unparsable_int(self):
        with pytest.raises(ConfigError):
            load_config(env={ENV_PREFIX + "ROUND_SIZE": "many"})

    def test_out_of_range_after_merge(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 2.0}))
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_unrelated_env_ignored(self):
        cfg = load_config(env={"PATH": "/usr/bin", "CBSEL_UNRELATED": "x"})
        assert cfg == RunConfig()
