import json
from dataclasses import dataclass

import numpy as np
import pytest

from cbsel.baselines import SoftmaxStats, pool_columns
from cbsel.config import ENV_PREFIX, TEMPERATURE_FLOOR, RunConfig, from_json, load_config
from cbsel.errors import ConfigError, PlanError
from cbsel.learner import PrototypeClassifier


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.var_floor == 1e-6
        assert cfg.kmeans_max_iter == 100
        assert cfg.temperature == 0.07
        assert cfg.alpha == 0.5
        assert cfg.replay_per_class == 20
        assert cfg.round_size == 20
        assert cfg.use_unlabeled_distributions is False
        assert len(cfg.to_dict()) == 7

    @pytest.mark.parametrize("field,value", [
        ("var_floor", 0.0),
        ("var_floor", -1.0),
        ("var_floor", float("inf")),
        ("var_floor", float("nan")),
        ("kmeans_max_iter", 0),
        ("temperature", 0.0),
        ("temperature", float("inf")),
        ("temperature", float("nan")),
        ("alpha", -0.1),
        ("alpha", 1.1),
        ("replay_per_class", -1),
        ("round_size", 0),
    ])
    def test_range_violations(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("value", [1e-320, 5e-324, 1e-301])
    def test_temperature_below_the_floor(self, value):
        with pytest.raises(ConfigError, match="^temperature must be >= 1e-300"):
            RunConfig(temperature=value)

    def test_uncertainty_keys_stay_finite_at_the_floor(self):
        # Opposite unit prototypes: the logits reach +-1 / T, the widest gap.
        assert RunConfig(temperature=TEMPERATURE_FLOOR).temperature == 1e-300
        clf = PrototypeClassifier([0, 1], [[1.0, 0.0], [-1.0, 0.0]], TEMPERATURE_FLOOR)
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8]])
        stats = SoftmaxStats.of(clf, pool_columns(rows))
        assert np.isfinite(stats.margin()).all()
        assert np.isfinite(stats.entropy()).all()

    def test_the_softmax_saturates_at_1e_4_and_separates_at_the_default(self):
        rng = np.random.default_rng(0)
        prototypes = rng.standard_normal((5, 8))
        rows = rng.standard_normal((6, 8))
        prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)

        def stats(temperature):
            clf = PrototypeClassifier(range(5), prototypes, RunConfig(temperature=temperature).temperature)
            return SoftmaxStats.of(clf, pool_columns(rows))

        saturated = stats(1e-4)
        assert (saturated.margin() == 1.0).all()
        assert (saturated.entropy() == 0.0).all()
        usual = stats(0.07)
        assert usual.margin().min() < 0.5
        assert len(set(usual.margin().tolist())) == 6
        assert (usual.entropy() > 0.0).all()

    @pytest.mark.parametrize("value", [0.07, 0.01])
    def test_usual_temperatures_load(self, tmp_path, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"temperature": value}))
        assert load_config(path, env={}).temperature == value
        assert load_config(env={"CBSEL_TEMPERATURE": str(value)}).temperature == value

    def test_alpha_endpoints_allowed(self):
        assert RunConfig(alpha=0.0).alpha == 0.0
        assert RunConfig(alpha=1.0).alpha == 1.0

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

    def test_the_removed_kmeans_tol_key_is_unknown(self, tmp_path):
        # Lloyd's only stop rules are "no row moved" and the max_iter cap.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"kmeans_tol": 1e-4}))
        with pytest.raises(ConfigError, match=r"unknown keys \['kmeans_tol'\]"):
            load_config(path, env={})

    def test_a_leftover_kmeans_tol_env_var_is_ignored(self):
        # "0" was out of range while the key existed.
        assert load_config(env={ENV_PREFIX + "KMEANS_TOL": "0"}) == RunConfig()

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

    def test_flag_overrides_an_out_of_range_file_value(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"alpha": 2.0}))
        assert load_config(path, overrides={"alpha": 0.5}, env={}).alpha == 0.5

    def test_unrelated_env_ignored(self):
        cfg = load_config(env={"PATH": "/usr/bin", "CBSEL_UNRELATED": "x"})
        assert cfg == RunConfig()


@dataclass
class Inner:
    ids: tuple[int, ...]


@dataclass
class Outer:
    count: int
    ratio: float
    maybe: float | None
    names: list[str]
    by_id: dict[int, float]
    inner: list[Inner]
    flag: bool = False


VALID = {"count": 3, "ratio": 2, "maybe": None, "names": ["a", "b"],
         "by_id": {"10": 0.5, "2": 1}, "inner": [{"ids": [4, 5]}]}


class TestFromJson:
    def test_reads_every_supported_hint(self):
        got = from_json(Outer, VALID, PlanError)
        assert got == Outer(count=3, ratio=2.0, maybe=None, names=["a", "b"],
                            by_id={10: 0.5, 2: 1.0}, inner=[Inner(ids=(4, 5))])
        assert type(got.ratio) is float
        assert type(got.by_id[2]) is float
        assert from_json(Outer, {**VALID, "maybe": 1.5}, PlanError).maybe == 1.5

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda d: [d], "Outer: expected dict, got list", id="array"),
        pytest.param(lambda d: {**d, "extra": 1}, "Outer: unknown keys ['extra']",
                     id="unknown-key"),
        pytest.param(lambda d: {k: v for k, v in d.items() if k != "count"},
                     "Outer: missing key 'count'", id="missing-key"),
        pytest.param(lambda d: {**d, "count": True},
                     "Outer.count: expected int, got bool", id="true-for-int"),
        pytest.param(lambda d: {**d, "count": 3.0},
                     "Outer.count: expected int, got float", id="float-for-int"),
        pytest.param(lambda d: {**d, "ratio": "2"},
                     "Outer.ratio: expected float, got str", id="string-for-float"),
        pytest.param(lambda d: {**d, "flag": 1},
                     "Outer.flag: expected bool, got int", id="int-for-bool"),
        pytest.param(lambda d: {**d, "maybe": "x"},
                     "Outer.maybe: expected float, got str", id="optional"),
        pytest.param(lambda d: {**d, "names": ["a", 1]},
                     "Outer.names[1]: expected str, got int", id="list-item"),
        pytest.param(lambda d: {**d, "names": "ab"},
                     "Outer.names: expected list, got str", id="not-a-list"),
        pytest.param(lambda d: {**d, "by_id": {"x": 1.0}},
                     "Outer.by_id: expected integer keys, got ['x']", id="dict-key"),
        pytest.param(lambda d: {**d, "by_id": {"2": None}},
                     "Outer.by_id[2]: expected float, got NoneType", id="dict-value"),
        pytest.param(lambda d: {**d, "inner": [{"ids": [1, True]}]},
                     "Outer.inner[0].ids[1]: expected int, got bool",
                     id="nested-tuple-item"),
        pytest.param(lambda d: {**d, "inner": [{}]},
                     "Outer.inner[0]: missing key 'ids'", id="nested-missing-key"),
    ])
    def test_rejects_with_the_given_error_naming_the_key(self, edit, message):
        with pytest.raises(PlanError) as err:
            from_json(Outer, edit(VALID), PlanError)
        assert str(err.value) == message

    def test_config_replace_checks_types(self):
        with pytest.raises(ConfigError, match="round_size"):
            load_config(overrides={"round_size": "5"}, env={})

    def test_int_widens_to_float_in_a_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"temperature": 1}))
        assert type(load_config(path, env={}).temperature) is float
