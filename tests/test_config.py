"""Tests for FlowConfig: round-trips, validation, derivation."""

import dataclasses

import pytest

from repro.core.config import POWER_METHODS, FlowConfig
from repro.domino.gates import DEFAULT_LIBRARY, DominoCellLibrary
from repro.errors import ConfigError, ReproError
from repro.power.estimator import DominoPowerModel


class TestDefaults:
    def test_defaults_match_legacy_run_flow_signature(self):
        cfg = FlowConfig()
        assert cfg.input_probability == 0.5
        assert cfg.input_probs is None
        assert cfg.model is None and cfg.library is None
        assert not cfg.timed
        assert cfg.timing_slack_fraction == 0.85
        assert cfg.power_method == "auto"
        assert cfg.area_exhaustive_limit == 12
        assert cfg.power_exhaustive_limit == 10
        assert cfg.max_pairs is None
        assert cfg.n_vectors == 4096
        assert cfg.seed == 0
        assert cfg.current_scale == 0.01
        assert cfg.minimize and not cfg.strash

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FlowConfig().seed = 1  # type: ignore[misc]

    def test_resolved_model_derived_from_library(self):
        model = FlowConfig().resolved_model()
        assert model.gate_cap == DEFAULT_LIBRARY.gate_output_cap
        assert model.inverter_cap == DEFAULT_LIBRARY.inverter_cap
        assert model.clock_cap_per_gate == DEFAULT_LIBRARY.clock_cap

    def test_explicit_model_wins(self):
        model = DominoPowerModel(gate_cap=3.0)
        assert FlowConfig(model=model).resolved_model() is model


class TestRoundTrip:
    def test_dict_round_trip_defaults(self):
        cfg = FlowConfig()
        assert FlowConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_nested(self):
        cfg = FlowConfig(
            input_probs={"a": 0.25, "b": 0.75},
            model=DominoPowerModel(gate_cap=2.0, and_series_penalty=0.1),
            library=DominoCellLibrary(max_and_fanin=3),
            timed=True,
            max_pairs=50,
            seed=17,
            strash=True,
        )
        again = FlowConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.model == cfg.model
        assert again.library.max_and_fanin == 3

    def test_json_round_trip(self):
        cfg = FlowConfig(n_vectors=512, timed=True, input_probs={"x": 0.1})
        assert FlowConfig.from_json(cfg.to_json()) == cfg

    def test_to_dict_is_json_plain(self):
        import json

        text = json.dumps(FlowConfig(model=DominoPowerModel()).to_dict())
        assert "gate_cap" in text

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = FlowConfig(seed=9)
        path.write_text(cfg.to_json())
        assert FlowConfig.from_file(str(path)) == cfg

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            FlowConfig.from_file(str(tmp_path / "nope.json"))

    def test_from_json_invalid(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            FlowConfig.from_json("{not json")


class TestValidation:
    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"input_probability": 1.5}, "input_probability"),
            ({"input_probability": -0.1}, "input_probability"),
            ({"input_probs": {"a": 2.0}}, "input_probs"),
            ({"timing_slack_fraction": 0.0}, "timing_slack_fraction"),
            ({"timing_slack_fraction": 1.5}, "timing_slack_fraction"),
            ({"power_method": "quantum"}, "power_method"),
            ({"area_exhaustive_limit": -1}, "area_exhaustive_limit"),
            ({"power_exhaustive_limit": -2}, "power_exhaustive_limit"),
            ({"max_pairs": -1}, "max_pairs"),
            ({"n_vectors": 0}, "n_vectors"),
            ({"seed": "zero"}, "seed"),
            ({"current_scale": 0.0}, "current_scale"),
            ({"minimize": "no"}, "minimize"),
            ({"timed": 1}, "timed"),
            ({"strash": None}, "strash"),
            ({"n_vectors": 256.5}, "n_vectors"),
            ({"n_vectors": "abc"}, "n_vectors"),
            ({"n_vectors": True}, "n_vectors"),
            ({"area_exhaustive_limit": 1.5}, "area_exhaustive_limit"),
            ({"power_exhaustive_limit": "3"}, "power_exhaustive_limit"),
            ({"max_pairs": 2.0}, "max_pairs"),
            ({"input_probability": float("nan")}, "input_probability"),
            ({"input_probability": "0.5"}, "input_probability"),
            ({"timing_slack_fraction": float("nan")}, "timing_slack_fraction"),
            ({"current_scale": float("nan")}, "current_scale"),
            ({"current_scale": float("inf")}, "current_scale"),
            ({"current_scale": True}, "current_scale"),
            ({"input_probs": {"a": True}}, "input_probs"),
            ({"input_probs": {1: 0.5}}, "input_probs"),
            ({"input_probs": {"a": float("nan")}}, "input_probs"),
            ({"input_probs": {"a": "0.5"}}, "input_probs"),
        ],
    )
    def test_bad_values_raise(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            FlowConfig(**kwargs)

    def test_unknown_dict_key(self):
        with pytest.raises(ConfigError, match="unknown FlowConfig field"):
            FlowConfig.from_dict({"n_vector": 100})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown model field"):
            FlowConfig.from_dict({"model": {"gate_capp": 1.0}})

    def test_non_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            FlowConfig.from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_power_methods_constant(self):
        for method in POWER_METHODS:
            FlowConfig(power_method=method)


class TestReplace:
    def test_replace_changes_and_revalidates(self):
        cfg = FlowConfig().replace(seed=5, timed=True)
        assert cfg.seed == 5 and cfg.timed
        with pytest.raises(ConfigError):
            FlowConfig().replace(n_vectors=-1)

    def test_replace_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown FlowConfig field"):
            FlowConfig().replace(vectors=100)

    def test_cache_key_stable_and_selective(self):
        base = FlowConfig()
        assert base.cache_key() == FlowConfig().cache_key()
        # downstream-only knobs don't perturb the shared-artefact key
        assert base.cache_key() == base.replace(timed=True).cache_key()
        assert base.cache_key() == base.replace(current_scale=1.0).cache_key()
        # upstream knobs do
        assert base.cache_key() != base.replace(seed=1).cache_key()
        assert base.cache_key() != base.replace(strash=True).cache_key()


class TestStageJobs:
    """``stage_jobs`` has no effect: every flow runs its stages on one
    thread.  It stays a validated, serialised field, outside every
    store key, so existing configs and records still load."""

    def test_validation(self):
        with pytest.raises(ConfigError, match="stage_jobs"):
            FlowConfig(stage_jobs=-1)
        with pytest.raises(ConfigError, match="stage_jobs"):
            FlowConfig(stage_jobs=True)
        with pytest.raises(ConfigError, match="stage_jobs"):
            FlowConfig(stage_jobs=1.5)

    def test_resolves_to_one_thread(self):
        for stage_jobs in (0, 1, 4):
            assert FlowConfig(stage_jobs=stage_jobs).resolved_stage_jobs() == 1

    def test_stage_jobs_excluded_from_keys(self):
        a = FlowConfig(stage_jobs=1)
        b = FlowConfig(stage_jobs=4)
        assert a.cache_key() == b.cache_key()
        assert a.result_key() == b.result_key()

    def test_stage_jobs_round_trips(self):
        config = FlowConfig(stage_jobs=3)
        assert FlowConfig.from_dict(config.to_dict()).stage_jobs == 3
        assert FlowConfig.from_json(config.to_json()).stage_jobs == 3
