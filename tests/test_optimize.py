"""Tests for the pluggable optimizer-strategy subsystem (repro.optimize)."""

import json
import os

import pytest

from repro.core.batch import point_config, sweep
from repro.core.config import FlowConfig
from repro.core.pipeline import Pipeline
from repro.errors import ConfigError
from repro.optimize import (
    BUDGET_KEYS,
    OptimizationResult,
    OptimizerBudget,
    OptimizerStrategy,
    get_strategy_class,
    make_strategy,
    register_strategy,
    split_budget_params,
    strategy_names,
    unregister_strategy,
)
from repro.phase import PhaseAssignment, enumerate_assignments
from repro.power.estimator import PhaseEvaluator

#: Built-ins the issue demands (≥ 4, pairwise the default).
BUILTIN_STRATEGIES = (
    "anneal",
    "exhaustive",
    "greedy-flip",
    "groupwise",
    "pairwise",
    "random",
)

#: Cheap, loop-forcing params per strategy for exhaustive sweeps in tests.
CHEAP_PARAMS = {
    "pairwise": {"exhaustive_limit": 0},
    "anneal": {"steps": 24},
    "random": {"n_samples": 12},
    "greedy-flip": {"restarts": 2},
}


@pytest.fixture
def fig3_evaluator(fig3_aoi):
    return PhaseEvaluator(
        fig3_aoi, input_probs={pi: 0.9 for pi in fig3_aoi.inputs}, method="bdd"
    )


@pytest.fixture
def medium_evaluator(medium_random):
    return PhaseEvaluator(medium_random, method="bdd")


# ----------------------------------------------------------------------
# registry


class TestRegistry:
    def test_builtins_registered(self):
        assert strategy_names() == BUILTIN_STRATEGIES

    def test_unknown_name_raises_configerror_listing_registered(self):
        with pytest.raises(ConfigError) as excinfo:
            get_strategy_class("does-not-exist")
        msg = str(excinfo.value)
        assert "does-not-exist" in msg
        assert "pairwise" in msg  # lists what exists

    def test_unknown_param_raises_configerror_naming_it(self):
        with pytest.raises(ConfigError) as excinfo:
            make_strategy("pairwise", not_a_knob=3)
        msg = str(excinfo.value)
        assert "not_a_knob" in msg and "pairwise" in msg

    @pytest.mark.parametrize(
        "name,params",
        [
            ("pairwise", {"exhaustive_limit": -1}),
            ("pairwise", {"max_pairs": -2}),
            ("groupwise", {"group_size": 1}),
            ("greedy-flip", {"restarts": 0}),
            ("anneal", {"steps": 0}),
            ("anneal", {"initial_temp": 0.0}),
            ("anneal", {"cooling": 1.0}),
            ("random", {"n_samples": 0}),
            ("anneal", {"initial_temp": float("nan")}),
            ("anneal", {"initial_temp": float("inf")}),
        ],
    )
    def test_bad_param_values_raise_configerror(self, name, params):
        with pytest.raises(ConfigError):
            make_strategy(name, **params)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigError):
            register_strategy("pairwise")(get_strategy_class("anneal"))

    def test_non_strategy_class_rejected(self):
        with pytest.raises(ConfigError):
            register_strategy("not-a-strategy")(dict)

    def test_custom_strategy_registers_and_flows(self, fig3_evaluator):
        from dataclasses import dataclass

        @register_strategy("all-negative")
        @dataclass(frozen=True)
        class AllNegative(OptimizerStrategy):
            def optimize(self, evaluator, *, initial=None, budget=None, seed=0):
                start = initial or PhaseAssignment.all_positive(evaluator.outputs)
                initial_power = evaluator.power(start)
                cand = PhaseAssignment.all_negative(evaluator.outputs)
                power = evaluator.power(cand)
                if power >= initial_power:
                    cand, power = start, initial_power
                return OptimizationResult(
                    assignment=cand,
                    power=power,
                    initial_power=initial_power,
                    method="all-negative",
                    evaluations=2,
                    strategy=self.name,
                )

        try:
            assert "all-negative" in strategy_names()
            # immediately selectable via config + pipeline
            config = FlowConfig(optimizer="all-negative", n_vectors=256)
            result = make_strategy("all-negative").optimize(fig3_evaluator)
            assert result.strategy == "all-negative"
            assert result.power <= result.initial_power
            assert config.optimizer_key()[0] == "all-negative"
        finally:
            unregister_strategy("all-negative")
        with pytest.raises(ConfigError):
            FlowConfig(optimizer="all-negative")

    def test_params_introspection(self):
        strategy = make_strategy("anneal", steps=9)
        assert strategy.params() == {
            "steps": 9,
            "initial_temp": 0.1,
            "cooling": 0.97,
        }


# ----------------------------------------------------------------------
# budget


class TestBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evaluations": 0},
            {"max_evaluations": True},
            {"max_evaluations": 2.5},
            {"max_seconds": 0},
            {"max_seconds": -1.0},
            {"tolerance": 1.0},
            {"tolerance": -0.1},
            {"tolerance": "big"},
            {"max_seconds": float("nan")},
            {"max_seconds": float("inf")},
        ],
    )
    def test_invalid_budget_raises(self, kwargs):
        with pytest.raises(ConfigError):
            OptimizerBudget(**kwargs)

    def test_split_budget_params(self):
        budget, rest = split_budget_params(
            {"max_evaluations": 8, "tolerance": 0.1, "restarts": 3}
        )
        assert budget == OptimizerBudget(max_evaluations=8, tolerance=0.1)
        assert rest == {"restarts": 3}
        assert set(BUDGET_KEYS) == {"max_evaluations", "max_seconds", "tolerance"}

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_max_evaluations_is_a_hard_cap(self, name, medium_evaluator):
        budget = OptimizerBudget(max_evaluations=5)
        strategy = make_strategy(name, **CHEAP_PARAMS.get(name, {}))
        result = strategy.optimize(medium_evaluator, budget=budget, seed=0)
        assert 1 <= result.evaluations <= 5
        assert result.power <= result.initial_power

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_exhausted_wall_clock_stops_after_first_evaluation(
        self, name, medium_evaluator
    ):
        budget = OptimizerBudget(max_seconds=1e-9)
        strategy = make_strategy(name, **CHEAP_PARAMS.get(name, {}))
        result = strategy.optimize(medium_evaluator, budget=budget, seed=0)
        assert result.evaluations == 1
        assert result.power == result.initial_power

    def test_huge_tolerance_freezes_the_pairwise_loop(self, medium_evaluator):
        strategy = make_strategy("pairwise", exhaustive_limit=0)
        result = strategy.optimize(
            medium_evaluator, budget=OptimizerBudget(tolerance=0.99), seed=0
        )
        # no candidate can beat the incumbent by 99%, so nothing commits
        assert result.power == result.initial_power
        assert all(not record.committed for record in result.history)

    def test_zero_tolerance_is_bit_identical_to_no_budget(self, medium_evaluator):
        strategy = make_strategy("pairwise", exhaustive_limit=0)
        free = strategy.optimize(medium_evaluator, seed=0)
        budgeted = strategy.optimize(
            medium_evaluator, budget=OptimizerBudget(tolerance=0.0), seed=0
        )
        assert free.assignment == budgeted.assignment
        assert free.power == budgeted.power
        assert free.evaluations == budgeted.evaluations


# ----------------------------------------------------------------------
# strategies


class TestStrategies:
    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_never_worse_than_start_and_labelled(self, name, medium_evaluator):
        strategy = make_strategy(name, **CHEAP_PARAMS.get(name, {}))
        result = strategy.optimize(medium_evaluator, seed=0)
        assert result.power <= result.initial_power
        assert result.strategy == name
        assert result.evaluations >= 1

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_deterministic_for_fixed_seed(self, name, medium_evaluator):
        strategy = make_strategy(name, **CHEAP_PARAMS.get(name, {}))
        a = strategy.optimize(medium_evaluator, seed=3)
        b = strategy.optimize(medium_evaluator, seed=3)
        assert a.assignment == b.assignment
        assert a.power == b.power
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_initial_point_respected(self, name, medium_evaluator):
        start = PhaseAssignment.random(medium_evaluator.outputs, seed=9)
        strategy = make_strategy(name, **CHEAP_PARAMS.get(name, {}))
        result = strategy.optimize(medium_evaluator, initial=start, seed=0)
        assert result.initial_power == pytest.approx(
            medium_evaluator.power(start)
        )
        assert result.power <= result.initial_power

    def test_exhaustive_is_global_optimum(self, fig3_evaluator):
        result = make_strategy("exhaustive").optimize(fig3_evaluator)
        best = min(
            fig3_evaluator.power(a)
            for a in enumerate_assignments(fig3_evaluator.outputs)
        )
        assert result.power == pytest.approx(best)

    def test_pairwise_degenerates_to_exhaustive_below_limit(self, fig3_evaluator):
        pairwise = make_strategy("pairwise", exhaustive_limit=10)
        exhaustive = make_strategy("exhaustive")
        a = pairwise.optimize(fig3_evaluator)
        b = exhaustive.optimize(fig3_evaluator)
        assert a.method == "exhaustive"  # the paper's frg1 usage
        assert a.strategy == "pairwise"
        assert a.assignment == b.assignment
        assert a.power == b.power
        assert a.evaluations == b.evaluations

    def test_greedy_flip_ends_in_a_single_flip_local_minimum(
        self, medium_evaluator
    ):
        result = make_strategy("greedy-flip", restarts=2).optimize(
            medium_evaluator, seed=0
        )
        for po in medium_evaluator.outputs:
            flipped = result.assignment.flipped(po)
            assert medium_evaluator.power(flipped) >= result.power

    def test_groupwise_single_output_stays_groupwise(self):
        # the legacy _groupwise ran its group loop even for one output
        # (single-member group, cost-preferred move only) — the strategy
        # must not silently reroute tiny circuits to the pairwise search
        from repro.network.netlist import GateType, LogicNetwork

        net = LogicNetwork("one")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", GateType.OR, ["a", "b"])
        net.add_output("g")
        ev = PhaseEvaluator(net, input_probs={"a": 0.9, "b": 0.9}, method="bdd")
        result = make_strategy("groupwise", group_size=3).optimize(ev)
        assert result.method == "groupwise-3"
        assert result.strategy == "groupwise"

    def test_groupwise_reports_group_size(self, medium_evaluator):
        result = make_strategy("groupwise", group_size=3).optimize(
            medium_evaluator
        )
        assert result.method == "groupwise-3"
        assert result.power <= result.initial_power

    def test_anneal_tracks_best_seen(self, medium_evaluator):
        result = make_strategy("anneal", steps=64).optimize(
            medium_evaluator, seed=1
        )
        # the returned power really is the power of the returned assignment
        assert medium_evaluator.power(result.assignment) == pytest.approx(
            result.power
        )

    def test_anneal_tolerance_stops_a_stalled_walk(self, medium_evaluator):
        strategy = make_strategy("anneal", steps=400)
        free = strategy.optimize(medium_evaluator, seed=1)
        stalled = strategy.optimize(
            medium_evaluator, budget=OptimizerBudget(tolerance=0.5), seed=1
        )
        # demanding 50% jumps, the walk stalls long before 400 steps
        assert stalled.evaluations < free.evaluations
        assert stalled.power <= stalled.initial_power


# ----------------------------------------------------------------------
# FlowConfig plumbing


class TestConfigPlumbing:
    def test_defaults(self):
        config = FlowConfig()
        assert config.optimizer == "pairwise"
        assert config.optimizer_params is None
        strategy, budget = config.resolved_optimizer()
        assert strategy.name == "pairwise"
        assert budget.unlimited and budget.tolerance == 0.0

    def test_legacy_knobs_steer_the_default_strategy(self):
        config = FlowConfig(power_exhaustive_limit=4, max_pairs=7)
        strategy, _ = config.resolved_optimizer()
        assert strategy.exhaustive_limit == 4
        assert strategy.max_pairs == 7

    def test_explicit_params_beat_legacy_knobs(self):
        config = FlowConfig(
            power_exhaustive_limit=4,
            optimizer_params={"exhaustive_limit": 0},
        )
        strategy, _ = config.resolved_optimizer()
        assert strategy.exhaustive_limit == 0

    def test_budget_keys_split_out(self):
        config = FlowConfig(
            optimizer="greedy-flip",
            optimizer_params={"restarts": 3, "max_evaluations": 50},
        )
        strategy, budget = config.resolved_optimizer()
        assert strategy.restarts == 3
        assert budget.max_evaluations == 50

    def test_json_round_trip(self):
        config = FlowConfig(
            optimizer="anneal",
            optimizer_params={"steps": 12, "max_seconds": 2.5},
        )
        restored = FlowConfig.from_json(config.to_json())
        assert restored == config
        assert restored.optimizer_key() == config.optimizer_key()

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(ConfigError) as excinfo:
            FlowConfig(optimizer="nope")
        assert "nope" in str(excinfo.value)

    def test_unknown_strategy_param_rejected_at_construction(self):
        with pytest.raises(ConfigError) as excinfo:
            FlowConfig(optimizer_params={"stale_knob": 1})
        assert "stale_knob" in str(excinfo.value)

    def test_unknown_strategy_via_json(self):
        with pytest.raises(ConfigError) as excinfo:
            FlowConfig.from_json(json.dumps({"optimizer": "nope"}))
        assert "nope" in str(excinfo.value)

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ConfigError):
            FlowConfig(optimizer_params={"steps": [1, 2]})

    @pytest.mark.parametrize(
        "optimizer, params, field",
        [
            ("pairwise", {"max_seconds": float("nan")}, "max_seconds"),
            ("pairwise", {"max_seconds": float("inf")}, "max_seconds"),
            ("anneal", {"initial_temp": float("nan")}, "initial_temp"),
            ("anneal", {"initial_temp": float("inf")}, "initial_temp"),
        ],
    )
    def test_non_finite_values_name_the_field(self, optimizer, params, field):
        with pytest.raises(ConfigError, match=field):
            FlowConfig(optimizer=optimizer, optimizer_params=params)

    def test_optimizer_in_result_key_not_cache_key(self):
        base = FlowConfig()
        other = FlowConfig(optimizer="greedy-flip")
        params = FlowConfig(optimizer_params={"max_pairs": 3})
        assert base.cache_key() == other.cache_key() == params.cache_key()
        assert base.result_key() != other.result_key()
        assert base.result_key() != params.result_key()
        assert other.result_key() != params.result_key()


# ----------------------------------------------------------------------
# pipeline + store integration


class TestPipelineIntegration:
    VECTORS = 256

    def test_default_pipeline_matches_explicit_pairwise(self, small_random):
        from repro.report import flow_result_to_dict

        default = Pipeline(FlowConfig(n_vectors=self.VECTORS)).run(small_random)
        explicit = Pipeline(
            FlowConfig(n_vectors=self.VECTORS, optimizer="pairwise")
        ).run(small_random)
        assert flow_result_to_dict(default.flow) == flow_result_to_dict(
            explicit.flow
        )
        mp = default.stage("optimize_mp").output
        assert mp.strategy == "pairwise"

    @pytest.mark.parametrize("name", ("greedy-flip", "anneal", "random"))
    def test_alternative_strategies_run_end_to_end(self, small_random, name):
        config = FlowConfig(
            n_vectors=self.VECTORS,
            optimizer=name,
            optimizer_params=dict(CHEAP_PARAMS.get(name, {})),
        )
        run = Pipeline(config).run(small_random)
        assert run.flow is not None
        assert run.stage("optimize_mp").output.strategy == name

    def test_no_cross_strategy_store_hits(self, small_random, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        pairwise = FlowConfig(n_vectors=self.VECTORS)
        greedy = pairwise.replace(
            optimizer="greedy-flip", optimizer_params={"restarts": 2}
        )

        first = Pipeline(pairwise, store=store).run(small_random)
        assert not all(s.cached or s.skipped for s in first.stages)

        # same circuit, different strategy: the whole-run record and the
        # MP assignment must both miss; shared artefacts still hit
        second = Pipeline(greedy, store=store).run(small_random)
        assert not second.stage("optimize_mp").cached
        assert not second.stage("measure").cached
        assert second.stage("prepare").cached  # strategy-independent
        assert second.stage("optimize_ma").cached

        # identical resubmissions are served whole, per strategy
        warm_pairwise = Pipeline(pairwise, store=store).run(small_random)
        warm_greedy = Pipeline(greedy, store=store).run(small_random)
        assert all(s.cached or s.skipped for s in warm_pairwise.stages)
        assert all(s.cached or s.skipped for s in warm_greedy.stages)
        from repro.report import flow_result_to_dict

        assert flow_result_to_dict(warm_pairwise.flow) == flow_result_to_dict(
            first.flow
        )
        assert flow_result_to_dict(warm_greedy.flow) == flow_result_to_dict(
            second.flow
        )
        # two strategies → two distinct archived MP assignments
        assert store.stats().entries.get("assign_mp") == 2

    def test_wall_clock_budget_is_never_store_served(self, small_random, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        config = FlowConfig(
            n_vectors=self.VECTORS,
            optimizer_params={"max_seconds": 3600.0},
        )
        assert not config.optimizer_reproducible()

        first = Pipeline(config, store=store).run(small_random)
        assert first.flow is not None
        # machine-dependent artefacts never persisted...
        stats = store.stats()
        assert stats.entries.get("assign_mp") is None
        assert stats.entries.get("flow") is None
        # ...while the strategy-independent ones are
        assert stats.entries.get("prepare") == 1
        assert stats.entries.get("assign_ma") == 1

        # a rerun recomputes the search instead of being short-circuited
        rerun = Pipeline(config, store=store).run(small_random)
        assert not rerun.stage("optimize_mp").cached
        assert not rerun.stage("measure").cached
        assert Pipeline(config, store=store).cached_flow(small_random) is None

    def test_strategy_survives_the_store_round_trip(self, small_random, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        config = FlowConfig(n_vectors=self.VECTORS)
        Pipeline(config, store=store).run(small_random)
        # different current_scale: measure misses, optimize_mp hits
        rerun = Pipeline(config.replace(current_scale=0.02), store=store).run(
            small_random
        )
        stage = rerun.stage("optimize_mp")
        assert stage.cached
        assert stage.output.strategy == "pairwise"


# ----------------------------------------------------------------------
# sweeps


class TestSweepGrids:
    def test_point_config_direct_and_dotted(self):
        base = FlowConfig(optimizer="greedy-flip", optimizer_params={"restarts": 2})
        derived = point_config(
            base, {"optimizer_params.max_evaluations": 64}
        )
        assert derived.optimizer == "greedy-flip"
        # dotted keys merge, they do not flatten the base params
        assert derived.optimizer_params == {
            "restarts": 2,
            "max_evaluations": 64,
        }

    def test_switching_strategy_drops_foreign_params_keeps_budget(self):
        base = FlowConfig(
            optimizer="anneal",
            optimizer_params={"steps": 64, "max_evaluations": 40},
        )
        derived = point_config(base, {"optimizer": "pairwise"})
        # anneal's steps cannot leak into pairwise; the budget survives
        assert derived.optimizer == "pairwise"
        assert derived.optimizer_params == {"max_evaluations": 40}
        # the same point re-asserting the base strategy keeps everything
        same = point_config(base, {"optimizer": "anneal"})
        assert same.optimizer_params == base.optimizer_params

    def test_strategy_grid_over_a_tuned_base(self, small_random):
        base = FlowConfig(
            n_vectors=256,
            optimizer="anneal",
            optimizer_params={"steps": 16, "max_evaluations": 32},
        )
        result = sweep(
            [small_random], {"optimizer": ["pairwise", "anneal"]}, base
        )
        assert result.n_ok == 2
        assert result.point(optimizer="pairwise").config.optimizer_params == {
            "max_evaluations": 32
        }
        assert result.point(optimizer="anneal").config.optimizer_params == {
            "steps": 16,
            "max_evaluations": 32,
        }

    def test_point_config_bad_keys(self):
        # always ConfigError (the CLI maps it to a clean exit-2 message)
        base = FlowConfig()
        with pytest.raises(ConfigError):
            point_config(base, {"optimizer_params.": 1})
        with pytest.raises(ConfigError):
            point_config(base, {"weird.key": 1})
        with pytest.raises(ConfigError):
            point_config(base, {"not_a_field": 1})
        with pytest.raises(ConfigError):
            point_config(base, {"optimizer": "nope"})

    def test_bad_grid_key_exits_2_from_the_cli(self, blif_file, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                blif_file,
                "--grid",
                "optimizer-params.steps=4",  # hyphen typo for the prefix
                "--no-progress",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "optimizer-params.steps" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_over_strategies(self, small_random, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        result = sweep(
            [small_random],
            {"optimizer": ["pairwise", "greedy-flip"]},
            FlowConfig(n_vectors=256),
            store=store,
        )
        assert result.n_points == 2 and result.n_ok == 2
        point = result.point(optimizer="greedy-flip")
        assert point.config.optimizer == "greedy-flip"
        manifest = result.manifest()
        assert manifest["grid"] == {"optimizer": ["pairwise", "greedy-flip"]}
        # both strategies archived separately
        assert store.stats().entries.get("flow") == 2

    def test_sweep_over_dotted_strategy_params(self, small_random):
        result = sweep(
            [small_random],
            {
                "optimizer": ["random"],
                "optimizer_params.n_samples": [4, 16],
            },
            FlowConfig(n_vectors=256),
        )
        assert result.n_points == 2 and result.n_ok == 2
        a = result.point(**{"optimizer_params.n_samples": 4})
        b = result.point(**{"optimizer_params.n_samples": 16})
        assert a.config.optimizer_params == {"n_samples": 4}
        assert b.config.optimizer_params == {"n_samples": 16}
        assert a.config.result_key() != b.config.result_key()


# ----------------------------------------------------------------------
# CLI


@pytest.fixture
def blif_file(tmp_path, small_random):
    from repro.network.blif import save_blif

    path = tmp_path / "small.blif"
    save_blif(small_random, str(path))
    return str(path)


class TestCli:
    def test_every_flow_subcommand_has_the_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a
            for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in ("synth", "batch", "table1", "table2", "sweep", "serve"):
            options = {
                opt
                for action in sub.choices[command]._actions
                for opt in action.option_strings
            }
            assert {"--optimizer", "--optimizer-param"} <= options, command

    def test_synth_runs_with_strategy_and_params(self, blif_file, capsys):
        from repro.cli import main

        rc = main(
            [
                "synth",
                blif_file,
                "--vectors",
                "128",
                "--optimizer",
                "greedy-flip",
                "--optimizer-param",
                "restarts=2",
                "--optimizer-param",
                "max_evaluations=64",
            ]
        )
        assert rc == 0
        assert "Flow result" in capsys.readouterr().out

    def test_unknown_strategy_exits_2_without_traceback(self, blif_file, capsys):
        from repro.cli import main

        rc = main(["synth", blif_file, "--optimizer", "bogus"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown optimizer strategy 'bogus'" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_param_exits_2_without_traceback(self, blif_file, capsys):
        from repro.cli import main

        rc = main(
            ["synth", blif_file, "--optimizer-param", "stale_knob=1"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "stale_knob" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_param_spec_exits_2(self, blif_file, capsys):
        from repro.cli import main

        rc = main(["synth", blif_file, "--optimizer-param", "no-equals"])
        assert rc == 2
        assert "no-equals" in capsys.readouterr().err

    def test_non_finite_max_seconds_exits_2(self, blif_file, capsys):
        from repro.cli import main

        rc = main(["synth", blif_file, "--optimizer-param", "max_seconds=inf"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "max_seconds" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_cli_params_merge_over_config_file(self, tmp_path, blif_file):
        from repro.cli import _effective_config, build_parser

        config_path = tmp_path / "config.json"
        config_path.write_text(
            FlowConfig(
                optimizer="anneal", optimizer_params={"steps": 8, "cooling": 0.9}
            ).to_json()
        )
        args = build_parser().parse_args(
            [
                "synth",
                blif_file,
                "--config",
                str(config_path),
                "--optimizer-param",
                "steps=32",
            ]
        )
        config = _effective_config(args)
        assert config.optimizer == "anneal"
        # the flag overrides one key without flattening the file's others
        assert config.optimizer_params == {"steps": 32, "cooling": 0.9}

    def test_cli_strategy_switch_drops_foreign_config_file_params(
        self, tmp_path, blif_file
    ):
        from repro.cli import _effective_config, build_parser

        config_path = tmp_path / "config.json"
        config_path.write_text(
            FlowConfig(
                optimizer="anneal",
                optimizer_params={"steps": 8, "max_evaluations": 20},
            ).to_json()
        )
        args = build_parser().parse_args(
            [
                "synth",
                blif_file,
                "--config",
                str(config_path),
                "--optimizer",
                "greedy-flip",
                "--optimizer-param",
                "restarts=3",
            ]
        )
        config = _effective_config(args)
        assert config.optimizer == "greedy-flip"
        # anneal's steps dropped, the shared budget and the new
        # strategy's own param kept
        assert config.optimizer_params == {"max_evaluations": 20, "restarts": 3}

    def test_sweep_cli_over_strategies(self, blif_file, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                blif_file,
                "--grid",
                "optimizer=pairwise,random",
                "--grid",
                "optimizer_params.max_evaluations=8,32",
                "--vectors",
                "128",
                "--no-progress",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sweep over 4 point(s)" in out


# ----------------------------------------------------------------------
# golden regression: the default strategy must reproduce the
# pre-refactor flow bit for bit (full-suite byte compare runs in CI's
# optimizer-smoke job; this is the cheap in-repo anchor)


GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "table1_quick_v512_pairwise.json"
)


class TestGoldenRegression:
    def test_frg1_matches_pre_refactor_golden(self):
        from repro.experiments.tables import run_table
        from repro.report import flow_result_to_dict

        with open(GOLDEN, "r", encoding="utf-8") as f:
            golden = {row["ckt"]: row for row in json.load(f)}
        result = run_table(circuits=["frg1"], n_vectors=512)
        assert flow_result_to_dict(result.rows[0].flow) == golden["frg1"]
