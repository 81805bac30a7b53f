"""Declarative configuration for the synthesis flow.

:class:`FlowConfig` gathers every knob of the Figure 6 flow — the
options that used to be ~15 loose keyword arguments on ``run_flow`` —
into one validated, serialisable object:

* ``FlowConfig()`` reproduces the historical ``run_flow`` defaults
  exactly, so configs and the legacy keyword API are interchangeable;
* ``from_dict`` / ``to_dict`` and ``from_json`` / ``to_json`` round-trip
  losslessly, including the nested electrical model and cell library;
* ``validate`` (called by the constructors) raises :class:`ConfigError`
  with a field-by-field message instead of failing deep inside a stage.

The config is a frozen value object: derive variants with
:meth:`FlowConfig.replace` rather than mutating in place.  That is what
makes it safe to share one config across a parallel batch
(:func:`repro.core.batch.run_many`) and to use as part of a pipeline
cache key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.domino.gates import DominoCellLibrary
from repro.power.estimator import DominoPowerModel

#: Probability engines accepted by the estimator / sequential solver.
POWER_METHODS = ("auto", "bdd", "monte-carlo")

def _is_int(value: Any) -> bool:
    """An int that is not a bool (``True`` is an ``int`` in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """A finite int or float that is not a bool."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _nested_to_dict(obj: Any) -> Dict[str, Any]:
    """Field dict of a flat dataclass (model / library)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _nested_from_dict(cls: type, data: Mapping[str, Any], label: str) -> Any:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{label} must be a mapping, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {label} field(s): {', '.join(unknown)}")
    try:
        return cls(**dict(data))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label}: {exc}") from exc


@dataclass(frozen=True)
class FlowConfig:
    """Every knob of the MA-vs-MP synthesis flow, in one place.

    Attributes
    ----------
    input_probability:
        Uniform primary-input signal probability (used when
        ``input_probs`` is not given).
    input_probs:
        Optional per-input probability map; overrides
        ``input_probability`` for the named inputs.
    model:
        Electrical model for the power estimator.  ``None`` derives one
        from the cell library (historic behaviour).
    library:
        Domino cell library for mapping/timing.  ``None`` selects the
        default library.
    timed:
        Run the timed flow (Table 2): transistor resizing to a delay
        target after mapping.
    timing_slack_fraction:
        Delay target as a fraction of the initial critical delay.
    power_method:
        Probability engine: ``auto`` | ``bdd`` | ``monte-carlo``.
    area_exhaustive_limit:
        Max outputs for provably-optimal MA search.
    power_exhaustive_limit:
        Max outputs for exhaustive MP search.
    max_pairs:
        Cap on pairwise MP iterations (``None`` = no cap).
    optimizer:
        Registered :mod:`repro.optimize` strategy name for the MP
        phase-assignment search (``pairwise`` — the paper's Section 4.1
        heuristic — ``exhaustive``, ``groupwise``, ``greedy-flip``,
        ``anneal``, ``random``, or any strategy you register).  Unknown
        names raise :class:`ConfigError` at construction time.
    optimizer_params:
        Strategy parameters plus the reserved budget keys
        ``max_evaluations`` / ``max_seconds`` / ``tolerance``
        (:class:`repro.optimize.OptimizerBudget`).  Validated against
        the strategy at construction time — an unknown or invalid param
        raises :class:`ConfigError` naming it, so stale configs fail
        loudly.  Values must be JSON scalars so configs keep
        round-tripping.
    n_vectors:
        Monte-Carlo vector count for estimation/measurement.
    seed:
        Seed for every stochastic component of the flow.
    current_scale:
        Switched-capacitance → "mA" calibration factor.
    minimize:
        Two-level minimisation during prepare.
    strash:
        Structural hashing during prepare.
    stage_jobs:
        Has no effect: every stage of a flow runs on the calling
        thread, and flows run in parallel only across circuits
        (:func:`repro.core.batch.run_many`, the service, the fleet).
        Kept so existing configs and records still load; validated as
        an int ``>= 0`` and, like any knob that cannot change a result,
        **excluded** from :meth:`cache_key` / :meth:`result_key`.
    """

    input_probability: float = 0.5
    input_probs: Optional[Dict[str, float]] = None
    model: Optional[DominoPowerModel] = None
    library: Optional[DominoCellLibrary] = None
    timed: bool = False
    timing_slack_fraction: float = 0.85
    power_method: str = "auto"
    area_exhaustive_limit: int = 12
    power_exhaustive_limit: int = 10
    max_pairs: Optional[int] = None
    optimizer: str = "pairwise"
    optimizer_params: Optional[Dict[str, Any]] = None
    n_vectors: int = 4096
    seed: int = 0
    current_scale: float = 0.01
    minimize: bool = True
    strash: bool = False
    stage_jobs: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> "FlowConfig":
        """Check every field; raise :class:`ConfigError` on the first bad one.

        Returns ``self`` so calls can be chained.
        """
        errors = []
        for name in ("timed", "minimize", "strash"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                errors.append(f"{name} must be a bool, got {value!r}")
        if not _is_real(self.input_probability) or not (
            0.0 <= self.input_probability <= 1.0
        ):
            errors.append(
                f"input_probability must be in [0, 1], got {self.input_probability!r}"
            )
        if self.input_probs is not None:
            if not isinstance(self.input_probs, Mapping):
                errors.append("input_probs must be a mapping of input name -> probability")
            else:
                for name, p in self.input_probs.items():
                    if not isinstance(name, str):
                        errors.append(f"input_probs keys must be input names, got {name!r}")
                        break
                    if not _is_real(p) or not 0.0 <= p <= 1.0:
                        errors.append(
                            f"input_probs[{name!r}] must be in [0, 1], got {p!r}"
                        )
                        break
        if self.model is not None and not isinstance(self.model, DominoPowerModel):
            errors.append("model must be a DominoPowerModel or None")
        if self.library is not None and not isinstance(self.library, DominoCellLibrary):
            errors.append("library must be a DominoCellLibrary or None")
        if not _is_real(self.timing_slack_fraction) or not (
            0.0 < self.timing_slack_fraction <= 1.0
        ):
            errors.append(
                "timing_slack_fraction must be in (0, 1], "
                f"got {self.timing_slack_fraction!r}"
            )
        if self.power_method not in POWER_METHODS:
            errors.append(
                f"power_method must be one of {POWER_METHODS}, got {self.power_method!r}"
            )
        if not _is_int(self.area_exhaustive_limit) or self.area_exhaustive_limit < 0:
            errors.append(
                "area_exhaustive_limit must be an int >= 0, "
                f"got {self.area_exhaustive_limit!r}"
            )
        if not _is_int(self.power_exhaustive_limit) or self.power_exhaustive_limit < 0:
            errors.append(
                "power_exhaustive_limit must be an int >= 0, "
                f"got {self.power_exhaustive_limit!r}"
            )
        if self.max_pairs is not None and (
            not _is_int(self.max_pairs) or self.max_pairs < 0
        ):
            errors.append(f"max_pairs must be an int >= 0 or None, got {self.max_pairs!r}")
        optimizer_error = self._validate_optimizer()
        if optimizer_error is not None:
            errors.append(optimizer_error)
        if not _is_int(self.n_vectors) or self.n_vectors <= 0:
            errors.append(f"n_vectors must be a positive int, got {self.n_vectors!r}")
        if not _is_int(self.seed):
            errors.append(f"seed must be an int, got {self.seed!r}")
        if not _is_real(self.current_scale) or self.current_scale <= 0.0:
            errors.append(
                f"current_scale must be a finite number > 0, got {self.current_scale!r}"
            )
        if not _is_int(self.stage_jobs) or self.stage_jobs < 0:
            errors.append(
                f"stage_jobs must be an int >= 0, got {self.stage_jobs!r}"
            )
        if errors:
            raise ConfigError("; ".join(errors))
        return self

    def _validate_optimizer(self) -> Optional[str]:
        """Error string for a bad ``optimizer`` / ``optimizer_params``
        pair, or ``None``.  Imported lazily so the config module stays
        importable without dragging the strategy registry in at module
        load."""
        if self.optimizer_params is not None:
            if not isinstance(self.optimizer_params, Mapping):
                return (
                    "optimizer_params must be a mapping, got "
                    f"{type(self.optimizer_params).__name__}"
                )
            for key, value in self.optimizer_params.items():
                if not isinstance(key, str):
                    return f"optimizer_params key {key!r} must be a string"
                if value is not None and not isinstance(
                    value, (str, int, float, bool)
                ):
                    return (
                        f"optimizer_params[{key!r}] must be a JSON scalar, "
                        f"got {type(value).__name__}"
                    )
        from repro.optimize import validate_optimizer

        try:
            validate_optimizer(self.optimizer, self.optimizer_params)
        except ConfigError as exc:
            return str(exc)
        return None

    # ------------------------------------------------------------------
    # derivation

    def replace(self, **changes: Any) -> "FlowConfig":
        """A new config with the given fields changed (and re-validated)."""
        unknown = sorted(set(changes) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(f"unknown FlowConfig field(s): {', '.join(unknown)}")
        return dataclasses.replace(self, **changes)

    def resolved_stage_jobs(self) -> int:
        """Threads a pipeline run uses: always 1 (see ``stage_jobs``)."""
        return 1

    def resolved_optimizer(self) -> tuple:
        """``(strategy, budget)`` for the MP phase-assignment search.

        The strategy instance is built from :attr:`optimizer_params`
        (minus the reserved budget keys, which become the shared
        :class:`repro.optimize.OptimizerBudget`); parameters the
        strategy maps to config fields via
        ``OptimizerStrategy.config_params`` default to those fields —
        this is how the legacy ``power_exhaustive_limit`` / ``max_pairs``
        knobs keep steering the default ``pairwise`` strategy.
        """
        from repro.optimize import (
            get_strategy_class,
            make_strategy,
            split_budget_params,
        )

        budget, params = split_budget_params(self.optimizer_params)
        cls = get_strategy_class(self.optimizer)
        _missing = object()
        for param, field_name in cls.config_params.items():
            if param not in params:
                value = getattr(self, field_name, _missing)
                if value is _missing:
                    raise ConfigError(
                        f"optimizer strategy {self.optimizer!r} maps param "
                        f"{param!r} to unknown FlowConfig field {field_name!r}"
                    )
                params[param] = value
        return make_strategy(self.optimizer, **params), budget

    def optimizer_reproducible(self) -> bool:
        """False when the optimizer carries a wall-clock budget
        (``optimizer_params["max_seconds"]``).

        A wall-clock cap makes the MP search machine- and load-
        dependent — the same config can truncate after a different
        number of evaluations on a different host — so such runs are
        excluded from persistent-store serving (the store's contract is
        bit-identical results for equal keys).  Evaluation caps and
        tolerances are deterministic and unaffected.
        """
        return (self.optimizer_params or {}).get("max_seconds") is None

    def resolved_library(self) -> DominoCellLibrary:
        from repro.domino.gates import DEFAULT_LIBRARY

        return self.library or DEFAULT_LIBRARY

    def resolved_model(self) -> DominoPowerModel:
        """The estimator model: explicit, or derived from the library.

        The derived model aligns the optimiser's objective with the
        measurement — the estimator sees the same output caps, boundary
        inverter caps and per-cycle clock load the mapped design will
        have.
        """
        if self.model is not None:
            return self.model
        library = self.resolved_library()
        return DominoPowerModel(
            gate_cap=library.gate_output_cap,
            cap_per_fanin=library.cap_per_input,
            inverter_cap=library.inverter_cap,
            clock_cap_per_gate=library.clock_cap,
        )

    # ------------------------------------------------------------------
    # serialisation

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dict (JSON-compatible) that round-trips via
        :meth:`from_dict`."""
        record: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "model" and value is not None:
                value = _nested_to_dict(value)
            elif f.name == "library" and value is not None:
                value = _nested_to_dict(value)
            elif f.name in ("input_probs", "optimizer_params") and value is not None:
                value = dict(value)
            record[f.name] = value
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowConfig":
        """Build a validated config from a plain dict.

        Unknown keys raise :class:`ConfigError` (they are almost always
        typos of real knobs).
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"FlowConfig data must be a mapping, got {type(data).__name__}"
            )
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(f"unknown FlowConfig field(s): {', '.join(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        if kwargs.get("model") is not None and not isinstance(
            kwargs["model"], DominoPowerModel
        ):
            kwargs["model"] = _nested_from_dict(DominoPowerModel, kwargs["model"], "model")
        if kwargs.get("library") is not None and not isinstance(
            kwargs["library"], DominoCellLibrary
        ):
            kwargs["library"] = _nested_from_dict(
                DominoCellLibrary, kwargs["library"], "library"
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad FlowConfig: {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FlowConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "FlowConfig":
        """Load a JSON config file (the ``synth --config`` format)."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_json(text)

    def cache_key(self) -> tuple:
        """Hashable key of the knobs that shape the *prepared* network
        and evaluator; the prefix of the pipeline's store keys for the
        MA and MP assignments."""
        model = self.resolved_model()
        library = self.resolved_library()
        probs = (
            None
            if self.input_probs is None
            else tuple(sorted(self.input_probs.items()))
        )
        return (
            self.input_probability,
            probs,
            _tuple_of(model),
            _tuple_of(library),
            self.power_method,
            self.n_vectors,
            self.seed,
            self.minimize,
            self.strash,
        )

    def optimizer_key(self) -> tuple:
        """Hashable identity of the MP optimizer: strategy name plus
        its (sorted) params.  Part of :meth:`result_key` and of the
        ``optimize_mp`` store key, so the persistent store can never
        serve one strategy's assignment (or flow record) to another —
        while :meth:`cache_key` deliberately excludes it: the prepared
        network and evaluator are strategy-independent, and sharing
        them across a strategy sweep is the point."""
        params = (
            None
            if not self.optimizer_params
            else tuple(sorted(self.optimizer_params.items()))
        )
        return (self.optimizer, params)

    def result_key(self) -> tuple:
        """Hashable key of *every* knob that shapes the final
        :class:`FlowResult` — :meth:`cache_key` plus the downstream
        optimisation/timing/measurement knobs (the MP strategy identity
        included, via :meth:`optimizer_key`).  Two configs with equal
        ``result_key()`` produce bit-identical flow results on the same
        network, which is what lets the persistent
        :class:`repro.store.ArtifactStore` serve whole runs."""
        return self.cache_key() + (
            self.timed,
            self.timing_slack_fraction,
            self.area_exhaustive_limit,
            self.power_exhaustive_limit,
            self.max_pairs,
            self.current_scale,
        ) + self.optimizer_key()


def _tuple_of(obj: Any) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))
