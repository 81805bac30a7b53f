"""Strategy API for the phase-assignment power search.

This module defines the three pieces every optimizer shares:

* :class:`OptimizationResult` / :class:`CommitRecord` — the outcome
  record;
* :class:`OptimizerBudget` + :class:`BudgetMeter` — the shared
  evaluation / wall-clock / tolerance budget every strategy honours;
* :class:`OptimizerStrategy` + the string-keyed registry
  (:func:`register_strategy`, :func:`make_strategy`) that turns the
  search into an open, benchmarkable axis of the flow.

See :mod:`repro.optimize` for the registry how-to.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

from repro.errors import ConfigError
from repro.phase import PhaseAssignment

# ----------------------------------------------------------------------
# outcome records


@dataclass
class CommitRecord:
    """One iteration of a commit-if-better loop (for tracing/visualisation)."""

    pair: Tuple[str, str]
    moves: Tuple[Any, Any]
    cost: float
    candidate_power: float
    committed: bool


@dataclass
class OptimizationResult:
    """Outcome of a phase-assignment power optimisation."""

    assignment: PhaseAssignment
    power: float
    initial_power: float
    method: str
    evaluations: int
    history: List[CommitRecord] = field(default_factory=list)
    #: registry name of the strategy that produced this result (``None``
    #: for old store records)
    strategy: Optional[str] = None

    @property
    def savings_percent(self) -> float:
        if self.initial_power == 0:
            return 0.0
        return 100.0 * (self.initial_power - self.power) / self.initial_power


# ----------------------------------------------------------------------
# budgets

#: ``optimizer_params`` keys that describe the budget rather than the
#: strategy itself.  ``max_evaluations`` and ``max_seconds`` bound
#: every strategy the same way; ``tolerance`` feeds each strategy's own
#: accept/early-stop rule (and is ignored by ``exhaustive``, which has
#: neither).
BUDGET_KEYS = ("max_evaluations", "max_seconds", "tolerance")


@dataclass(frozen=True)
class OptimizerBudget:
    """Shared resource limits for one optimisation run.

    Attributes
    ----------
    max_evaluations:
        Cap on power evaluations (``None`` = unlimited).  Strategies
        stop before *starting* an evaluation that would exceed it, so
        ``result.evaluations <= max_evaluations`` always holds.
    max_seconds:
        Wall-clock cap (``None`` = unlimited), checked between
        evaluations — a single evaluation is never interrupted.  This
        is the one knob that trades reproducibility for latency: where
        the cap lands depends on machine speed and load, so two runs of
        the same config may truncate differently.  The flow therefore
        never serves wall-clock-budgeted runs from the persistent store
        (:meth:`repro.core.config.FlowConfig.optimizer_reproducible`).
    tolerance:
        Relative early-stop threshold in ``[0, 1)``: a candidate only
        counts as an improvement when it beats the incumbent by more
        than ``tolerance * incumbent``.  ``0.0`` (the default) keeps
        the exact historical accept rule, which is what makes the
        default ``pairwise`` strategy bit-identical to the
        pre-registry optimizer.
    """

    max_evaluations: Optional[int] = None
    max_seconds: Optional[float] = None
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.max_evaluations is not None and (
            not isinstance(self.max_evaluations, int)
            or isinstance(self.max_evaluations, bool)
            or self.max_evaluations < 1
        ):
            raise ConfigError(
                f"max_evaluations must be a positive int or None, "
                f"got {self.max_evaluations!r}"
            )
        if self.max_seconds is not None and (
            not isinstance(self.max_seconds, (int, float))
            or isinstance(self.max_seconds, bool)
            or not 0 < self.max_seconds < math.inf
        ):
            raise ConfigError(
                f"max_seconds must be a finite positive number or None, "
                f"got {self.max_seconds!r}"
            )
        if (
            not isinstance(self.tolerance, (int, float))
            or isinstance(self.tolerance, bool)
            or not 0.0 <= float(self.tolerance) < 1.0
        ):
            raise ConfigError(
                f"tolerance must be in [0, 1), got {self.tolerance!r}"
            )

    @property
    def unlimited(self) -> bool:
        return self.max_evaluations is None and self.max_seconds is None

    def start(self) -> "BudgetMeter":
        """A fresh meter tracking this budget from *now*."""
        return BudgetMeter(self)

    def key(self) -> tuple:
        """Hashable identity (participates in store keys)."""
        return (self.max_evaluations, self.max_seconds, self.tolerance)


class BudgetMeter:
    """Mutable per-run tracker of one :class:`OptimizerBudget`.

    Strategies call :meth:`spend` once per power evaluation and check
    :attr:`exhausted` before starting another; :meth:`improves` applies
    the tolerance-aware accept rule.  With the default (unlimited,
    zero-tolerance) budget every check is a no-op, which is what keeps
    budget plumbing out of the strategies' bit-identity contract.
    """

    def __init__(self, budget: OptimizerBudget) -> None:
        self.budget = budget
        self.evaluations = 0
        self._deadline = (
            None
            if budget.max_seconds is None
            else time.perf_counter() + budget.max_seconds
        )

    def spend(self, n: int = 1) -> None:
        self.evaluations += n

    @property
    def exhausted(self) -> bool:
        """True once another evaluation would exceed the budget."""
        if (
            self.budget.max_evaluations is not None
            and self.evaluations >= self.budget.max_evaluations
        ):
            return True
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            return True
        return False

    def improves(self, candidate: float, incumbent: float) -> bool:
        """Tolerance-aware accept rule: does ``candidate`` beat
        ``incumbent`` by more than ``tolerance * incumbent``?

        With ``tolerance == 0.0`` this is exactly ``candidate <
        incumbent`` (the multiplication by ``1.0`` is float-exact), so
        the historical commit rule survives unchanged.
        """
        return candidate < incumbent * (1.0 - self.budget.tolerance)


def split_budget_params(
    params: Optional[Mapping[str, Any]],
) -> Tuple[OptimizerBudget, Dict[str, Any]]:
    """Split an ``optimizer_params`` mapping into the shared
    :class:`OptimizerBudget` (reserved keys: ``max_evaluations``,
    ``max_seconds``, ``tolerance``) and the strategy-specific rest."""
    params = dict(params or {})
    budget = OptimizerBudget(
        max_evaluations=params.pop("max_evaluations", None),
        max_seconds=params.pop("max_seconds", None),
        tolerance=params.pop("tolerance", 0.0),
    )
    return budget, params


def budget_only_params(
    params: Optional[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """What survives a strategy *switch*: the shared budget keys of an
    ``optimizer_params`` mapping, or ``None`` when none remain.

    One strategy's knobs must never leak into another, but the budget
    is strategy-independent — the single rule both the CLI
    (``--optimizer`` over a config file) and sweep grids
    (:func:`repro.core.batch.point_config`) apply.
    """
    kept = {k: v for k, v in (params or {}).items() if k in BUDGET_KEYS}
    return kept or None


# ----------------------------------------------------------------------
# strategy protocol + registry


class OptimizerStrategy(ABC):
    """One phase-assignment search strategy.

    Concrete strategies are frozen dataclasses whose fields are the
    strategy's tunable parameters (what ``FlowConfig.optimizer_params``
    / ``--optimizer-param`` feed); construction validates them and
    raises :class:`ConfigError` on bad values.  The search itself is a
    single call::

        result = strategy.optimize(evaluator, initial=start, budget=b, seed=0)

    Contract:

    * deterministic — equal ``(evaluator, initial, budget, seed)``
      always produce the same :class:`OptimizationResult` (exception:
      a ``max_seconds`` wall-clock cap, which truncates wherever the
      clock lands; such runs are excluded from store serving);
    * budget-honouring — ``result.evaluations`` never exceeds
      ``budget.max_evaluations`` and the wall clock is checked between
      evaluations;
    * ``result.power <= result.initial_power`` (a strategy may fail to
      improve, never regress — return the start if nothing better was
      found);
    * ``result.strategy`` is the registry name.
    """

    #: registry name (set by :func:`register_strategy`).
    name: ClassVar[str] = "?"

    #: parameter name → :class:`repro.core.config.FlowConfig` field
    #: supplying its default when the parameter is not given explicitly
    #: (how the legacy ``power_exhaustive_limit`` / ``max_pairs`` knobs
    #: keep steering the default strategy).
    config_params: ClassVar[Mapping[str, str]] = {}

    @abstractmethod
    def optimize(
        self,
        evaluator: "PhaseEvaluator",  # noqa: F821
        *,
        initial: Optional[PhaseAssignment] = None,
        budget: Optional[OptimizerBudget] = None,
        seed: int = 0,
    ) -> OptimizationResult:
        """Search for a low-power assignment of ``evaluator``'s outputs."""

    def params(self) -> Dict[str, Any]:
        """This instance's parameter values (dataclass fields)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_REGISTRY: Dict[str, Type[OptimizerStrategy]] = {}


def register_strategy(name: str):
    """Class decorator registering an :class:`OptimizerStrategy` under
    ``name`` (see :mod:`repro.optimize` for a worked example).  The
    name must be unique; re-registering raises :class:`ConfigError` so
    a plugin typo cannot silently shadow a built-in."""

    def decorator(cls: Type[OptimizerStrategy]) -> Type[OptimizerStrategy]:
        if not (isinstance(cls, type) and issubclass(cls, OptimizerStrategy)):
            raise ConfigError(
                f"@register_strategy({name!r}) needs an OptimizerStrategy "
                f"subclass, got {cls!r}"
            )
        if name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ConfigError(
                f"optimizer strategy {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__})"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def unregister_strategy(name: str) -> None:
    """Remove a registration (test hygiene for plugin-style tests)."""
    _REGISTRY.pop(name, None)


def strategy_names() -> Tuple[str, ...]:
    """All registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_strategy_class(name: str) -> Type[OptimizerStrategy]:
    """The registered class for ``name``; unknown names raise
    :class:`ConfigError` listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown optimizer strategy {name!r} "
            f"(registered: {', '.join(strategy_names()) or 'none'})"
        ) from None


def make_strategy(name: str, **params: Any) -> OptimizerStrategy:
    """Instantiate a registered strategy with validated parameters.

    Unknown parameter names and bad values both raise
    :class:`ConfigError` naming the offender — a stale config can never
    silently drop a knob.
    """
    cls = get_strategy_class(name)
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ConfigError(
            f"optimizer strategy {name!r} does not accept param(s): "
            f"{', '.join(unknown)} (accepted: {', '.join(sorted(allowed)) or 'none'})"
        )
    try:
        return cls(**params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for optimizer strategy {name!r}: {exc}") from exc


def validate_optimizer(name: str, params: Optional[Mapping[str, Any]]) -> None:
    """Config-time validation used by :meth:`FlowConfig.validate`:
    the name must be registered, budget keys must parse, and the
    remaining params must construct the strategy.  Raises
    :class:`ConfigError` on the first problem."""
    if not isinstance(name, str) or not name:
        raise ConfigError(f"optimizer must be a strategy name, got {name!r}")
    if params is not None and not isinstance(params, Mapping):
        raise ConfigError(
            f"optimizer_params must be a mapping, got {type(params).__name__}"
        )
    _, strategy_params = split_budget_params(params)
    make_strategy(name, **strategy_params)
