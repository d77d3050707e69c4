"""Design-space exploration orchestration: backends, top-k, validation.

:func:`explore` is the one-call entry point behind
``repro.api.explore_design_space`` and ``repro explore``:

1. build a :class:`~repro.explore.matrix.ContributionMatrix` (or run
   the scalar evaluator directly for the ``scalar`` backend);
2. search — exhaustive (``scalar`` / ``vectorized``, byte-identical to
   :class:`~repro.core.optimizer.MappingOptimizer`) or bounded
   (``branch-and-bound``, exact top-k with admissible pruning);
3. optionally validate the winner with a Monte Carlo simulation on
   the fleet engine's vectorized kernel and report percentile
   confidence bounds next to the analytic prediction.

Backends return identical designs; they differ only in cost:

======================  ============================================
``scalar``              reference; O(space) full evaluations
``vectorized``          O(space) NumPy chunk evaluations
``branch-and-bound``    exact top-k without visiting the whole space
``auto``                ``vectorized``
======================  ============================================

``top_k``: when ``None``, the result carries the *full* feasible list
(exhaustive backends only — branch-and-bound then returns top-1). When
set, ``feasible`` holds just the k best designs, which is what keeps
huge spaces memory-safe.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.cost_model import CostModel
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.optimizer import (
    DEFAULT_CANDIDATES,
    MappingOptimizer,
    OptimizationResult,
)
from repro.core.vulnerability import VulnerabilityProfile
from repro.obs.events import SPAN_EXPLORE, SPAN_EXPLORE_PHASE
from repro.obs.instruments import ExplorationInstruments
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.utils.validation import check_fraction

__all__ = [
    "EXPLORE_BACKENDS",
    "ExplorationResult",
    "SimulationValidation",
    "explore",
]

#: Backends accepted by :func:`explore`.
EXPLORE_BACKENDS = ("auto", "scalar", "vectorized", "branch-and-bound")


@dataclass
class SimulationValidation:
    """Monte Carlo cross-check of the analytic winner."""

    design_name: str
    months: int
    seed: int
    backend: str
    mean_availability: float
    analytic_availability: float
    mean_crashes: float
    analytic_crashes: float
    #: Availability at the 5th / 50th / 95th percentile of months.
    percentiles: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI ``--json`` output)."""
        return {
            "design": self.design_name,
            "months": self.months,
            "seed": self.seed,
            "backend": self.backend,
            "mean_availability": self.mean_availability,
            "analytic_availability": self.analytic_availability,
            "mean_crashes": self.mean_crashes,
            "analytic_crashes": self.analytic_crashes,
            "percentiles": dict(self.percentiles),
        }


@dataclass
class ExplorationResult(OptimizationResult):
    """Search outcome plus exploration-specific context.

    Extends :class:`~repro.core.optimizer.OptimizationResult`: ``best``
    / ``feasible`` / ``evaluated`` keep their meanings (with ``feasible``
    truncated to k entries when ``top_k`` was requested).
    """

    backend: str = "scalar"
    #: Size of the full assignment space.
    total_designs: int = 0
    #: Feasible designs in the whole space for the exhaustive backends
    #: (== len(feasible) unless a top_k cut was applied). The
    #: branch-and-bound backend never counts designs it pruned, so there
    #: this is just len(feasible).
    feasible_count: int = 0
    #: Designs eliminated by branch-and-bound pruning (0 for
    #: exhaustive backends).
    pruned: int = 0
    pruned_by: Dict[str, int] = field(default_factory=dict)
    simulation: Optional[SimulationValidation] = None


def explore(
    profile: VulnerabilityProfile,
    *,
    availability_target: float,
    error_label: str = "single-bit soft",
    recoverable_fractions: Optional[Dict[str, float]] = None,
    candidates: Sequence = DEFAULT_CANDIDATES,
    max_incorrect_per_million: Optional[float] = None,
    regions: Optional[Sequence[str]] = None,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    backend: str = "auto",
    top_k: Optional[int] = None,
    simulate_months: int = 0,
    simulation_seed: int = 0,
    observer: Observer = NULL_OBSERVER,
) -> ExplorationResult:
    """Search the HRM design space; optionally validate by simulation."""
    check_fraction("availability_target", availability_target)
    if backend not in EXPLORE_BACKENDS:
        raise ValueError(
            f"unknown backend '{backend}'; expected one of {EXPLORE_BACKENDS}"
        )
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if simulate_months < 0:
        raise ValueError(f"simulate_months must be >= 0, got {simulate_months}")
    resolved = "vectorized" if backend == "auto" else backend
    evaluator = DesignEvaluator(
        profile,
        cost_model=cost_model,
        error_model=error_model,
        availability_params=availability_params,
        error_label=error_label,
    )
    optimizer = MappingOptimizer(
        evaluator,
        candidates=candidates,
        recoverable_fractions=recoverable_fractions,
        backend=resolved if resolved != "branch-and-bound" else "scalar",
    )
    if regions is None:
        regions = sorted(evaluator.region_sizes)
    instruments = (
        ExplorationInstruments(observer.metrics)
        if observer.metrics is not None
        else None
    )
    with observer.span(SPAN_EXPLORE, key=resolved) as span:
        if resolved == "branch-and-bound":
            result = _search_branch_and_bound(
                optimizer,
                regions,
                availability_target,
                max_incorrect_per_million,
                top_k or 1,
                observer,
            )
        elif resolved == "vectorized" and top_k is not None:
            result = _search_vectorized_top_k(
                optimizer,
                regions,
                availability_target,
                max_incorrect_per_million,
                top_k,
                observer,
            )
        elif resolved == "scalar" and top_k is not None:
            result = _search_scalar_top_k(
                optimizer,
                regions,
                availability_target,
                max_incorrect_per_million,
                top_k,
                observer,
            )
        else:
            with observer.span(SPAN_EXPLORE_PHASE, key="search"):
                search = optimizer.search(
                    availability_target,
                    max_incorrect_per_million=max_incorrect_per_million,
                    regions=regions,
                )
            result = ExplorationResult(
                best=search.best,
                feasible=search.feasible,
                evaluated=search.evaluated,
                backend=resolved,
                total_designs=search.evaluated,
                feasible_count=len(search.feasible),
            )
        if instruments is not None:
            instruments.record_search(
                backend=resolved,
                evaluated=result.evaluated,
                feasible=result.feasible_count,
                total_designs=result.total_designs,
                pruned_by=result.pruned_by,
            )
        if simulate_months and result.found:
            with observer.span(SPAN_EXPLORE_PHASE, key="simulate"):
                result.simulation = _validate_by_simulation(
                    profile,
                    evaluator,
                    result.best,
                    months=simulate_months,
                    seed=simulation_seed,
                )
        span.set(
            backend=resolved,
            evaluated=result.evaluated,
            pruned=result.pruned,
            feasible=result.feasible_count,
            found=result.found,
        )
    return result


def _search_branch_and_bound(
    optimizer: MappingOptimizer,
    regions: Sequence[str],
    availability_target: float,
    max_incorrect_per_million: Optional[float],
    top_k: int,
    observer: Observer,
) -> ExplorationResult:
    from repro.explore.search import BranchAndBoundSearcher

    with observer.span(SPAN_EXPLORE_PHASE, key="matrix"):
        matrix = optimizer.contribution_matrix(regions)
    with observer.span(SPAN_EXPLORE_PHASE, key="search"):
        bounded = BranchAndBoundSearcher(matrix).search(
            availability_target,
            max_incorrect_per_million=max_incorrect_per_million,
            top_k=top_k,
        )
    return ExplorationResult(
        best=bounded.top[0] if bounded.top else None,
        feasible=list(bounded.top),
        evaluated=bounded.evaluated,
        backend="branch-and-bound",
        total_designs=bounded.total_designs,
        feasible_count=len(bounded.top),
        pruned=bounded.pruned,
        pruned_by=dict(bounded.pruned_by),
    )


def _search_vectorized_top_k(
    optimizer: MappingOptimizer,
    regions: Sequence[str],
    availability_target: float,
    max_incorrect_per_million: Optional[float],
    top_k: int,
    observer: Observer,
) -> ExplorationResult:
    from repro.explore.batch import BatchDesignSpaceEvaluator

    with observer.span(SPAN_EXPLORE_PHASE, key="matrix"):
        matrix = optimizer.contribution_matrix(regions)
        batch = BatchDesignSpaceEvaluator(matrix)
    with observer.span(SPAN_EXPLORE_PHASE, key="search"):
        ids, feasible_count, evaluated = batch.top_k_ids(
            availability_target,
            max_incorrect_per_million=max_incorrect_per_million,
            top_k=top_k,
        )
        # Materialize candidates (k plus (savings, availability) ties)
        # in ascending id order, then apply the exact result ordering —
        # the stable sort resolves full ties by id, matching the scalar
        # feasible-list order.
        candidates = [matrix.metrics_at(digits) for digits in batch.digits(ids)]
        candidates.sort(key=_result_order_key)
        top = candidates[:top_k]
    return ExplorationResult(
        best=top[0] if top else None,
        feasible=top,
        evaluated=evaluated,
        backend="vectorized",
        total_designs=matrix.total_designs,
        feasible_count=feasible_count,
    )


def _search_scalar_top_k(
    optimizer: MappingOptimizer,
    regions: Sequence[str],
    availability_target: float,
    max_incorrect_per_million: Optional[float],
    top_k: int,
    observer: Observer,
) -> ExplorationResult:
    """Streaming scalar reference: exhaustive evaluation, O(k) memory.

    Evaluates every design through the scalar evaluator (the honest
    baseline the benchmark times) but keeps only a k-bounded heap
    instead of the full feasible list, so the scalar backend stays
    memory-safe on large spaces too.
    """
    evaluator = optimizer.evaluator
    heap: List[Tuple[float, float, _Reversed, int, DesignMetrics]] = []
    evaluated = 0
    feasible_count = 0
    with observer.span(SPAN_EXPLORE_PHASE, key="search"):
        for index, assignment in enumerate(
            itertools.product(optimizer.candidates, repeat=len(regions))
        ):
            policies = {
                region: optimizer._specialize(region, policy)
                for region, policy in zip(regions, assignment)
            }
            design = HRMDesign(
                name="+".join(p.describe() for p in policies.values()),
                policies=policies,
            )
            metrics = evaluator.evaluate(design)
            evaluated += 1
            if metrics.availability < availability_target:
                continue
            if (
                max_incorrect_per_million is not None
                and metrics.incorrect_per_million_queries > max_incorrect_per_million
            ):
                continue
            feasible_count += 1
            entry = (
                metrics.server_cost_savings,
                metrics.availability,
                _Reversed(design.name),
                -index,
                metrics,
            )
            if len(heap) < top_k:
                heapq.heappush(heap, entry)
            else:
                heapq.heappushpop(heap, entry)
        top = [entry[4] for entry in sorted(heap, reverse=True)]
    return ExplorationResult(
        best=top[0] if top else None,
        feasible=top,
        evaluated=evaluated,
        backend="scalar",
        total_designs=evaluated,
        feasible_count=feasible_count,
    )


class _Reversed:
    """Inverts the ordering of a wrapped value (min-heap of maxima)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _result_order_key(metrics: DesignMetrics):
    return (
        -metrics.server_cost_savings,
        -metrics.availability,
        metrics.design.name,
    )


def _validate_by_simulation(
    profile: VulnerabilityProfile,
    evaluator: DesignEvaluator,
    best: DesignMetrics,
    *,
    months: int,
    seed: int,
) -> SimulationValidation:
    from repro.cluster.availability_sim import AvailabilitySimulator

    simulator = AvailabilitySimulator(
        profile,
        best.design.policies,
        error_model=evaluator.error_model,
        params=evaluator.availability_params,
        error_label=evaluator.error_label,
        region_sizes=evaluator.region_sizes,
        backend="vectorized",
    )
    summary = simulator.simulate(months, seed=seed)
    return SimulationValidation(
        design_name=best.design.name,
        months=months,
        seed=seed,
        backend="vectorized",
        mean_availability=summary.mean_availability,
        analytic_availability=best.availability,
        mean_crashes=summary.mean_crashes,
        analytic_crashes=best.crashes_per_month,
        percentiles={
            "p5": summary.availability_percentile(5),
            "p50": summary.availability_percentile(50),
            "p95": summary.availability_percentile(95),
        },
    )
