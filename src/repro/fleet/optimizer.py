"""Mixed-fleet composition search (the §VII cost argument, fleet-wide).

A datacenter is not obliged to run one HRM design everywhere: the
cheapest design that *alone* misses the fleet availability target can
still carry most of the fleet if a reliable design covers the
difference. The optimizer enumerates fractional compositions on a
simplex grid (stars and bars at ``step`` granularity), apportions and
scores the whole simplex in one array pass
(:meth:`CompositionGrid.evaluate_many` over prefix sums —
``O(designs x months)`` per candidate), and keeps:

* the **best** feasible composition — maximum cost savings, ties broken
  by higher availability then lexical composition key;
* the cost-savings vs availability **Pareto front** over every
  candidate (reusing :func:`repro.explore.pareto.pareto_indices`);
* each **single-design** fleet for the dominance comparison —
  ``mixed_dominates_singles`` is True when the winner is a genuine mix
  and every pure fleet is either infeasible or strictly cheaper-saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.explore.pareto import pareto_indices
from repro.fleet.analytic import CompositionGrid
from repro.fleet.config import apportion_servers

__all__ = [
    "CompositionMetrics",
    "FleetOptimizationResult",
    "FleetOptimizer",
]


@dataclass
class CompositionMetrics:
    """One scored point on the composition simplex."""

    fractions: Dict[str, float]
    counts: Dict[str, int]
    fleet_availability: float
    cost_savings: float
    feasible: bool

    @property
    def mixed(self) -> bool:
        """Whether more than one design holds servers."""
        return sum(1 for count in self.counts.values() if count > 0) > 1

    @property
    def key(self) -> str:
        """Canonical label, e.g. ``'Consumer PC:0.70+Typical Server:0.30'``."""
        parts = [
            f"{name}:{fraction:.2f}"
            for name, fraction in sorted(self.fractions.items())
            if fraction > 0
        ]
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "fractions": {
                name: fraction
                for name, fraction in self.fractions.items()
                if fraction > 0
            },
            "counts": {
                name: count
                for name, count in self.counts.items()
                if count > 0
            },
            "fleet_availability": self.fleet_availability,
            "cost_savings": self.cost_savings,
            "feasible": self.feasible,
            "mixed": self.mixed,
        }


@dataclass
class FleetOptimizationResult:
    """Search outcome: winner, Pareto front, and pure-fleet baselines."""

    availability_target: float
    step: float
    evaluated: int
    best: Optional[CompositionMetrics]
    pareto: List[CompositionMetrics]
    singles: Dict[str, CompositionMetrics] = field(default_factory=dict)

    @property
    def mixed_dominates_singles(self) -> bool:
        """True when the winning composition is mixed and beats every
        pure fleet (each single is infeasible or saves strictly less)."""
        if self.best is None or not self.best.mixed:
            return False
        for single in self.singles.values():
            if single.feasible and (
                single.cost_savings >= self.best.cost_savings
            ):
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "availability_target": self.availability_target,
            "step": self.step,
            "evaluated": self.evaluated,
            "best": self.best.to_dict() if self.best else None,
            "mixed_dominates_singles": self.mixed_dominates_singles,
            "pareto": [point.to_dict() for point in self.pareto],
            "singles": {
                name: point.to_dict()
                for name, point in self.singles.items()
            },
        }


def _units(step: float) -> int:
    """Simplex resolution: how many ``step``-sized units make a whole."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must be in (0, 1], got {step}")
    return max(1, round(1.0 / step))


def _unit_allocations(designs: int, units: int) -> Iterator[Tuple[int, ...]]:
    """All ways to split ``units`` across ``designs`` (stars and bars)."""
    if designs == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _unit_allocations(designs - 1, units - first):
            yield (first,) + rest


def apportion_many(
    servers: int, fractions: np.ndarray, names: Sequence[str]
) -> np.ndarray:
    """:func:`apportion_servers` for every row of a fraction array.

    ``fractions`` is ``(compositions, designs)`` with columns in
    ``names`` order. Quotas are floored, then each row's leftover
    servers go to its largest fractional remainders, ties broken by
    design name, so every row equals the scalar apportionment exactly.
    """
    quotas = servers * fractions
    floors = np.floor(quotas)
    counts = floors.astype(np.int64)
    leftover = servers - counts.sum(axis=1)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    name_rank = np.empty(len(names), dtype=np.int64)
    name_rank[by_name] = np.arange(len(names))
    # Per row: designs by descending remainder, then by name.
    order = np.lexsort(
        (np.broadcast_to(name_rank, quotas.shape), -(quotas - floors)),
        axis=-1,
    )
    position = np.argsort(order, axis=-1)
    return counts + (position < leftover[:, None])


class FleetOptimizer:
    """Enumerates the composition simplex against an availability target."""

    def __init__(
        self, grid: CompositionGrid, availability_target: float = 0.99
    ) -> None:
        if not 0.0 < availability_target <= 1.0:
            raise ValueError(
                "availability_target must be in (0, 1], "
                f"got {availability_target}"
            )
        self.grid = grid
        self.availability_target = availability_target

    def search(self, step: float = 0.1) -> FleetOptimizationResult:
        """Score every composition at ``step`` granularity in one pass."""
        units = _units(step)
        names = [design.name for design in self.grid.designs]
        allocations = np.array(
            list(_unit_allocations(len(names), units)), dtype=np.int64
        )
        fractions = allocations / units
        counts = apportion_many(self.grid.config.servers, fractions, names)
        availability, savings = self.grid.evaluate_many(counts)
        points = [
            self._point(names, *row)
            for row in zip(
                fractions.tolist(),
                counts.tolist(),
                availability.tolist(),
                savings.tolist(),
            )
        ]
        return self._result(points, units)

    def search_scalar(self, step: float = 0.1) -> FleetOptimizationResult:
        """The per-composition oracle of :meth:`search`, kept for the
        bit-identity tests and ``benchmarks/bench_fleet.py``.

        Apportions with :func:`apportion_servers` and scores with
        :meth:`CompositionGrid.evaluate`, one composition at a time.
        """
        units = _units(step)
        names = [design.name for design in self.grid.designs]
        servers = self.grid.config.servers
        points: List[CompositionMetrics] = []
        for allocation in _unit_allocations(len(names), units):
            fractions = [allocation[d] / units for d in range(len(names))]
            counts = apportion_servers(servers, dict(zip(names, fractions)))
            row_counts = [counts[name] for name in names]
            availability, savings = self.grid.evaluate(row_counts)
            points.append(
                self._point(names, fractions, row_counts, availability, savings)
            )
        return self._result(points, units)

    def _point(
        self,
        names: Sequence[str],
        fractions: Sequence[float],
        counts: Sequence[int],
        availability: float,
        savings: float,
    ) -> CompositionMetrics:
        return CompositionMetrics(
            fractions=dict(zip(names, fractions)),
            counts=dict(zip(names, counts)),
            fleet_availability=availability,
            cost_savings=savings,
            feasible=availability >= self.availability_target,
        )

    def _result(
        self, points: List[CompositionMetrics], units: int
    ) -> FleetOptimizationResult:
        singles = {
            point.key.split(":")[0]: point
            for point in points
            if not point.mixed
        }
        feasible = [point for point in points if point.feasible]
        best = None
        if feasible:
            best = min(
                feasible,
                key=lambda p: (-p.cost_savings, -p.fleet_availability, p.key),
            )
        front = pareto_indices(
            [(p.cost_savings, p.fleet_availability) for p in points]
        )
        return FleetOptimizationResult(
            availability_target=self.availability_target,
            step=1.0 / units,
            evaluated=len(points),
            best=best,
            pareto=[points[i] for i in front],
            singles=singles,
        )
