"""Monte-Carlo single-server availability simulation.

Cross-validates the analytic availability chain of
:mod:`repro.core.availability`: errors arrive as a Poisson process over
a simulated month, each error lands in a region (size-weighted) and is
resolved per that region's policy; crashes accrue recovery downtime.
Beyond validation, the simulation also reports distributional quantities
the analytic model cannot (downtime percentiles across months).

The month chain is sampled by the fleet engine
(:mod:`repro.fleet.simulator`) on a fleet of one server with no fleet
effects — there is one stochastic engine in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.design_space import RegionPolicy
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.config import FleetConfig, FleetDesign
from repro.fleet.layout import FleetLayout
from repro.fleet.simulator import FleetSimulator

#: Simulation execution strategies. ``scalar`` runs the fleet engine's
#: per-event Python oracle; ``auto``, ``vectorized`` and ``fleet`` all
#: run its vectorized chunk kernel (one draw stream, so they return the
#: same bits — statistically, not bitwise, equivalent to ``scalar``).
SIMULATOR_BACKENDS = ("auto", "scalar", "vectorized", "fleet")

#: Months per fleet-engine chunk for a fleet of one: one chunk covers
#: any validation horizon the explorer runs.
_FLEET_OF_ONE_MONTH_CHUNK = 1 << 16


@dataclass
class MonthOutcome:
    """One simulated server-month."""

    errors: int = 0
    crashes: int = 0
    recoveries: int = 0
    incorrect_responses: float = 0.0
    downtime_minutes: float = 0.0

    @property
    def availability(self) -> float:
        """Availability for this month."""
        return max(0.0, 1.0 - self.downtime_minutes / MINUTES_PER_MONTH)


class SimulationSummary:
    """Aggregate over many simulated months, backed by per-month columns.

    The statistics read the columns: the means are the builtin ``sum``
    over the per-month values in month order, the percentiles share one
    cached sort, and ``months`` is materialized as :class:`MonthOutcome`
    rows only when accessed (a view — editing it changes no statistic).
    """

    def __init__(
        self,
        errors: Sequence[int],
        crashes: Sequence[int],
        recoveries: Sequence[int],
        incorrect: Sequence[float],
        downtime: Sequence[float],
    ) -> None:
        self._columns = (errors, crashes, recoveries, incorrect, downtime)
        self._months: Optional[List[MonthOutcome]] = None
        self._availability: Optional[List[float]] = None
        self._crashes: Optional[List[int]] = None
        self._ordered: Optional[List[float]] = None

    @classmethod
    def from_columns(
        cls,
        errors: Sequence[int],
        crashes: Sequence[int],
        recoveries: Sequence[int],
        incorrect: Sequence[float],
        downtime: Sequence[float],
    ) -> "SimulationSummary":
        """A summary over per-month columns, in month order."""
        return cls(errors, crashes, recoveries, incorrect, downtime)

    @property
    def months(self) -> List[MonthOutcome]:
        """Every simulated month (built from the columns on first use)."""
        if self._months is None:
            self._months = [
                MonthOutcome(*row)
                for row in zip(*(_as_list(column) for column in self._columns))
            ]
        return self._months

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationSummary):
            return NotImplemented
        return self.months == other.months

    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> Tuple[List[float], List[int]]:
        """Per-month (availability, crashes), in month order."""
        if self._availability is None:
            downtime = np.asarray(self._columns[4], dtype=np.float64)
            availability = 1.0 - downtime / MINUTES_PER_MONTH
            self._availability = np.where(
                availability > 0.0, availability, 0.0
            ).tolist()
            self._crashes = _as_list(self._columns[1])
        return self._availability, self._crashes

    @property
    def mean_availability(self) -> float:
        """Average availability across months."""
        availability, _ = self._values()
        if not availability:
            raise ValueError("no months simulated")
        return sum(availability) / len(availability)

    @property
    def mean_crashes(self) -> float:
        """Average crashes per month."""
        _, crashes = self._values()
        if not crashes:
            raise ValueError("no months simulated")
        return sum(crashes) / len(crashes)

    def availability_percentile(self, percentile: float) -> float:
        """Availability at a given percentile of months (0-100)."""
        if not 0 <= percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        if self._ordered is None:
            self._ordered = sorted(self._values()[0])
        ordered = self._ordered
        index = min(
            len(ordered) - 1, max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
        )
        return ordered[index]


def _as_list(column) -> list:
    """A column as a list of Python numbers."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


class AvailabilitySimulator:
    """Simulates server-months under an HRM design."""

    def __init__(
        self,
        profile: VulnerabilityProfile,
        policies: Mapping[str, RegionPolicy],
        error_model: ErrorRateModel = ErrorRateModel(),
        params: AvailabilityParams = AvailabilityParams(),
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
        backend: str = "scalar",
    ) -> None:
        if backend not in SIMULATOR_BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}'; expected one of {SIMULATOR_BACKENDS}"
            )
        self.profile = profile
        self.policies = dict(policies)
        self.error_model = error_model
        self.params = params
        self.error_label = error_label
        self.backend = backend
        sizes = dict(region_sizes) if region_sizes is not None else profile.region_sizes
        self.region_sizes = {
            region: sizes.get(region, 0) for region in self.policies
        }
        if sum(self.region_sizes.values()) <= 0:
            raise ValueError("design covers no sized regions")

    def simulate(self, months: int, seed: int = 0) -> SimulationSummary:
        """Simulate ``months`` server-months on the fleet engine.

        ``scalar`` runs the engine's per-event oracle, every other
        backend its vectorized kernel; the two draw from different
        streams, so their summaries agree statistically, not bitwise.
        """
        if months <= 0:
            raise ValueError(f"months must be positive, got {months}")
        backend = "scalar" if self.backend == "scalar" else "vectorized"
        result = FleetSimulator(
            self._fleet_of_one(months), params=self.params
        ).simulate(seed=seed, backend=backend)
        return SimulationSummary(
            result.errors_by_month,
            result.crashes_by_month,
            result.recoveries_by_month,
            result.incorrect_by_month,
            result.downtime_by_month,
        )

    def _fleet_of_one(self, months: int) -> FleetLayout:
        """The fleet layout every backend simulates: one server, no
        fleet effects.

        Aging is flat, correlation disabled, and refurbishment falls
        past the horizon, so the fleet chain reduces to the single-server
        Poisson/binomial month model.
        """
        config = FleetConfig(
            servers=1,
            months=months,
            retirement_age_months=months + 1,
            repair_downtime_minutes=0.0,
            month_chunk=_FLEET_OF_ONE_MONTH_CHUNK,
        )
        design = FleetDesign(name="fleet-of-one", policies=self.policies)
        return FleetLayout(
            self.profile,
            [design],
            {design.name: 1},
            config,
            error_model=self.error_model,
            error_label=self.error_label,
            region_sizes=self.region_sizes,
        )
