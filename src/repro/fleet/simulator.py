"""Monte Carlo fleet availability simulation (servers × months).

The package's one stochastic availability engine. Samples the
per-design Poisson/binomial month chain — Poisson error arrivals per
region, binomial recovery thinning, binomial crash-vs-incorrect
thinning — over a composed fleet: every server runs one HRM design,
carries a deterministic device age (staggered deployment, rolling
refurbishment) and an optional bad-DIMM-batch multiplier, and the fleet
additionally absorbs *correlated* shared-rank/row shock events that hit
whole cohorts within a month. Traffic routes around downtime: demand is
a fraction of total capacity and surviving servers absorb failed-over
load until the headroom is gone, so fleet availability is
``served / demand`` — a nonlinear function of composition, which is
what the mixed-fleet optimizer exploits. A fleet of one server with no
fleet effects is the single-server model behind
:class:`repro.cluster.availability_sim.AvailabilitySimulator`.

Determinism contract: results are **byte-identical** across runs and
across ``workers`` counts. Months are simulated in fixed
``config.month_chunk`` blocks; chunk ``i`` draws from a NumPy generator
seeded only by ``derive_seed(seed, "fleet-chunk-i")``, draws in
canonical block order, and writes a disjoint month slice — thread
scheduling cannot reorder anything observable.

The ``scalar`` backend is the honest per-event Python reference
(statistically equivalent, different draw stream): the package's one
scalar oracle, which the fleet benchmark and the equivalence tests race
against.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.availability import MINUTES_PER_MONTH, AvailabilityParams
from repro.fleet.layout import FleetLayout
from repro.utils.rng import derive_seed, poisson_variate

__all__ = ["FleetSimulationResult", "FleetSimulator"]


@dataclass
class FleetSimulationResult:
    """Per-month fleet outcome arrays plus per-design totals.

    All ``*_by_month`` arrays have length ``months``. ``availability``
    is routed fleet availability (served demand / demand);
    ``machine_availability`` ignores routing (mean server uptime).
    """

    backend: str
    seed: int
    workers: int
    servers: int
    months: int
    demand_fraction: float
    composition: Dict[str, int]
    errors_by_month: List[int]
    crashes_by_month: List[int]
    recoveries_by_month: List[int]
    incorrect_by_month: List[float]
    shock_hits_by_month: List[int]
    repairs_by_month: List[int]
    downtime_by_month: List[float]
    capacity_by_month: List[float]
    availability_by_month: List[float]
    downtime_by_design: Dict[str, float] = field(default_factory=dict)
    crashes_by_design: Dict[str, int] = field(default_factory=dict)
    server_months_by_design: Dict[str, int] = field(default_factory=dict)

    @property
    def server_months(self) -> int:
        """Total simulated server-months."""
        return self.servers * self.months

    @property
    def mean_fleet_availability(self) -> float:
        """Mean routed availability across months."""
        return _mean(self.availability_by_month)

    @property
    def mean_machine_availability(self) -> float:
        """Mean server uptime fraction (routing ignored)."""
        total = sum(self.downtime_by_month)
        return 1.0 - total / (self.server_months * MINUTES_PER_MONTH)

    def machine_availability_of(self, design: str) -> float:
        """Mean server uptime for one design's block."""
        server_months = self.server_months_by_design[design]
        downtime = self.downtime_by_design[design]
        return 1.0 - downtime / (server_months * MINUTES_PER_MONTH)

    def downtime_percentile(self, percentile: float) -> float:
        """Fleet downtime minutes at a percentile of months (0-100).

        Same ceil-index convention as
        :meth:`repro.cluster.availability_sim.SimulationSummary.
        availability_percentile`.
        """
        if not 0 <= percentile <= 100:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        ordered = sorted(self.downtime_by_month)
        index = min(
            len(ordered) - 1,
            max(0, math.ceil(percentile / 100 * len(ordered)) - 1),
        )
        return ordered[index]

    def availability_percentile(self, percentile: float) -> float:
        """Routed availability at a percentile of months (0-100)."""
        if not 0 <= percentile <= 100:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        ordered = sorted(self.availability_by_month)
        index = min(
            len(ordered) - 1,
            max(0, math.ceil(percentile / 100 * len(ordered)) - 1),
        )
        return ordered[index]

    def confidence_interval(
        self, metric: str = "fleet_availability", z: float = 1.96
    ) -> Tuple[float, float]:
        """Normal CI for a per-month mean (``fleet_availability`` /
        ``machine_availability`` / ``downtime``)."""
        if metric == "fleet_availability":
            values = self.availability_by_month
        elif metric == "machine_availability":
            minutes = self.servers * MINUTES_PER_MONTH
            values = [1.0 - d / minutes for d in self.downtime_by_month]
        elif metric == "downtime":
            values = self.downtime_by_month
        else:
            raise ValueError(f"unknown metric '{metric}'")
        mean = _mean(values)
        if len(values) < 2:
            return (mean, mean)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        half = z * math.sqrt(variance / len(values))
        return (mean - half, mean + half)

    def to_dict(self) -> dict:
        """JSON-serializable summary (CLI ``--json`` output)."""
        ci_fleet = self.confidence_interval("fleet_availability")
        ci_machine = self.confidence_interval("machine_availability")
        return {
            "backend": self.backend,
            "seed": self.seed,
            "workers": self.workers,
            "servers": self.servers,
            "months": self.months,
            "demand_fraction": self.demand_fraction,
            "composition": dict(self.composition),
            "mean_fleet_availability": self.mean_fleet_availability,
            "mean_machine_availability": self.mean_machine_availability,
            "fleet_availability_ci95": list(ci_fleet),
            "machine_availability_ci95": list(ci_machine),
            "availability_p5": self.availability_percentile(5),
            "availability_p50": self.availability_percentile(50),
            "downtime_p99_minutes": self.downtime_percentile(99),
            "totals": {
                "errors": sum(self.errors_by_month),
                "crashes": sum(self.crashes_by_month),
                "recoveries": sum(self.recoveries_by_month),
                "incorrect": sum(self.incorrect_by_month),
                "shock_hits": sum(self.shock_hits_by_month),
                "repairs": sum(self.repairs_by_month),
                "downtime_minutes": sum(self.downtime_by_month),
            },
            "designs": {
                name: {
                    "servers": self.composition[name],
                    "machine_availability": self.machine_availability_of(name),
                    "crashes": self.crashes_by_design[name],
                    "downtime_minutes": self.downtime_by_design[name],
                }
                for name in self.composition
            },
        }


def _mean(values) -> float:
    if not values:
        raise ValueError("no months simulated")
    return sum(values) / len(values)


class FleetSimulator:
    """Simulates a composed fleet's server-months.

    Construct with a :class:`~repro.fleet.layout.FleetLayout` (which
    pins composition, ages, batches, and per-design rates), then call
    :meth:`simulate`. ``params`` supplies crash-recovery downtime.
    """

    def __init__(
        self,
        layout: FleetLayout,
        params: Optional[AvailabilityParams] = None,
    ) -> None:
        self.layout = layout
        self.params = params or AvailabilityParams()

    # -- vectorized backend -------------------------------------------

    def simulate(
        self, seed: int = 0, workers: int = 1, backend: str = "vectorized"
    ) -> FleetSimulationResult:
        """Run the full horizon; deterministic for any ``workers``."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend == "scalar":
            if workers != 1:
                raise ValueError("the scalar backend is single-threaded")
            return self._simulate_scalar(seed)
        if backend != "vectorized":
            raise ValueError(
                f"unknown backend '{backend}'; "
                "expected 'scalar' or 'vectorized'"
            )
        config = self.layout.config
        months = config.months
        chunk = config.month_chunk
        starts = list(range(0, months, chunk))
        outputs = [None] * len(starts)

        def run_chunk(index: int):
            start = starts[index]
            stop = min(start + chunk, months)
            outputs[index] = self._simulate_chunk(seed, index, start, stop)

        if workers == 1 or len(starts) == 1:
            for index in range(len(starts)):
                run_chunk(index)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, range(len(starts))))
        return self._merge(outputs, seed, workers)

    def _simulate_chunk(self, seed: int, index: int, start: int, stop: int):
        """One deterministic month chunk; draws in canonical order."""
        layout = self.layout
        config = layout.config
        span = stop - start
        servers = layout.servers
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(seed, f"fleet-chunk-{index}"))
        )
        mult = layout.multipliers(start, stop)  # (servers, span)
        recovery_minutes = self.params.crash_recovery_minutes
        downtime = np.zeros((servers, span), dtype=np.float64)
        errors = np.zeros(span, dtype=np.int64)
        crashes = np.zeros(span, dtype=np.int64)
        recoveries = np.zeros(span, dtype=np.int64)
        incorrect = np.zeros(span, dtype=np.float64)
        design_downtime: Dict[str, float] = {}
        design_crashes: Dict[str, int] = {}
        for block in layout.blocks:
            lam = (
                block.rates[None, :, None]
                * mult[block.start:block.stop, None, :]
            )
            counts = rng.poisson(lam=lam)
            recovered = rng.binomial(
                counts, block.recover_fraction[None, :, None]
            )
            consumed = np.where(
                block.corrects[None, :, None], 0, counts - recovered
            )
            crashed = rng.binomial(
                consumed, layout.table.crash_prob[None, :, None]
            )
            harmed = (consumed - crashed) * block.incorrect_per_error[
                None, :, None
            ]
            block_downtime = crashed.sum(axis=1) * recovery_minutes
            downtime[block.start:block.stop, :] += block_downtime
            errors += counts.sum(axis=(0, 1))
            crashes += crashed.sum(axis=(0, 1))
            recoveries += recovered.sum(axis=(0, 1))
            incorrect += harmed.sum(axis=(0, 1))
            design_downtime[block.name] = float(block_downtime.sum())
            design_crashes[block.name] = int(crashed.sum())
        correlation = config.correlation
        shock_hits = np.zeros(span, dtype=np.int64)
        if correlation.shock_rate_per_month > 0:
            if correlation.mode == "correlated":
                events = rng.poisson(
                    lam=correlation.shock_rate_per_month, size=span
                )
                hits = rng.binomial(
                    np.broadcast_to(events[None, :], (servers, span)),
                    correlation.shock_cohort_fraction,
                )
            else:
                hits = rng.poisson(
                    lam=correlation.shock_marginal_rate,
                    size=(servers, span),
                )
            shock_downtime = hits * correlation.shock_downtime_minutes
            for block in self.layout.blocks:
                block_shock = shock_downtime[block.start:block.stop, :]
                design_downtime[block.name] += float(block_shock.sum())
            downtime += shock_downtime
            shock_hits = hits.sum(axis=0)
        repairs_mask = layout.repairs(start, stop)
        if config.repair_downtime_minutes > 0:
            repair_downtime = repairs_mask * config.repair_downtime_minutes
            for block in self.layout.blocks:
                design_downtime[block.name] += float(
                    repair_downtime[block.start:block.stop, :].sum()
                )
            downtime += repair_downtime
        np.clip(downtime, 0.0, MINUTES_PER_MONTH, out=downtime)
        capacity = servers - downtime.sum(axis=0) / MINUTES_PER_MONTH
        demand = config.demand_fraction * servers
        served = np.minimum(demand, capacity)
        availability = served / demand
        return {
            "errors": errors,
            "crashes": crashes,
            "recoveries": recoveries,
            "incorrect": incorrect,
            "shock_hits": shock_hits,
            "repairs": repairs_mask.sum(axis=0).astype(np.int64),
            "downtime": downtime.sum(axis=0),
            "capacity": capacity,
            "availability": availability,
            "design_downtime": design_downtime,
            "design_crashes": design_crashes,
        }

    def _merge(self, outputs, seed, workers) -> FleetSimulationResult:
        """Concatenate the chunk outputs, in chunk order."""
        config = self.layout.config
        months = config.months
        composition = self.layout.composition()

        def column(key: str) -> list:
            return np.concatenate([chunk[key] for chunk in outputs]).tolist()

        downtime_by_design = {name: 0.0 for name in composition}
        crashes_by_design = {name: 0 for name in composition}
        for chunk in outputs:
            for name, value in chunk["design_downtime"].items():
                downtime_by_design[name] += value
            for name, value in chunk["design_crashes"].items():
                crashes_by_design[name] += value
        return FleetSimulationResult(
            backend="vectorized",
            seed=seed,
            workers=workers,
            servers=self.layout.servers,
            months=months,
            demand_fraction=config.demand_fraction,
            composition=composition,
            errors_by_month=column("errors"),
            crashes_by_month=column("crashes"),
            recoveries_by_month=column("recoveries"),
            incorrect_by_month=column("incorrect"),
            shock_hits_by_month=column("shock_hits"),
            repairs_by_month=column("repairs"),
            downtime_by_month=column("downtime"),
            capacity_by_month=column("capacity"),
            availability_by_month=column("availability"),
            downtime_by_design=downtime_by_design,
            crashes_by_design=crashes_by_design,
            server_months_by_design={
                name: count * months for name, count in composition.items()
            },
        )

    # -- scalar reference backend -------------------------------------

    def _simulate_scalar(self, seed: int) -> FleetSimulationResult:
        """Per-event Python loop (statistically equivalent reference)."""
        import random

        layout = self.layout
        config = layout.config
        correlation = config.correlation
        months = config.months
        servers = layout.servers
        rng = random.Random(derive_seed(seed, "fleet-scalar"))
        recovery_minutes = self.params.crash_recovery_minutes
        composition = layout.composition()
        result = FleetSimulationResult(
            backend="scalar",
            seed=seed,
            workers=1,
            servers=servers,
            months=months,
            demand_fraction=config.demand_fraction,
            composition=composition,
            errors_by_month=[0] * months,
            crashes_by_month=[0] * months,
            recoveries_by_month=[0] * months,
            incorrect_by_month=[0.0] * months,
            shock_hits_by_month=[0] * months,
            repairs_by_month=[0] * months,
            downtime_by_month=[0.0] * months,
            capacity_by_month=[0.0] * months,
            availability_by_month=[0.0] * months,
            downtime_by_design={name: 0.0 for name in composition},
            crashes_by_design={name: 0 for name in composition},
            server_months_by_design={
                name: count * months for name, count in composition.items()
            },
        )
        table = layout.table
        retirement = config.retirement_age_months
        bad_mult = correlation.bad_batch_multiplier
        for month in range(months):
            downtime_per_server = [0.0] * servers
            for block in layout.blocks:
                for server in range(block.start, block.stop):
                    age = (int(layout.initial_ages[server]) + month) % retirement
                    mult = config.aging.multiplier(float(age))
                    if server < block.bad_stop:
                        mult *= bad_mult
                    server_downtime = 0.0
                    for i in range(len(table.regions)):
                        # Poisson arrivals, then per-event thinning — the
                        # vectorized kernel's chain, with the aging/batch
                        # multiplier applied.
                        count = poisson_variate(
                            rng, float(block.rates[i]) * mult
                        )
                        result.errors_by_month[month] += count
                        if block.corrects[i]:
                            continue
                        for _ in range(count):
                            if rng.random() < block.recover_fraction[i]:
                                result.recoveries_by_month[month] += 1
                                continue
                            if rng.random() < table.crash_prob[i]:
                                result.crashes_by_month[month] += 1
                                result.crashes_by_design[block.name] += 1
                                server_downtime += recovery_minutes
                            else:
                                result.incorrect_by_month[month] += float(
                                    block.incorrect_per_error[i]
                                )
                    downtime_per_server[server] += server_downtime
            if correlation.shock_rate_per_month > 0:
                if correlation.mode == "correlated":
                    events = poisson_variate(
                        rng, correlation.shock_rate_per_month
                    )
                    for server in range(servers):
                        hits = 0
                        for _ in range(events):
                            if rng.random() < correlation.shock_cohort_fraction:
                                hits += 1
                        if hits:
                            downtime_per_server[server] += (
                                hits * correlation.shock_downtime_minutes
                            )
                            result.shock_hits_by_month[month] += hits
                else:
                    for server in range(servers):
                        hits = poisson_variate(
                            rng, correlation.shock_marginal_rate
                        )
                        if hits:
                            downtime_per_server[server] += (
                                hits * correlation.shock_downtime_minutes
                            )
                            result.shock_hits_by_month[month] += hits
            for block in layout.blocks:
                for server in range(block.start, block.stop):
                    age = (int(layout.initial_ages[server]) + month) % retirement
                    if age == 0 and month > 0:
                        downtime_per_server[server] += (
                            config.repair_downtime_minutes
                        )
                        result.repairs_by_month[month] += 1
                    clipped = min(
                        MINUTES_PER_MONTH, downtime_per_server[server]
                    )
                    downtime_per_server[server] = clipped
                    result.downtime_by_design[block.name] += clipped
            total_downtime = sum(downtime_per_server)
            result.downtime_by_month[month] = total_downtime
            capacity = servers - total_downtime / MINUTES_PER_MONTH
            demand = config.demand_fraction * servers
            served = min(demand, capacity)
            result.capacity_by_month[month] = capacity
            result.availability_by_month[month] = served / demand
        return result
