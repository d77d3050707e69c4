"""Analytic fleet-availability model (cross-validates the simulator).

Every random count in the fleet chain is a thinned Poisson — and a
thinned Poisson is Poisson — so per-month *means and variances* of
crash downtime are exact, not approximations. The deterministic
structure (aging multipliers on the staggered age grid, bad-batch
membership, refurbishment months) comes from the same
:class:`~repro.fleet.layout.FleetLayout` the Monte Carlo simulator
uses, so the analytic mean downtime equals the simulator's expectation
whenever no server's downtime reaches a whole month. The simulator
clips each server-month at ``MINUTES_PER_MONTH``; the analytic model
does not. For heavily failing profiles the clip is not rare (at the
pipeline benchmark's 5000 x 120 fleet config, graphmining's analytic
machine availability lies tens of standard errors below the simulated
CI95), so there the analytic mean is a pessimistic bound, not a match.

Routed fleet availability is nonlinear (``min(demand, capacity)``), so
its mean uses a per-month normal approximation of total downtime::

    E[max(0, X - h)] = (mu - h) * Phi(t) + sigma * phi(t),
    t = (mu - h) / sigma

with fleet sizes in the hundreds the CLT makes this tight.

The shortfall is evaluated on whole ``(..., months)`` arrays. Cells
with ``t < -40`` are exactly 0.0 without calling libm: there
``math.erf(t / sqrt(2))`` is exactly -1.0 and ``math.exp(-t*t/2)``
underflows to 0.0, so the formula evaluates to ``-0.0 + 0.0 == 0.0``.
The remaining cells map ``math.erf`` and ``math.exp`` element by
element (``np.exp`` is not guaranteed to round like libm), so every
value is bit-identical to the scalar :func:`_expected_shortfall`, which
stays as the oracle behind :meth:`CompositionGrid.evaluate`.

Shock variance is where correlation shows up analytically. With
fleet-wide events ``E ~ Poisson(lam)`` and per-server hit probability
``q`` over ``N`` servers, total hits have

* correlated mode: ``Var = N * q * (1 - q) * lam + N^2 * q^2 * lam``
  (law of total variance — the shared event count couples servers);
* independent mode: ``Var = N * q * lam`` (same mean ``N * q * lam``).

The quadratic-in-N term is the analytic signature of the heavier
correlated tail the regression tests pin on the simulator.

:class:`CompositionGrid` is the optimizer's fast path: per-month prefix
sums over the server axis make each candidate composition an
``O(designs x months)`` evaluation instead of a fresh layout build, and
:meth:`CompositionGrid.evaluate_many` scores a whole ``(compositions,
designs)`` count array in one pass.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.design_space import SoftwareResponse
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.config import FleetConfig, FleetDesign
from repro.fleet.layout import FleetLayout, RegionTable

__all__ = [
    "AnalyticFleetModel",
    "AnalyticFleetResult",
    "CompositionGrid",
    "analytic_matches_simulation",
    "ci_contains",
]


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _Phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _expected_shortfall(mean: float, std: float, headroom: float) -> float:
    """E[max(0, X - headroom)] for X ~ Normal(mean, std)."""
    excess = mean - headroom
    if std <= 0.0:
        return max(0.0, excess)
    t = excess / std
    return excess * _Phi(t) + std * _phi(t)


def _shock_moments(
    correlation, servers: int
) -> Tuple[float, float]:
    """(mean, variance) of total shock hits per fleet-month."""
    lam = correlation.shock_rate_per_month
    if lam <= 0:
        return (0.0, 0.0)
    q = correlation.shock_cohort_fraction
    mean = servers * q * lam
    if correlation.mode == "correlated":
        variance = servers * q * (1.0 - q) * lam + servers**2 * q**2 * lam
    else:
        variance = servers * q * lam
    return (mean, variance)


#: Below this standardized excess the normal-tail shortfall is exactly
#: 0.0 in double precision (erf saturates at -1, exp underflows).
TAIL_CUTOFF = -40.0


def _shortfall_many(
    mean: np.ndarray, std: np.ndarray, headroom: float
) -> np.ndarray:
    """:func:`_expected_shortfall` over arrays, bit for bit."""
    excess = mean - headroom
    out = np.where(excess > 0.0, excess, 0.0)
    positive = std > 0.0
    t = np.divide(excess, std, out=np.zeros_like(excess), where=positive)
    live = positive & ~(t < TAIL_CUTOFF)
    out[positive] = 0.0
    if live.any():
        t_live = t[live]
        count = t_live.size
        erf = np.fromiter(
            map(math.erf, (t_live / math.sqrt(2.0)).tolist()),
            dtype=np.float64,
            count=count,
        )
        exp = np.fromiter(
            map(math.exp, (-0.5 * t_live * t_live).tolist()),
            dtype=np.float64,
            count=count,
        )
        cdf = 0.5 * (1.0 + erf)
        pdf = exp / math.sqrt(2.0 * math.pi)
        out[live] = excess[live] * cdf + std[live] * pdf
    return out


def _routed_availability(
    mean_downtime: np.ndarray,
    var_downtime: np.ndarray,
    servers: int,
    demand_fraction: float,
) -> np.ndarray:
    """Routed availability from downtime moments, cell by cell.

    Accepts any ``(..., months)`` shape; each cell equals the scalar
    per-month formula exactly.
    """
    demand_minutes = demand_fraction * servers * MINUTES_PER_MONTH
    headroom_minutes = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
    std = np.sqrt(np.where(var_downtime > 0.0, var_downtime, 0.0))
    shortfall = _shortfall_many(mean_downtime, std, headroom_minutes)
    return 1.0 - shortfall / demand_minutes


class AnalyticFleetResult:
    """Closed-form per-month moments for one fleet layout."""

    def __init__(
        self,
        layout: FleetLayout,
        mean_downtime: np.ndarray,
        var_downtime: np.ndarray,
        mean_errors: np.ndarray,
        mean_crashes: np.ndarray,
        mean_incorrect: np.ndarray,
        design_downtime: Dict[str, float],
    ) -> None:
        config = layout.config
        self.servers = layout.servers
        self.months = config.months
        self.demand_fraction = config.demand_fraction
        self.composition = layout.composition()
        self.mean_downtime_by_month = mean_downtime
        self.var_downtime_by_month = var_downtime
        self.mean_errors_by_month = mean_errors
        self.mean_crashes_by_month = mean_crashes
        self.mean_incorrect_by_month = mean_incorrect
        self.downtime_by_design = design_downtime
        self.availability_by_month = _routed_availability(
            mean_downtime, var_downtime, self.servers, self.demand_fraction
        )

    @property
    def mean_fleet_availability(self) -> float:
        """Expected routed availability, averaged across months."""
        return float(self.availability_by_month.mean())

    @property
    def mean_machine_availability(self) -> float:
        """Expected server uptime fraction (routing ignored) — exact."""
        total = float(self.mean_downtime_by_month.sum())
        minutes = self.servers * self.months * MINUTES_PER_MONTH
        return 1.0 - total / minutes

    def machine_availability_of(self, design: str) -> float:
        """Expected server uptime for one design's block — exact."""
        block_servers = self.composition[design]
        minutes = block_servers * self.months * MINUTES_PER_MONTH
        return 1.0 - self.downtime_by_design[design] / minutes

    def to_dict(self) -> dict:
        """JSON-serializable summary mirroring the simulator's."""
        return {
            "model": "analytic",
            "servers": self.servers,
            "months": self.months,
            "demand_fraction": self.demand_fraction,
            "composition": dict(self.composition),
            "mean_fleet_availability": self.mean_fleet_availability,
            "mean_machine_availability": self.mean_machine_availability,
            "totals": {
                "errors": float(self.mean_errors_by_month.sum()),
                "crashes": float(self.mean_crashes_by_month.sum()),
                "incorrect": float(self.mean_incorrect_by_month.sum()),
                "downtime_minutes": float(self.mean_downtime_by_month.sum()),
            },
            "designs": {
                name: {
                    "servers": self.composition[name],
                    "machine_availability": self.machine_availability_of(name),
                    "downtime_minutes": self.downtime_by_design[name],
                }
                for name in self.composition
            },
        }


class AnalyticFleetModel:
    """Exact-moment model for one :class:`FleetLayout`."""

    def __init__(
        self,
        layout: FleetLayout,
        params: Optional[AvailabilityParams] = None,
    ) -> None:
        self.layout = layout
        self.params = params or AvailabilityParams()

    def evaluate(self) -> AnalyticFleetResult:
        """Compute per-month downtime moments and routed availability."""
        layout = self.layout
        config = layout.config
        months = config.months
        recovery = self.params.crash_recovery_minutes
        mult = layout.multipliers(0, months)  # (servers, months)
        mean_downtime = np.zeros(months, dtype=np.float64)
        var_downtime = np.zeros(months, dtype=np.float64)
        mean_errors = np.zeros(months, dtype=np.float64)
        mean_crashes = np.zeros(months, dtype=np.float64)
        mean_incorrect = np.zeros(months, dtype=np.float64)
        design_downtime: Dict[str, float] = {}
        for block in layout.blocks:
            consumed_coeff = np.where(
                block.corrects,
                0.0,
                block.rates * (1.0 - block.recover_fraction),
            )
            crash_coeff = float(
                (consumed_coeff * layout.table.crash_prob).sum()
            )
            incorrect_coeff = float(
                (
                    consumed_coeff
                    * (1.0 - layout.table.crash_prob)
                    * block.incorrect_per_error
                ).sum()
            )
            error_coeff = float(block.rates.sum())
            block_mult = mult[block.start:block.stop, :].sum(axis=0)
            crashes = crash_coeff * block_mult
            mean_errors += error_coeff * block_mult
            mean_crashes += crashes
            mean_incorrect += incorrect_coeff * block_mult
            # Thinned Poisson: crash-count variance equals its mean.
            mean_downtime += crashes * recovery
            var_downtime += crashes * recovery**2
            design_downtime[block.name] = float(crashes.sum()) * recovery
        shock_mean, shock_var = _shock_moments(
            config.correlation, layout.servers
        )
        if shock_mean > 0:
            minutes = config.correlation.shock_downtime_minutes
            mean_downtime += shock_mean * minutes
            var_downtime += shock_var * minutes**2
            per_server = shock_mean / layout.servers * minutes
            for block in layout.blocks:
                design_downtime[block.name] += (
                    per_server * block.servers * months
                )
        if config.repair_downtime_minutes > 0:
            repairs = layout.repairs(0, months)  # deterministic mask
            mean_downtime += (
                repairs.sum(axis=0) * config.repair_downtime_minutes
            )
            for block in layout.blocks:
                design_downtime[block.name] += float(
                    repairs[block.start:block.stop, :].sum()
                    * config.repair_downtime_minutes
                )
        return AnalyticFleetResult(
            layout,
            mean_downtime,
            var_downtime,
            mean_errors,
            mean_crashes,
            mean_incorrect,
            design_downtime,
        )


class CompositionGrid:
    """Shared precomputation for evaluating many fleet compositions.

    The server axis is fixed by ``config.servers`` (staggered ages and
    refurbishment months depend only on the server index), so aging
    multipliers and repair counts are composition-independent. Prefix
    sums along the server axis turn any contiguous design block's
    monthly multiplier mass into two array lookups, making a candidate
    composition an ``O(designs x months)`` evaluation.
    """

    def __init__(
        self,
        profile: VulnerabilityProfile,
        designs: Sequence[FleetDesign],
        config: FleetConfig,
        params: Optional[AvailabilityParams] = None,
        error_model: Optional[ErrorRateModel] = None,
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not designs:
            raise ValueError("need at least one fleet design")
        self.designs = list(designs)
        self.config = config
        self.params = params or AvailabilityParams()
        error_model = error_model or ErrorRateModel()
        regions = sorted(designs[0].policies)
        table = RegionTable(profile, regions, error_label, region_sizes)
        servers = config.servers
        months = config.months
        retirement = config.retirement_age_months
        indices = np.arange(servers, dtype=np.int64)
        initial_ages = (indices * retirement) // max(1, servers) % retirement
        month_index = np.arange(months, dtype=np.int64)
        ages = (initial_ages[:, None] + month_index[None, :]) % retirement
        mult = config.aging.multiplier(ages.astype(np.float64))
        #: (servers + 1, months) prefix sums of the aging multiplier.
        self.cum_mult = np.zeros((servers + 1, months), dtype=np.float64)
        np.cumsum(mult, axis=0, out=self.cum_mult[1:, :])
        repairs = (ages == 0) & (month_index[None, :] > 0)
        #: Total refurbishments per month (composition-independent).
        self.repairs_by_month = repairs.sum(axis=0).astype(np.float64)
        self.crash_coeff = np.empty(len(designs), dtype=np.float64)
        self.savings = np.empty(len(designs), dtype=np.float64)
        for d, design in enumerate(self.designs):
            if sorted(design.policies) != regions:
                raise ValueError(
                    "all fleet designs must map the same region set"
                )
            coeff = 0.0
            for i, region in enumerate(regions):
                policy = design.policies[region]
                if policy.technique.corrects_single_bit:
                    continue
                rate = error_model.region_rate(
                    float(table.weights[i]), policy.less_tested
                )
                recover = 0.0
                if (
                    policy.technique.detects_single_bit
                    and policy.response is SoftwareResponse.RECOVER
                ):
                    recover = policy.recoverable_fraction
                coeff += rate * (1.0 - recover) * float(table.crash_prob[i])
            self.crash_coeff[d] = coeff
            if design.server_cost_savings is None:
                raise ValueError(
                    f"design '{design.name}' has no server_cost_savings; "
                    "resolve it before composition search"
                )
            self.savings[d] = design.server_cost_savings
        shock_mean, shock_var = _shock_moments(config.correlation, servers)
        minutes = config.correlation.shock_downtime_minutes
        self._shock_downtime_mean = shock_mean * minutes
        self._shock_downtime_var = shock_var * minutes**2
        self._bad_fraction = config.correlation.bad_batch_fraction
        self._bad_extra = config.correlation.bad_batch_multiplier - 1.0

    def evaluate(self, counts: Sequence[int]) -> Tuple[float, float]:
        """(mean fleet availability, cost savings) for a composition.

        The scalar oracle of :meth:`evaluate_many`, kept for the
        bit-identity tests: one composition, one month at a time through
        :func:`_expected_shortfall`. ``counts`` aligns with the
        construction-time design order and must sum to
        ``config.servers``. Blocks are contiguous in design order,
        matching :class:`FleetLayout`.
        """
        config = self.config
        servers = config.servers
        if sum(counts) != servers:
            raise ValueError(
                f"composition covers {sum(counts)} servers, "
                f"config.servers is {servers}"
            )
        recovery = self.params.crash_recovery_minutes
        mean_downtime = (
            self.repairs_by_month * config.repair_downtime_minutes
            + self._shock_downtime_mean
        )
        var_downtime = np.full_like(
            mean_downtime, self._shock_downtime_var
        )
        savings = 0.0
        cursor = 0
        for d, count in enumerate(counts):
            if count == 0:
                continue
            stop = cursor + count
            block_mult = self.cum_mult[stop, :] - self.cum_mult[cursor, :]
            if self._bad_extra > 0 and self._bad_fraction > 0:
                bad_stop = cursor + int(round(self._bad_fraction * count))
                block_mult = block_mult + self._bad_extra * (
                    self.cum_mult[bad_stop, :] - self.cum_mult[cursor, :]
                )
            crashes = self.crash_coeff[d] * block_mult
            mean_downtime = mean_downtime + crashes * recovery
            var_downtime = var_downtime + crashes * recovery**2
            savings += self.savings[d] * (count / servers)
            cursor = stop
        demand_minutes = config.demand_fraction * servers * MINUTES_PER_MONTH
        headroom_minutes = (
            (1.0 - config.demand_fraction) * servers * MINUTES_PER_MONTH
        )
        availability = np.empty(config.months, dtype=np.float64)
        for m in range(config.months):
            shortfall = _expected_shortfall(
                float(mean_downtime[m]),
                math.sqrt(max(0.0, float(var_downtime[m]))),
                headroom_minutes,
            )
            availability[m] = 1.0 - shortfall / demand_minutes
        return (float(availability.mean()), float(savings))

    def evaluate_many(self, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(mean fleet availability, cost savings) for many compositions.

        ``counts`` is a ``(compositions, designs)`` integer array whose
        rows follow the construction-time design order and each sum to
        ``config.servers``. Downtime moments are summed design by
        design, skipping empty blocks, exactly as :meth:`evaluate` does,
        so every returned value equals its scalar counterpart bit for
        bit.
        """
        config = self.config
        servers = config.servers
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != len(self.designs):
            raise ValueError(
                f"counts must have shape (compositions, {len(self.designs)}), "
                f"got {counts.shape}"
            )
        totals = counts.sum(axis=1)
        if (totals != servers).any():
            bad = int(totals[totals != servers][0])
            raise ValueError(
                f"composition covers {bad} servers, "
                f"config.servers is {servers}"
            )
        compositions = counts.shape[0]
        recovery = self.params.crash_recovery_minutes
        base = (
            self.repairs_by_month * config.repair_downtime_minutes
            + self._shock_downtime_mean
        )
        mean_downtime = np.broadcast_to(
            base, (compositions, config.months)
        ).copy()
        var_downtime = np.full_like(mean_downtime, self._shock_downtime_var)
        savings = np.zeros(compositions, dtype=np.float64)
        with_bad = self._bad_extra > 0 and self._bad_fraction > 0
        cursor = np.zeros(compositions, dtype=np.int64)
        for d in range(len(self.designs)):
            count = counts[:, d]
            occupied = count != 0
            stop = cursor + count
            start_mult = self.cum_mult[cursor, :]
            block_mult = self.cum_mult[stop, :] - start_mult
            if with_bad:
                bad_stop = cursor + np.rint(self._bad_fraction * count).astype(
                    np.int64
                )
                block_mult = block_mult + self._bad_extra * (
                    self.cum_mult[bad_stop, :] - start_mult
                )
            crashes = self.crash_coeff[d] * block_mult
            rows = occupied[:, None]
            mean_downtime = np.where(
                rows, mean_downtime + crashes * recovery, mean_downtime
            )
            var_downtime = np.where(
                rows, var_downtime + crashes * recovery**2, var_downtime
            )
            savings = np.where(
                occupied, savings + self.savings[d] * (count / servers), savings
            )
            cursor = stop
        availability = _routed_availability(
            mean_downtime, var_downtime, servers, config.demand_fraction
        )
        return (availability.mean(axis=1), savings)


def ci_contains(
    interval: Tuple[float, float], value: float
) -> bool:
    """Whether a (lo, hi) confidence interval contains ``value``."""
    lo, hi = interval
    return lo <= value <= hi


def analytic_matches_simulation(
    analytic: AnalyticFleetResult,
    simulated,
    metrics: Sequence[str] = ("machine_availability", "fleet_availability"),
) -> Dict[str, bool]:
    """Cross-validation verdicts: analytic mean inside each MC CI95."""
    verdicts: Dict[str, bool] = {}
    for metric in metrics:
        interval = simulated.confidence_interval(metric)
        if metric == "machine_availability":
            value = analytic.mean_machine_availability
        elif metric == "fleet_availability":
            value = analytic.mean_fleet_availability
        elif metric == "downtime":
            value = float(analytic.mean_downtime_by_month.mean())
        else:
            raise ValueError(f"unknown metric '{metric}'")
        verdicts[metric] = ci_contains(interval, value)
    return verdicts
