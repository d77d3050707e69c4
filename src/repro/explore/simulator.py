"""Batched Monte Carlo availability simulation over designs × months.

Vectorizes :class:`repro.cluster.availability_sim.AvailabilitySimulator`
with ``numpy.random.Generator`` draws batched over (designs, regions,
months): Poisson error counts, then binomial thinning for software
recovery and for crash-vs-incorrect consumption. The per-event scalar
loop and these batched draws sample the *same distribution* per
region-month:

* ``errors ~ Poisson(rate)``;
* each error independently recovers with the policy's recoverable
  fraction (detecting, non-correcting technique with the RECOVER
  response) — so ``recoveries ~ Binomial(errors, fraction)``;
* each consumed error independently crashes with the region's measured
  crash probability — ``crashes ~ Binomial(consumed, p_crash)`` — and
  otherwise contributes the region's mean incorrect responses.

(The scalar simulator does not branch on RESTART either: simulation
semantics intentionally follow the measured consume path.) The streams
differ, so equivalence with the scalar backend is *statistical*, not
bitwise: means and percentiles agree within Monte Carlo error — the
contract enforced by the equivalence tests. Results are seed-stable:
the same (seed, month_chunk) always produces the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.design_space import RegionPolicy, SoftwareResponse
from repro.core.vulnerability import VulnerabilityProfile
from repro.cluster.availability_sim import SimulationSummary

__all__ = ["BatchAvailabilitySimulator", "BatchSimulationResult"]

#: Months simulated per chunk (bounds the (D, R, chunk) draw arrays).
DEFAULT_MONTH_CHUNK = 1 << 16


@dataclass
class BatchSimulationResult:
    """Per-(design, month) outcome arrays."""

    errors: np.ndarray  # (designs, months) int64
    crashes: np.ndarray  # (designs, months) int64
    recoveries: np.ndarray  # (designs, months) int64
    incorrect: np.ndarray  # (designs, months) float64
    downtime: np.ndarray  # (designs, months) float64, minutes
    params: AvailabilityParams

    @property
    def designs(self) -> int:
        """Number of simulated designs."""
        return self.errors.shape[0]

    @property
    def months(self) -> int:
        """Number of simulated months per design."""
        return self.errors.shape[1]

    @property
    def availability(self) -> np.ndarray:
        """(designs, months) availability array."""
        return np.maximum(0.0, 1.0 - self.downtime / MINUTES_PER_MONTH)

    def mean_availability(self, design: int = 0) -> float:
        """Average availability across months for one design."""
        return float(self.availability[design].mean())

    def mean_crashes(self, design: int = 0) -> float:
        """Average crashes per month for one design."""
        return float(self.crashes[design].mean())

    def availability_percentile(self, percentile: float, design: int = 0) -> float:
        """Availability at a percentile of months (0-100) for one design.

        Uses the same ceil-index convention as
        :meth:`repro.cluster.availability_sim.SimulationSummary.
        availability_percentile`.
        """
        if not 0 <= percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        ordered = np.sort(self.availability[design])
        index = min(
            len(ordered) - 1, max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
        )
        return float(ordered[index])

    def to_summary(self, design: int = 0) -> SimulationSummary:
        """One design's months as a scalar-compatible, column-backed summary."""
        return SimulationSummary.from_columns(
            self.errors[design],
            self.crashes[design],
            self.recoveries[design],
            self.incorrect[design],
            self.downtime[design],
        )


class BatchAvailabilitySimulator:
    """Simulates many designs' server-months in one vectorized pass.

    All designs must map the same region set (the exploration engine
    simulates winners drawn from one contribution matrix, which
    guarantees this).
    """

    def __init__(
        self,
        profile: VulnerabilityProfile,
        designs: Sequence[Mapping[str, RegionPolicy]],
        error_model: ErrorRateModel = ErrorRateModel(),
        params: AvailabilityParams = AvailabilityParams(),
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
        month_chunk: int = DEFAULT_MONTH_CHUNK,
    ) -> None:
        if not designs:
            raise ValueError("need at least one design to simulate")
        if month_chunk < 1:
            raise ValueError(f"month_chunk must be >= 1, got {month_chunk}")
        regions = list(designs[0])
        for policies in designs[1:]:
            if set(policies) != set(regions):
                raise ValueError(
                    "all simulated designs must cover the same regions"
                )
        sizes = dict(region_sizes) if region_sizes is not None else profile.region_sizes
        weights: List[float] = []
        total = sum(sizes.get(region, 0) for region in regions)
        if total <= 0:
            raise ValueError("design covers no sized regions")
        for region in regions:
            weights.append(sizes.get(region, 0) / total)
        self.profile = profile
        self.params = params
        self.month_chunk = month_chunk
        self._regions = regions

        crash_prob = np.empty(len(regions), dtype=np.float64)
        incorrect_per_error = np.empty(len(regions), dtype=np.float64)
        for i, region in enumerate(regions):
            crash_prob[i] = profile.region_crash_probability(region, error_label)
            stats = profile.cells.get((region, error_label))
            rate = 0.0
            if stats is not None and stats.trials:
                rate = (
                    stats.incorrect_responses + stats.failed_requests
                ) / stats.trials
            incorrect_per_error[i] = rate
        self._crash_prob = crash_prob
        self._incorrect_per_error = incorrect_per_error

        design_count = len(designs)
        rates = np.empty((design_count, len(regions)), dtype=np.float64)
        corrects = np.empty((design_count, len(regions)), dtype=bool)
        recover_fraction = np.zeros((design_count, len(regions)), dtype=np.float64)
        for d, policies in enumerate(designs):
            for i, region in enumerate(regions):
                policy = policies[region]
                rates[d, i] = error_model.region_rate(
                    weights[i], policy.less_tested
                )
                corrects[d, i] = policy.technique.corrects_single_bit
                if (
                    not corrects[d, i]
                    and policy.technique.detects_single_bit
                    and policy.response is SoftwareResponse.RECOVER
                ):
                    recover_fraction[d, i] = policy.recoverable_fraction
        self._rates = rates
        self._corrects = corrects
        self._recover_fraction = recover_fraction

    def simulate(self, months: int, seed: int = 0) -> BatchSimulationResult:
        """Simulate ``months`` server-months for every design."""
        if months <= 0:
            raise ValueError(f"months must be positive, got {months}")
        rng = np.random.Generator(np.random.PCG64(seed))
        design_count = self._rates.shape[0]
        errors = np.empty((design_count, months), dtype=np.int64)
        crashes = np.empty((design_count, months), dtype=np.int64)
        recoveries = np.empty((design_count, months), dtype=np.int64)
        incorrect = np.empty((design_count, months), dtype=np.float64)
        for start in range(0, months, self.month_chunk):
            stop = min(start + self.month_chunk, months)
            span = stop - start
            counts = rng.poisson(
                lam=self._rates[:, :, None],
                size=(design_count, self._rates.shape[1], span),
            )
            recovered = rng.binomial(counts, self._recover_fraction[:, :, None])
            consumed = np.where(
                self._corrects[:, :, None], 0, counts - recovered
            )
            crashed = rng.binomial(consumed, self._crash_prob[None, :, None])
            harmed = (consumed - crashed) * self._incorrect_per_error[None, :, None]
            errors[:, start:stop] = counts.sum(axis=1)
            crashes[:, start:stop] = crashed.sum(axis=1)
            recoveries[:, start:stop] = recovered.sum(axis=1)
            incorrect[:, start:stop] = harmed.sum(axis=1)
        downtime = crashes * self.params.crash_recovery_minutes
        return BatchSimulationResult(
            errors=errors,
            crashes=crashes,
            recoveries=recoveries,
            incorrect=incorrect,
            downtime=downtime.astype(np.float64),
            params=self.params,
        )
