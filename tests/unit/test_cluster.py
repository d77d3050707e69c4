"""Unit tests for repro.cluster (server cost, TCO, Monte-Carlo sim)."""

import pytest

from repro.cluster import (
    AvailabilitySimulator,
    ServerConfig,
    TcoModel,
    TcoParams,
    server_cost_with_design,
)
from repro.core.availability import (
    ErrorRateModel,
    availability_from_crashes,
)
from repro.core.cost_model import CostModel
from repro.core.design_space import HardwareTechnique, RegionPolicy, SoftwareResponse
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile


@pytest.fixture
def profile():
    prof = VulnerabilityProfile(app="X")
    prof.region_sizes = {"private": 90, "heap": 10}
    cell = prof.cell("private", "single-bit soft")
    for _ in range(98):
        cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    for _ in range(2):
        cell.record(ErrorOutcome.CRASH, 10, 0, 10, 1.0)
    heap_cell = prof.cell("heap", "single-bit soft")
    for _ in range(100):
        heap_cell.record(ErrorOutcome.MASKED_NEVER_ACCESSED, 100, 0, 0, None)
    return prof


class TestServerConfig:
    def test_cost_split(self):
        config = ServerConfig()
        assert config.dram_cost_dollars == pytest.approx(1200.0)
        assert config.non_dram_cost_dollars == pytest.approx(2800.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(base_cost_dollars=0)
        with pytest.raises(ValueError):
            ServerConfig(dram_fraction=2.0)

    def test_design_cost(self):
        config = ServerConfig()
        policies = {"all": RegionPolicy(technique=HardwareTechnique.NONE)}
        cost = server_cost_with_design(
            config, CostModel(), policies, {"all": 100}
        )
        # NoECC saves 11.1% of DRAM cost.
        expected = 2800 + 1200 * (1 - 0.111)
        assert cost == pytest.approx(expected, rel=0.001)

    def test_baseline_design_costs_base(self):
        config = ServerConfig()
        policies = {"all": RegionPolicy(technique=HardwareTechnique.SEC_DED)}
        cost = server_cost_with_design(config, CostModel(), policies, {"all": 1})
        assert cost == pytest.approx(config.base_cost_dollars)


class TestTcoModel:
    def test_breakdown_structure(self):
        model = TcoModel()
        breakdown = model.breakdown(4000.0)
        assert breakdown.total_per_year > breakdown.server_capex_per_year
        capex = breakdown.server_capex_per_year + breakdown.other_capex_per_year
        assert capex / breakdown.total_per_year == pytest.approx(0.57)

    def test_savings_fraction(self):
        model = TcoModel()
        savings = model.tco_savings_fraction(4000.0, 4000.0 * (1 - 0.047 * 0.3))
        assert 0 < savings < 0.047  # diluted by non-server TCO

    def test_cheaper_server_saves_more(self):
        model = TcoModel()
        assert model.tco_savings_fraction(4000, 3800) > model.tco_savings_fraction(
            4000, 3900
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TcoParams(server_count=0)
        with pytest.raises(ValueError):
            TcoModel().breakdown(0)


class TestAvailabilitySimulator:
    def test_matches_analytic_model(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        simulator = AvailabilitySimulator(profile, policies)
        summary = simulator.simulate(months=300, seed=1)
        # Analytic: 2000 errors * 0.9 share * 2% crash = 36 crashes/month.
        assert summary.mean_crashes == pytest.approx(36, rel=0.15)
        analytic = availability_from_crashes(36)
        assert summary.mean_availability == pytest.approx(analytic, abs=0.002)

    def test_ecc_eliminates_crashes(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.SEC_DED),
            "heap": RegionPolicy(technique=HardwareTechnique.SEC_DED),
        }
        summary = AvailabilitySimulator(profile, policies).simulate(50, seed=2)
        assert summary.mean_crashes == 0
        assert summary.mean_availability == 1.0

    def test_recovery_reduces_crashes(self, profile):
        base = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        protected = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RECOVER,
            ),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        unprotected_summary = AvailabilitySimulator(profile, base).simulate(
            100, seed=3
        )
        protected_summary = AvailabilitySimulator(profile, protected).simulate(
            100, seed=3
        )
        assert protected_summary.mean_crashes < unprotected_summary.mean_crashes
        month = protected_summary.months[0]
        assert month.recoveries >= 0

    def test_less_tested_raises_error_volume(self, profile):
        tested = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        less = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
        }
        errs_tested = AvailabilitySimulator(profile, tested).simulate(50, seed=4)
        errs_less = AvailabilitySimulator(
            profile, less, error_model=ErrorRateModel(less_tested_multiplier=5)
        ).simulate(50, seed=4)
        mean_tested = sum(m.errors for m in errs_tested.months) / 50
        mean_less = sum(m.errors for m in errs_less.months) / 50
        assert mean_less == pytest.approx(5 * mean_tested, rel=0.1)

    def test_percentiles_ordered(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        summary = AvailabilitySimulator(profile, policies).simulate(200, seed=5)
        p5 = summary.availability_percentile(5)
        p50 = summary.availability_percentile(50)
        p95 = summary.availability_percentile(95)
        assert p5 <= p50 <= p95

    def test_validation(self, profile):
        policies = {"private": RegionPolicy(technique=HardwareTechnique.NONE)}
        simulator = AvailabilitySimulator(profile, policies)
        with pytest.raises(ValueError):
            simulator.simulate(0)
        with pytest.raises(ValueError):
            summary = simulator.simulate(2, seed=0)
            summary.availability_percentile(200)
        with pytest.raises(ValueError):
            AvailabilitySimulator(profile, {"ghost": RegionPolicy(technique=HardwareTechnique.NONE)})

    def test_unknown_backend_rejected(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        with pytest.raises(ValueError):
            AvailabilitySimulator(profile, policies, backend="fpga")


class TestVectorizedSimulatorBackend:
    """The fleet engine's vectorized kernel must agree with its scalar
    oracle statistically: the streams differ, so means/percentiles
    match within Monte Carlo error, not bitwise (the contract
    documented in repro.fleet.simulator)."""

    POLICIES = {
        "private": RegionPolicy(technique=HardwareTechnique.NONE),
        "heap": RegionPolicy(technique=HardwareTechnique.NONE),
    }

    def test_matches_scalar_statistics(self, profile):
        pytest.importorskip("numpy")
        scalar = AvailabilitySimulator(
            profile, self.POLICIES, backend="scalar"
        ).simulate(300, seed=1)
        vectorized = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(300, seed=1)
        assert vectorized.mean_crashes == pytest.approx(
            scalar.mean_crashes, rel=0.15
        )
        assert vectorized.mean_availability == pytest.approx(
            scalar.mean_availability, abs=0.002
        )
        assert vectorized.availability_percentile(50) == pytest.approx(
            scalar.availability_percentile(50), abs=0.005
        )

    def test_matches_analytic_model(self, profile):
        pytest.importorskip("numpy")
        summary = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(300, seed=1)
        # Same analytic anchor as the scalar test: 2000 errors * 0.9
        # share * 2% crash = 36 crashes/month.
        assert summary.mean_crashes == pytest.approx(36, rel=0.15)
        analytic = availability_from_crashes(36)
        assert summary.mean_availability == pytest.approx(analytic, abs=0.002)

    def test_recovery_reduces_crashes(self, profile):
        pytest.importorskip("numpy")
        protected = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RECOVER,
            ),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        base_summary = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(100, seed=3)
        protected_summary = AvailabilitySimulator(
            profile, protected, backend="vectorized"
        ).simulate(100, seed=3)
        assert protected_summary.mean_crashes < base_summary.mean_crashes

    def test_seed_reproducible(self, profile):
        pytest.importorskip("numpy")
        first = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(50, seed=9)
        second = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(50, seed=9)
        assert [m.errors for m in first.months] == [
            m.errors for m in second.months
        ]
        assert first.mean_availability == second.mean_availability


class TestFleetAndAutoBackends:
    """'fleet' and 'auto' run the same fleet-of-one kernel as
    'vectorized' (the explorer convention: 'auto' is vectorized)."""

    POLICIES = {
        "private": RegionPolicy(technique=HardwareTechnique.NONE),
        "heap": RegionPolicy(technique=HardwareTechnique.NONE),
    }

    def test_fleet_backend_matches_analytic_model(self, profile):
        pytest.importorskip("numpy")
        summary = AvailabilitySimulator(
            profile, self.POLICIES, backend="fleet"
        ).simulate(300, seed=1)
        # Same analytic anchor as the scalar/vectorized tests.
        assert summary.mean_crashes == pytest.approx(36, rel=0.15)
        analytic = availability_from_crashes(36)
        assert summary.mean_availability == pytest.approx(analytic, abs=0.002)

    def test_fleet_backend_seed_reproducible(self, profile):
        pytest.importorskip("numpy")
        simulate = AvailabilitySimulator(
            profile, self.POLICIES, backend="fleet"
        ).simulate
        first = simulate(50, seed=9)
        second = simulate(50, seed=9)
        assert [m.errors for m in first.months] == [
            m.errors for m in second.months
        ]
        assert [m.downtime_minutes for m in first.months] == [
            m.downtime_minutes for m in second.months
        ]

    def test_fleet_backend_month_count_and_no_fleet_effects(self, profile):
        pytest.importorskip("numpy")
        summary = AvailabilitySimulator(
            profile, self.POLICIES, backend="fleet"
        ).simulate(40, seed=3)
        assert len(summary.months) == 40
        # A fleet-of-one has no repair/retirement downtime scheduled
        # inside the horizon, so every month is pure crash downtime.
        for month in summary.months:
            assert month.downtime_minutes == pytest.approx(
                month.crashes * 10.0
            )

    def test_auto_backend_matches_vectorized(self, profile):
        pytest.importorskip("numpy")
        auto = AvailabilitySimulator(
            profile, self.POLICIES, backend="auto"
        ).simulate(60, seed=4)
        vectorized = AvailabilitySimulator(
            profile, self.POLICIES, backend="vectorized"
        ).simulate(60, seed=4)
        assert [m.errors for m in auto.months] == [
            m.errors for m in vectorized.months
        ]
        assert auto.mean_availability == vectorized.mean_availability
