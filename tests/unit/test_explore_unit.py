"""Unit tests for repro.explore (matrix, batch, search, pareto, engine).

The contract under test everywhere: every batch/bounded path must return
*byte-identical* designs and metrics to the scalar
``DesignEvaluator``/``MappingOptimizer`` reference on the same inputs.
"""

import itertools

import pytest

from repro import api
from repro.cluster import AvailabilitySimulator
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.mapping import DesignEvaluator, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES, MappingOptimizer
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import (
    BranchAndBoundSearcher,
    explore,
    pareto_indices,
)
from repro.obs import MetricsRegistry, Observer

REGIONS = ("private", "heap", "stack")


@pytest.fixture
def profile():
    prof = VulnerabilityProfile(app="WebSearch-like")
    prof.region_sizes = {"private": 3600, "heap": 900, "stack": 6}
    crash_probabilities = {"private": 0.01, "heap": 0.006, "stack": 0.1}
    for region, probability in crash_probabilities.items():
        cell = prof.cell(region, "single-bit soft")
        crashes = round(probability * 1000)
        for _ in range(crashes):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(5):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crashes - 5):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


@pytest.fixture
def evaluator(profile):
    return DesignEvaluator(profile)


@pytest.fixture
def optimizer(evaluator):
    return MappingOptimizer(evaluator, recoverable_fractions={"private": 0.7})


@pytest.fixture
def matrix(optimizer):
    return optimizer.contribution_matrix(REGIONS)


def scalar_metrics_for(optimizer, digits):
    """Evaluate one assignment through the scalar reference path."""
    policies = {
        region: optimizer._specialize(region, optimizer.candidates[c])
        for region, c in zip(REGIONS, digits)
    }
    design = HRMDesign(
        name="+".join(p.describe() for p in policies.values()),
        policies=policies,
    )
    return optimizer.evaluator.evaluate(design)


class TestContributionMatrix:
    def test_metrics_identical_to_scalar_oracle(self, optimizer, matrix):
        width = matrix.candidate_count
        for digits in itertools.product(range(width), repeat=len(REGIONS)):
            expected = scalar_metrics_for(optimizer, digits)
            got = matrix.metrics_at(digits)
            assert got.design.name == expected.design.name
            assert got.memory_cost_savings == expected.memory_cost_savings
            assert got.server_cost_savings == expected.server_cost_savings
            assert got.crashes_per_month == expected.crashes_per_month
            assert got.availability == expected.availability
            assert (
                got.incorrect_per_million_queries
                == expected.incorrect_per_million_queries
            )
            assert (
                got.memory_cost_savings_range == expected.memory_cost_savings_range
            )
            assert (
                got.server_cost_savings_range == expected.server_cost_savings_range
            )

    def test_id_roundtrip_matches_product_order(self, matrix):
        width = matrix.candidate_count
        for design_id, digits in enumerate(
            itertools.product(range(width), repeat=len(REGIONS))
        ):
            assert matrix.digits_of(design_id) == tuple(digits)

    def test_rejects_empty_regions(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.contribution_matrix(())

    def test_rejects_unsized_space(self, evaluator):
        prof = VulnerabilityProfile(app="empty")
        prof.region_sizes = {"heap": 0}
        cell = prof.cell("heap", "single-bit soft")
        cell.record(ErrorOutcome.MASKED_LOGIC, 10, 0, 0, None)
        bad = MappingOptimizer(DesignEvaluator(prof))
        with pytest.raises(ValueError):
            bad.contribution_matrix(("heap",))


class TestVectorizedSearch:
    def test_search_identical_to_scalar(self, evaluator):
        pytest.importorskip("numpy")
        kwargs = dict(recoverable_fractions={"private": 0.7})
        scalar = MappingOptimizer(evaluator, backend="scalar", **kwargs).search(
            0.999, regions=REGIONS
        )
        vector = MappingOptimizer(evaluator, backend="vectorized", **kwargs).search(
            0.999, regions=REGIONS
        )
        assert vector.evaluated == scalar.evaluated
        assert len(vector.feasible) == len(scalar.feasible)
        for got, expected in zip(vector.feasible, scalar.feasible):
            assert got.design.name == expected.design.name
            assert got.server_cost_savings == expected.server_cost_savings
            assert got.availability == expected.availability
        assert vector.best.design.name == scalar.best.design.name

    def test_search_with_budget_identical(self, evaluator):
        pytest.importorskip("numpy")
        scalar = MappingOptimizer(evaluator, backend="scalar").search(
            0.999, max_incorrect_per_million=0.5, regions=REGIONS
        )
        vector = MappingOptimizer(evaluator, backend="vectorized").search(
            0.999, max_incorrect_per_million=0.5, regions=REGIONS
        )
        assert [m.design.name for m in vector.feasible] == [
            m.design.name for m in scalar.feasible
        ]


class TestParetoFront:
    @staticmethod
    def quadratic_front(points):
        """The pre-optimization O(n^2) front, kept as the golden oracle."""
        front = []
        for i, (savings_a, avail_a) in enumerate(points):
            dominated = False
            for j, (savings_b, avail_b) in enumerate(points):
                if i == j:
                    continue
                if (
                    savings_b >= savings_a
                    and avail_b >= avail_a
                    and (savings_b > savings_a or avail_b > avail_a)
                ):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        front.sort(key=lambda idx: (-points[idx][0], idx))
        return front

    def test_sweep_matches_quadratic_on_seed_profile(self, optimizer):
        metrics = [
            scalar_metrics_for(optimizer, digits)
            for digits in itertools.product(
                range(len(DEFAULT_CANDIDATES)), repeat=len(REGIONS)
            )
        ]
        points = [(m.server_cost_savings, m.availability) for m in metrics]
        assert pareto_indices(points) == self.quadratic_front(points)

    def test_sweep_handles_ties_and_duplicates(self):
        points = [
            (0.5, 0.9), (0.5, 0.9), (0.5, 0.8),
            (0.3, 0.99), (0.3, 0.99), (0.1, 0.99), (0.6, 0.1),
        ]
        assert pareto_indices(points) == self.quadratic_front(points)

    def test_optimizer_front_matches_quadratic(self, evaluator):
        optimizer = MappingOptimizer(
            evaluator, candidates=DEFAULT_CANDIDATES[:4], backend="scalar"
        )
        front = optimizer.pareto_front(regions=("private", "heap"))
        metrics = []
        for assignment in itertools.product(
            DEFAULT_CANDIDATES[:4], repeat=2
        ):
            policies = {
                region: optimizer._specialize(region, policy)
                for region, policy in zip(("private", "heap"), assignment)
            }
            metrics.append(
                evaluator.evaluate(
                    HRMDesign(
                        name="+".join(p.describe() for p in policies.values()),
                        policies=policies,
                    )
                )
            )
        points = [(m.server_cost_savings, m.availability) for m in metrics]
        expected = [metrics[i].design.name for i in self.quadratic_front(points)]
        assert [m.design.name for m in front] == expected

    def test_vectorized_front_matches_scalar(self, evaluator):
        pytest.importorskip("numpy")
        scalar = MappingOptimizer(evaluator, backend="scalar").pareto_front(
            regions=REGIONS
        )
        vector = MappingOptimizer(evaluator, backend="vectorized").pareto_front(
            regions=REGIONS
        )
        assert [m.design.name for m in vector] == [m.design.name for m in scalar]


class TestBranchAndBound:
    def exhaustive_top(self, optimizer, target, k, budget=None):
        result = optimizer.search(
            target, max_incorrect_per_million=budget, regions=REGIONS
        )
        return result.feasible[:k]

    @pytest.mark.parametrize("top_k", [1, 5, 50, 1000])
    def test_top_k_matches_exhaustive(self, optimizer, matrix, top_k):
        bounded = BranchAndBoundSearcher(matrix).search(0.999, top_k=top_k)
        expected = self.exhaustive_top(optimizer, 0.999, top_k)
        assert [m.design.name for m in bounded.top] == [
            m.design.name for m in expected
        ]
        for got, want in zip(bounded.top, expected):
            assert got.server_cost_savings == want.server_cost_savings
            assert got.availability == want.availability
        assert bounded.evaluated + bounded.pruned == bounded.total_designs

    def test_budget_constrained_matches_exhaustive(self, optimizer, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(
            0.999, max_incorrect_per_million=0.5, top_k=3
        )
        expected = self.exhaustive_top(optimizer, 0.999, 3, budget=0.5)
        assert [m.design.name for m in bounded.top] == [
            m.design.name for m in expected
        ]

    def test_infeasible_target_prunes_whole_space(self, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(
            0.999, max_incorrect_per_million=-1.0
        )
        assert not bounded.found
        assert bounded.top == []
        assert bounded.evaluated + bounded.pruned == bounded.total_designs

    def test_prunes_without_losing_exactness(self, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(0.999, top_k=1)
        assert bounded.pruned > 0
        assert bounded.evaluated < bounded.total_designs

    def test_validation(self, matrix):
        searcher = BranchAndBoundSearcher(matrix)
        with pytest.raises(ValueError):
            searcher.search(0.999, top_k=0)
        with pytest.raises(ValueError):
            searcher.search(1.5)


class TestExploreEngine:
    BACKENDS = ("scalar", "branch-and-bound", "vectorized")

    def test_backends_agree_on_top_k(self, profile):
        results = {}
        for backend in self.BACKENDS:
            if backend == "vectorized":
                pytest.importorskip("numpy")
            results[backend] = explore(
                profile,
                availability_target=0.999,
                recoverable_fractions={"private": 0.7},
                backend=backend,
                top_k=4,
            )
        names = {
            backend: [m.design.name for m in result.feasible]
            for backend, result in results.items()
        }
        assert names["scalar"] == names["branch-and-bound"] == names["vectorized"]
        assert len(names["scalar"]) == 4
        # Exhaustive backends agree on the whole-space feasible count;
        # branch-and-bound only proves feasibility for the designs it
        # returns (everything else was pruned away unevaluated).
        assert results["scalar"].feasible_count == results["vectorized"].feasible_count
        assert results["branch-and-bound"].feasible_count == 4

    def test_full_feasible_list_without_top_k(self, profile, optimizer):
        result = explore(
            profile,
            availability_target=0.999,
            recoverable_fractions={"private": 0.7},
            backend="scalar",
            regions=REGIONS,
        )
        reference = optimizer.search(0.999, regions=REGIONS)
        assert [m.design.name for m in result.feasible] == [
            m.design.name for m in reference.feasible
        ]
        assert result.total_designs == reference.evaluated

    def test_simulation_validation(self, profile):
        result = explore(
            profile,
            availability_target=0.999,
            backend="scalar",
            top_k=1,
            simulate_months=150,
            simulation_seed=7,
        )
        sim = result.simulation
        assert sim is not None
        assert sim.design_name == result.best.design.name
        assert sim.months == 150
        assert sim.seed == 7
        assert sim.mean_availability == pytest.approx(
            sim.analytic_availability, abs=0.005
        )
        assert set(sim.percentiles) == {"p5", "p50", "p95"}
        payload = sim.to_dict()
        assert payload["design"] == sim.design_name

    def test_observer_instruments_and_spans(self, profile):
        registry = MetricsRegistry()
        observer = Observer(metrics=registry)
        result = explore(
            profile,
            availability_target=0.999,
            backend="branch-and-bound",
            top_k=2,
            observer=observer,
        )
        snapshot = registry.to_dict()
        evaluated = snapshot["explore_designs_evaluated_total"]["values"]
        assert sum(evaluated.values()) == result.evaluated
        pruned = snapshot["explore_designs_pruned_total"]["values"]
        assert sum(pruned.values()) == result.pruned
        assert list(
            snapshot["explore_space_designs"]["values"].values()
        ) == [result.total_designs]

    def test_validation_errors(self, profile):
        with pytest.raises(ValueError):
            explore(profile, availability_target=0.999, backend="quantum")
        with pytest.raises(ValueError):
            explore(profile, availability_target=0.999, top_k=0)
        with pytest.raises(ValueError):
            explore(profile, availability_target=0.999, simulate_months=-1)
        with pytest.raises(ValueError):
            explore(profile, availability_target=1.5)


class TestApiFacade:
    def test_explore_design_space_delegates(self, profile):
        result = api.explore_design_space(
            profile, availability_target=0.999, backend="scalar", top_k=2
        )
        assert isinstance(result, api.ExplorationResult)
        assert isinstance(result, api.OptimizationResult)
        assert result.found
        assert len(result.feasible) == 2

    def test_backend_tuples_exported(self):
        assert "branch-and-bound" in api.EXPLORE_BACKENDS
        assert "vectorized" in api.SEARCH_BACKENDS


class TestBatchEvaluator:
    def test_chunked_values_match_matrix(self, matrix):
        np = pytest.importorskip("numpy")
        from repro.explore.batch import BatchDesignSpaceEvaluator

        batch = BatchDesignSpaceEvaluator(matrix, chunk_size=37)
        ids = np.arange(matrix.total_designs, dtype=np.int64)
        values = batch.evaluate_ids(ids)
        for design_id in range(matrix.total_designs):
            digits = matrix.digits_of(design_id)
            cost, crashes, incorrect = matrix.totals_at(digits)
            assert values["savings"][design_id] == (
                matrix.server_savings_from_cost(cost)
            )
            assert values["availability"][design_id] == (
                matrix.availability_from_crash_total(crashes)
            )
            assert values["incorrect_per_million"][design_id] == (
                matrix.incorrect_per_million_from_total(incorrect)
            )

    def test_feasible_ids_match_scalar_filter(self, optimizer, matrix):
        pytest.importorskip("numpy")
        from repro.explore.batch import BatchDesignSpaceEvaluator

        batch = BatchDesignSpaceEvaluator(matrix, chunk_size=100)
        ids, evaluated = batch.feasible_ids(0.999)
        assert evaluated == matrix.total_designs
        expected = [
            design_id
            for design_id in range(matrix.total_designs)
            if scalar_metrics_for(
                optimizer, matrix.digits_of(design_id)
            ).availability >= 0.999
        ]
        assert list(ids) == expected


class TestBatchSimulator:
    """Batched Monte Carlo validation: ``AvailabilitySimulator`` on the
    fleet engine's vectorized kernel, one server with no fleet effects."""

    def make_simulator(self, profile, policies):
        evaluator = DesignEvaluator(profile)
        return AvailabilitySimulator(
            profile,
            policies,
            error_model=evaluator.error_model,
            params=evaluator.availability_params,
            region_sizes=evaluator.region_sizes,
            backend="vectorized",
        )

    def policies(self, technique, response=SoftwareResponse.CONSUME):
        return {
            region: RegionPolicy(technique=technique, response=response)
            for region in REGIONS
        }

    def test_seed_stable(self, profile):
        policies = self.policies(HardwareTechnique.NONE)
        first = self.make_simulator(profile, policies).simulate(60, seed=11)
        second = self.make_simulator(profile, policies).simulate(60, seed=11)
        assert first.months == second.months
        third = self.make_simulator(profile, policies).simulate(60, seed=12)
        assert [m.errors for m in first.months] != [
            m.errors for m in third.months
        ]

    def test_chunking_contract(self, profile):
        # Seed-stability is per (seed, month_chunk): the same chunking
        # reproduces draws exactly; a different chunking samples the
        # same distribution (different stream, same statistics).
        from repro.fleet import (
            FleetConfig,
            FleetDesign,
            FleetLayout,
            FleetSimulator,
        )

        design = FleetDesign(
            name="one", policies=self.policies(HardwareTechnique.NONE)
        )
        sizes = DesignEvaluator(profile).region_sizes

        def simulate(month_chunk):
            config = FleetConfig(
                servers=1,
                months=400,
                retirement_age_months=401,
                repair_downtime_minutes=0.0,
                month_chunk=month_chunk,
            )
            layout = FleetLayout(
                profile, [design], {"one": 1}, config, region_sizes=sizes
            )
            return FleetSimulator(layout).simulate(seed=3)

        whole = simulate(1 << 16)
        rechunked = simulate(7)
        replayed = simulate(7)
        assert rechunked.errors_by_month == replayed.errors_by_month
        assert rechunked.crashes_by_month == replayed.crashes_by_month
        assert sum(rechunked.errors_by_month) == pytest.approx(
            sum(whole.errors_by_month), rel=0.05
        )
        assert rechunked.mean_machine_availability == pytest.approx(
            whole.mean_machine_availability, abs=0.002
        )

    def test_ecc_design_never_crashes(self, profile):
        unprotected = self.make_simulator(
            profile, self.policies(HardwareTechnique.NONE)
        ).simulate(50, seed=4)
        protected = self.make_simulator(
            profile, self.policies(HardwareTechnique.SEC_DED)
        ).simulate(50, seed=4)
        assert protected.mean_crashes == 0.0
        assert protected.mean_availability == 1.0
        assert unprotected.mean_crashes > 0.0

    def test_summary_is_scalar_compatible(self, profile):
        summary = self.make_simulator(
            profile, self.policies(HardwareTechnique.NONE)
        ).simulate(80, seed=5)
        assert len(summary.months) == 80
        availability = [month.availability for month in summary.months]
        assert summary.mean_availability == pytest.approx(
            sum(availability) / 80
        )
        assert summary.availability_percentile(50) == sorted(availability)[39]

    def test_validation(self, profile):
        with pytest.raises(ValueError):
            AvailabilitySimulator(profile, {})
        simulator = self.make_simulator(
            profile, self.policies(HardwareTechnique.NONE)
        )
        with pytest.raises(ValueError):
            simulator.simulate(0)
