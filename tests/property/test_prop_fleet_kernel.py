"""Bit-identity of the array design pass against its scalar oracles.

:meth:`CompositionGrid.evaluate_many`, :func:`apportion_many`,
:meth:`FleetOptimizer.search` and the array routed-availability kernel
behind :func:`analyze_fleet` promise the *same bits* as the scalar
per-composition, per-month paths they replaced; the column-backed
:class:`SimulationSummary` promises the same statistics as the eager
list of :class:`MonthOutcome`, and every :class:`AvailabilitySimulator`
backend returns the fleet engine's fleet-of-one columns bit for bit.
Hypothesis varies design subsets, simplex steps, small odd fleets
(apportionment ties), zero headroom, shock-free months (``std == 0``),
bad batches and heavily failing profiles (normal tail cells above the
-40 cutoff).
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.availability_sim import (
    AvailabilitySimulator,
    MonthOutcome,
    SimulationSummary,
)
from repro.core.design_space import HardwareTechnique, RegionPolicy
from repro.core.mapping import paper_design_points
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    FleetLayout,
    FleetSimulator,
    analyze_fleet,
    apportion_servers,
    optimize_fleet,
)
from repro.fleet.analytic import (
    TAIL_CUTOFF,
    CompositionGrid,
    _expected_shortfall,
    _shortfall_many,
)
from repro.fleet.engine import _resolve_designs
from repro.fleet.optimizer import FleetOptimizer, apportion_many

np = pytest.importorskip("numpy")

REGION_NAMES = ("private", "heap", "stack", "code")
RECOVERABLE = {"private": 0.7, "heap": 0.5, "stack": 0.2, "code": 1.0}
STEPS = (1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 0.1)

KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


def bits(values):
    """Exact float identity (distinguishes -0.0 from 0.0)."""
    return [float(value).hex() for value in values]


@st.composite
def profiles(draw):
    """A random profile; ``heavy`` draws crash-dominated cells."""
    region_count = draw(st.integers(min_value=1, max_value=4))
    regions = REGION_NAMES[:region_count]
    heavy = draw(st.booleans())
    prof = VulnerabilityProfile(app="prop-fleet")
    prof.region_sizes = {
        region: draw(st.integers(min_value=1, max_value=5000))
        for region in regions
    }
    for region in regions:
        cell = prof.cell(region, "single-bit soft")
        top = 900 if heavy else 30
        crashes = draw(st.integers(min_value=0, max_value=top))
        incorrect = draw(st.integers(min_value=0, max_value=20))
        for _ in range(crashes):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crashes - incorrect):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


@st.composite
def fleet_designs(draw, regions):
    """A random 1-5 subset of the Table 6 designs, in paper order."""
    points = paper_design_points(regions, RECOVERABLE)
    chosen = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(points) - 1),
            min_size=1,
            max_size=len(points),
            unique=True,
        )
    )
    return [
        FleetDesign(
            name=points[i].name,
            policies=points[i].policies,
            server_cost_savings=draw(
                st.floats(min_value=-0.3, max_value=0.4, allow_nan=False)
            ),
        )
        for i in sorted(chosen)
    ]


@st.composite
def fleet_configs(draw):
    """Small fleets with every feature toggled independently."""
    shocks = draw(st.booleans())
    bad = draw(st.booleans())
    return FleetConfig(
        servers=draw(st.integers(min_value=1, max_value=97)),
        months=draw(st.sampled_from((1, 7, 24, 130))),
        demand_fraction=draw(st.sampled_from((1.0, 0.99, 0.8, 0.5, 0.37))),
        retirement_age_months=draw(st.integers(min_value=1, max_value=48)),
        aging=AgingConfig() if draw(st.booleans()) else AgingConfig.flat(),
        correlation=CorrelationConfig(
            shock_rate_per_month=0.5 if shocks else 0.0,
            shock_cohort_fraction=0.2,
            shock_downtime_minutes=30.0,
            bad_batch_fraction=0.3 if bad else 0.0,
            bad_batch_multiplier=3.0 if bad else 1.0,
        ),
    )


@st.composite
def grids(draw):
    prof = draw(profiles())
    designs = draw(fleet_designs(sorted(prof.region_sizes)))
    config = draw(fleet_configs())
    return CompositionGrid(prof, designs, config)


@st.composite
def count_rows(draw, designs, servers, max_rows=12):
    """Arbitrary compositions (empty blocks included) summing to servers."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        cuts = sorted(
            draw(st.integers(min_value=0, max_value=servers))
            for _ in range(designs - 1)
        )
        bounds = [0] + cuts + [servers]
        rows.append([bounds[i + 1] - bounds[i] for i in range(designs)])
    return rows


class TestEvaluateMany:
    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_rows_equal_scalar_evaluate(self, data):
        grid = data.draw(grids())
        rows = data.draw(
            count_rows(len(grid.designs), grid.config.servers)
        )
        availability, savings = grid.evaluate_many(np.array(rows))
        expected = [grid.evaluate(row) for row in rows]
        assert bits(availability) == bits(a for a, _ in expected)
        assert bits(savings) == bits(s for _, s in expected)

    def test_rejects_wrong_totals_and_shape(self):
        prof = VulnerabilityProfile(app="shape")
        prof.region_sizes = {"heap": 10}
        prof.cell("heap", "single-bit soft").record(
            ErrorOutcome.CRASH, 10, 0, 10, 0.5
        )
        design = FleetDesign(
            name="only",
            policies={"heap": RegionPolicy(technique=HardwareTechnique.NONE)},
            server_cost_savings=0.1,
        )
        grid = CompositionGrid(prof, [design], FleetConfig(servers=5))
        with pytest.raises(ValueError, match="covers 4 servers"):
            grid.evaluate_many(np.array([[5], [4]]))
        with pytest.raises(ValueError, match="shape"):
            grid.evaluate_many(np.array([[5, 0]]))


class TestApportionMany:
    @settings(max_examples=80, deadline=None)
    @given(
        servers=st.integers(min_value=1, max_value=301),
        designs=st.integers(min_value=1, max_value=5),
        units=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_rows_equal_apportion_servers(self, servers, designs, units, data):
        names = data.draw(
            st.lists(
                st.text(alphabet="abcXYZ ()-", min_size=1, max_size=6),
                min_size=designs,
                max_size=designs,
                unique=True,
            )
        )
        rows = data.draw(count_rows(designs, units, max_rows=20))
        fractions = np.array(rows, dtype=np.int64) / units
        counts = apportion_many(servers, fractions, names)
        for row, got in zip(fractions.tolist(), counts.tolist()):
            expected = apportion_servers(servers, dict(zip(names, row)))
            assert got == [expected[name] for name in names]

    def test_ties_go_to_the_lexically_first_name(self):
        fractions = np.array([[1 / 3, 1 / 3, 1 / 3]])
        counts = apportion_many(4, fractions, ["b", "c", "a"])
        assert counts.tolist() == [[1, 1, 2]]
        assert apportion_servers(4, {"b": 1 / 3, "c": 1 / 3, "a": 1 / 3}) == {
            "b": 1,
            "c": 1,
            "a": 2,
        }


class TestSearch:
    @settings(max_examples=25, deadline=None)
    @given(
        grid=grids(),
        step=st.sampled_from(STEPS),
        target=st.sampled_from((0.5, 0.99, 0.9995, 1.0)),
    )
    def test_search_json_equals_scalar_search(self, grid, step, target):
        optimizer = FleetOptimizer(grid, availability_target=target)
        assert json.dumps(optimizer.search(step).to_dict()) == json.dumps(
            optimizer.search_scalar(step).to_dict()
        )

    @pytest.mark.parametrize("heavy_crashes", [40, 900])
    def test_optimize_fleet_equals_oracle(self, heavy_crashes):
        prof = VulnerabilityProfile(app="oracle")
        prof.region_sizes = {"private": 3000, "heap": 2000, "stack": 200}
        for region in prof.region_sizes:
            cell = prof.cell(region, "single-bit soft")
            for _ in range(heavy_crashes):
                cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
            for _ in range(1000 - heavy_crashes):
                cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
        config = FleetConfig(
            servers=501,
            months=36,
            aging=AgingConfig(),
            correlation=CorrelationConfig(
                shock_rate_per_month=0.5,
                shock_cohort_fraction=0.2,
                shock_downtime_minutes=30.0,
                bad_batch_fraction=0.1,
                bad_batch_multiplier=3.0,
            ),
        )
        result = optimize_fleet(
            prof, config=config, step=0.1, availability_target=0.9995
        )
        designs = _resolve_designs(
            prof, None, None, None, None, "single-bit soft", None
        )
        oracle = FleetOptimizer(
            CompositionGrid(prof, designs, config),
            availability_target=0.9995,
        ).search_scalar(0.1)
        assert json.dumps(result.to_dict()) == json.dumps(oracle.to_dict())


class TestRoutedAvailability:
    @staticmethod
    def scalar(mean, var, servers, demand_fraction):
        demand = demand_fraction * servers * 43200
        headroom = (1.0 - demand_fraction) * servers * 43200
        return [
            1.0
            - _expected_shortfall(
                float(m), math.sqrt(max(0.0, float(v))), headroom
            )
            / demand
            for m, v in zip(mean, var)
        ]

    @KERNEL_SETTINGS
    @given(
        prof=profiles(),
        config=fleet_configs(),
        data=st.data(),
    )
    def test_analyze_fleet_equals_scalar_routing(self, prof, config, data):
        designs = data.draw(fleet_designs(sorted(prof.region_sizes)))
        result = analyze_fleet(prof, designs=designs, config=config)
        expected = self.scalar(
            result.mean_downtime_by_month,
            result.var_downtime_by_month,
            config.servers,
            config.demand_fraction,
        )
        assert bits(result.availability_by_month) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        mean=st.floats(min_value=0.0, max_value=1e9),
        std=st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=1e8),
        ),
        headroom=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_shortfall_cells_equal_scalar(self, mean, std, headroom):
        got = _shortfall_many(np.array([mean]), np.array([std]), headroom)
        assert bits(got) == bits([_expected_shortfall(mean, std, headroom)])

    def test_tail_cutoff_is_exact(self):
        std = 1000.0
        ts = [
            TAIL_CUTOFF - 1e-9,
            TAIL_CUTOFF,
            TAIL_CUTOFF + 1e-9,
            -38.6,
            -37.0,
            -8.0,
            0.0,
            3.0,
        ]
        headroom = 1e6
        mean = np.array([headroom + t * std for t in ts])
        got = _shortfall_many(mean, np.full_like(mean, std), headroom)
        expected = [
            _expected_shortfall(m, std, headroom) for m in mean.tolist()
        ]
        assert bits(got) == bits(expected)
        assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0


def fleet_of_one(prof, policies, months, seed, backend="vectorized"):
    """The fleet-engine run behind ``AvailabilitySimulator``, built here
    from its documented layout: one server, flat aging, no correlation,
    refurbishment past the horizon, one 65 536-month chunk."""
    config = FleetConfig(
        servers=1,
        months=months,
        retirement_age_months=months + 1,
        repair_downtime_minutes=0.0,
        month_chunk=1 << 16,
    )
    design = FleetDesign(name="one", policies=policies)
    layout = FleetLayout(prof, [design], {"one": 1}, config)
    return FleetSimulator(layout).simulate(seed=seed, backend=backend)


def eager_months(result):
    """The month objects a fleet result's columns describe."""
    return [
        MonthOutcome(
            errors=int(errors),
            crashes=int(crashes),
            recoveries=int(recoveries),
            incorrect_responses=float(incorrect),
            downtime_minutes=float(downtime),
        )
        for errors, crashes, recoveries, incorrect, downtime in zip(
            result.errors_by_month,
            result.crashes_by_month,
            result.recoveries_by_month,
            result.incorrect_by_month,
            result.downtime_by_month,
        )
    ]


def oracle_stats(months):
    """The statistics exactly as the eager month-list summary took them."""
    ordered = sorted(month.availability for month in months)

    def percentile(p):
        return ordered[
            min(len(ordered) - 1, max(0, math.ceil(p / 100 * len(ordered)) - 1))
        ]

    return (
        sum(month.availability for month in months) / len(months),
        sum(month.crashes for month in months) / len(months),
        [percentile(p) for p in (0, 5, 50, 95, 100)],
    )


def summary_stats(summary):
    return (
        summary.mean_availability,
        summary.mean_crashes,
        [summary.availability_percentile(p) for p in (0, 5, 50, 95, 100)],
    )


class TestColumnSummary:
    @settings(max_examples=15, deadline=None)
    @given(
        prof=profiles(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        months=st.sampled_from((1, 37, 500, 2400)),
    )
    def test_column_summary_equals_eager(self, prof, seed, months):
        policies = dict(
            paper_design_points(sorted(prof.region_sizes), RECOVERABLE)[
                2
            ].policies
        )
        column = AvailabilitySimulator(
            prof, policies, backend="vectorized"
        ).simulate(months, seed=seed)
        months = eager_months(fleet_of_one(prof, policies, months, seed))
        expected = repr(oracle_stats(months))
        assert repr(summary_stats(column)) == expected
        # Materializing months is lazy and changes no statistic.
        assert column.months == months
        assert repr(summary_stats(column)) == expected
        rows = [dataclasses.astuple(month) for month in months]
        assert column == SimulationSummary(*map(list, zip(*rows)))

    @pytest.mark.parametrize("seed", [0, 1, 2014, 99991])
    def test_vectorized_simulate_matches_eager(self, seed):
        prof = VulnerabilityProfile(app="summary")
        prof.region_sizes = {"heap": 3000, "stack": 100}
        for region in prof.region_sizes:
            cell = prof.cell(region, "single-bit soft")
            for _ in range(600):
                cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
            for _ in range(400):
                cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
        design = paper_design_points(sorted(prof.region_sizes))[1]
        summary = AvailabilitySimulator(
            prof, design.policies, backend="vectorized"
        ).simulate(3000, seed=seed)
        fleet = fleet_of_one(prof, dict(design.policies), 3000, seed)
        assert repr(summary_stats(summary)) == repr(
            oracle_stats(eager_months(fleet))
        )

    @pytest.mark.parametrize(
        "backend, engine",
        [
            ("auto", "vectorized"),
            ("vectorized", "vectorized"),
            ("fleet", "vectorized"),
            ("scalar", "scalar"),
        ],
    )
    def test_backend_columns_equal_fleet_engine(self, backend, engine):
        prof = VulnerabilityProfile(app="columns")
        prof.region_sizes = {"heap": 900, "stack": 100}
        for region in prof.region_sizes:
            cell = prof.cell(region, "single-bit soft")
            for _ in range(30):
                cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
            for _ in range(20):
                cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
            for _ in range(950):
                cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
        policies = dict(
            paper_design_points(sorted(prof.region_sizes), RECOVERABLE)[
                2
            ].policies
        )
        summary = AvailabilitySimulator(
            prof, policies, backend=backend
        ).simulate(240, seed=2014)
        fleet = fleet_of_one(prof, policies, 240, 2014, backend=engine)
        months = summary.months
        assert [m.errors for m in months] == fleet.errors_by_month
        assert [m.crashes for m in months] == fleet.crashes_by_month
        assert [m.recoveries for m in months] == fleet.recoveries_by_month
        assert bits(m.incorrect_responses for m in months) == bits(
            fleet.incorrect_by_month
        )
        assert bits(m.downtime_minutes for m in months) == bits(
            fleet.downtime_by_month
        )

    def test_empty_and_bad_percentile(self):
        empty = SimulationSummary.from_columns([], [], [], [], [])
        with pytest.raises(ValueError, match="no months"):
            empty.mean_availability
        with pytest.raises(ValueError, match="no months"):
            empty.mean_crashes
        summary = SimulationSummary.from_columns([1], [1], [0], [0.0], [10.0])
        with pytest.raises(ValueError, match="percentile"):
            summary.availability_percentile(101)

    def test_months_are_a_view_of_the_columns(self):
        summary = SimulationSummary.from_columns(
            [1, 2], [1, 0], [0, 0], [0.0, 0.0], [43200.0, 0.0]
        )
        months = summary.months
        assert summary.months is months
        assert months[0] == MonthOutcome(1, 1, 0, 0.0, 43200.0)
        months.append(dataclasses.replace(months[1]))
        # The statistics read the columns, never the materialized rows.
        assert summary.mean_availability == 0.5
        assert summary.mean_crashes == 0.5
        assert summary.availability_percentile(100) == 1.0
