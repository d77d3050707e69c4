#!/usr/bin/env python
"""Fleet-engine throughput and validation → ``BENCH_fleet.json``.

Times the batched NumPy fleet Monte Carlo against the scalar per-event
reference on a datacenter-scale fleet (the paper's five Table 6 designs
deployed side by side), plus the analytic composition grid behind
``optimize_fleet``. Before any timing race the engine must pass its
correctness gates:

* seeded runs are byte-identical across repeats and ``workers`` counts;
* the analytic model's means sit inside the Monte Carlo CI95 on an
  uncorrelated fleet;
* scalar and vectorized backends agree statistically on a small fleet.

The headline number is ``simulation.speedup_vectorized`` — vectorized
vs (sampled, extrapolated) scalar — which gates CI at 3x. The
composition search must equal its per-composition scalar oracle byte
for byte before it is timed; ``optimizer.speedup_vs_oracle`` (array
search vs oracle search on one grid) gates CI too. The scalar
reference resolves every error event in a Python loop, so running it at
full fleet scale is infeasible; it is always timed on a proportional
sample and extrapolated per server-month (recorded as
``scalar.mode``).

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.mapping import paper_design_points  # noqa: E402
from repro.core.taxonomy import ErrorOutcome  # noqa: E402
from repro.core.vulnerability import VulnerabilityProfile  # noqa: E402
from repro.fleet import (  # noqa: E402
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    analytic_matches_simulation,
    analyze_fleet,
    optimize_fleet,
    simulate_fleet,
)
from repro.fleet.analytic import CompositionGrid  # noqa: E402
from repro.fleet.engine import _resolve_designs  # noqa: E402
from repro.fleet.optimizer import FleetOptimizer  # noqa: E402

#: 6 regions spanning the size/vulnerability spread the paper measures
#: (same synthetic profile as bench_design_space).
REGION_SPECS = {
    # region: (size, crash trials per 1000, incorrect trials per 1000)
    "private": (4000, 12, 5),
    "heap": (2500, 8, 9),
    "metadata": (1200, 20, 2),
    "buffers": (600, 4, 14),
    "stack": (300, 50, 1),
    "code": (100, 100, 0),
}

RECOVERABLE = {
    "private": 0.7,
    "heap": 0.55,
    "metadata": 0.95,
    "buffers": 0.4,
    "stack": 0.2,
    "code": 1.0,
}

SEED = 20140623


def build_profile():
    """Deterministic synthetic 6-region profile (1000 trials per cell)."""
    profile = VulnerabilityProfile(app="bench-fleet")
    profile.region_sizes = {
        region: size for region, (size, _, _) in REGION_SPECS.items()
    }
    for region, (_size, crash_trials, incorrect_trials) in REGION_SPECS.items():
        cell = profile.cell(region, "single-bit soft")
        for _ in range(crash_trials):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect_trials):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crash_trials - incorrect_trials):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return profile


def fleet_designs(profile):
    return list(paper_design_points(sorted(profile.region_sizes), RECOVERABLE))


def check_determinism(profile, designs):
    """Seeded runs must be byte-identical across repeats and workers."""
    config = FleetConfig(servers=80, months=48, month_chunk=16)
    runs = [
        simulate_fleet(
            profile, designs=designs, config=config, seed=SEED, workers=workers
        )
        for workers in (1, 1, 4)
    ]
    baseline = runs[0]
    for run in runs[1:]:
        assert run.downtime_by_month == baseline.downtime_by_month
        assert run.errors_by_month == baseline.errors_by_month
        assert run.availability_by_month == baseline.availability_by_month
        left, right = baseline.to_dict(), run.to_dict()
        left.pop("workers")
        right.pop("workers")
        assert left == right, "summaries diverge beyond the workers field"
    return {
        "byte_identical": True,
        "workers_checked": [1, 4],
        "servers": config.servers,
        "months": config.months,
    }


def check_analytic(profile, designs):
    """Analytic means must sit inside the Monte Carlo CI95."""
    config = FleetConfig(servers=100, months=240, month_chunk=32)
    simulated = simulate_fleet(
        profile, designs=designs, config=config, seed=SEED
    )
    analytic = analyze_fleet(profile, designs=designs, config=config)
    verdicts = analytic_matches_simulation(analytic, simulated)
    assert all(verdicts.values()), f"analytic outside MC CI95: {verdicts}"
    return {
        "verdicts": verdicts,
        "mc_machine_availability": simulated.mean_machine_availability,
        "analytic_machine_availability": analytic.mean_machine_availability,
        "mc_fleet_availability": simulated.mean_fleet_availability,
        "analytic_fleet_availability": analytic.mean_fleet_availability,
        "machine_ci95": list(
            simulated.confidence_interval("machine_availability")
        ),
    }


def check_scalar_equivalence(profile, designs):
    """Scalar and vectorized draws differ; their statistics must not."""
    config = FleetConfig(servers=10, months=48, month_chunk=16)
    scalar = simulate_fleet(
        profile, designs=designs, config=config, seed=SEED, backend="scalar"
    )
    vectorized = simulate_fleet(
        profile,
        designs=designs,
        config=config,
        seed=SEED,
        backend="vectorized",
    )
    divergence = abs(
        scalar.mean_machine_availability
        - vectorized.mean_machine_availability
    )
    assert divergence < 0.003, (
        f"backends diverge: {scalar.mean_machine_availability} vs "
        f"{vectorized.mean_machine_availability}"
    )
    return {
        "scalar_machine_availability": scalar.mean_machine_availability,
        "vectorized_machine_availability": (
            vectorized.mean_machine_availability
        ),
        "max_abs_divergence": divergence,
        "server_months": config.servers * config.months,
    }


def bench_simulation(profile, designs, smoke):
    """Vectorized at fleet scale vs sampled-extrapolated scalar."""
    if smoke:
        full = FleetConfig(servers=300, months=60, month_chunk=32)
        sample = FleetConfig(servers=5, months=12, month_chunk=16)
    else:
        full = FleetConfig(servers=2000, months=120, month_chunk=32)
        sample = FleetConfig(servers=10, months=24, month_chunk=16)

    start = time.perf_counter()
    result = simulate_fleet(
        profile, designs=designs, config=full, seed=SEED, backend="vectorized"
    )
    vectorized_seconds = time.perf_counter() - start
    full_server_months = full.servers * full.months

    # The scalar reference resolves ~2000 error events per server-month
    # in a Python loop; time a composition-proportional sample and
    # extrapolate (the per-server-month work is constant).
    start = time.perf_counter()
    simulate_fleet(
        profile, designs=designs, config=sample, seed=SEED, backend="scalar"
    )
    sampled_seconds = time.perf_counter() - start
    sample_server_months = sample.servers * sample.months
    scalar_seconds = sampled_seconds * (
        full_server_months / sample_server_months
    )

    # Feature overhead: the same fleet with aging, shocks, and a bad
    # procurement batch layered on.
    featured = FleetConfig(
        servers=full.servers,
        months=full.months,
        month_chunk=full.month_chunk,
        aging=AgingConfig(),
        correlation=CorrelationConfig(
            shock_rate_per_month=1.0,
            shock_cohort_fraction=0.1,
            shock_downtime_minutes=30.0,
            bad_batch_fraction=0.05,
            bad_batch_multiplier=3.0,
        ),
    )
    start = time.perf_counter()
    featured_result = simulate_fleet(
        profile,
        designs=designs,
        config=featured,
        seed=SEED,
        backend="vectorized",
    )
    featured_seconds = time.perf_counter() - start

    return {
        "servers": full.servers,
        "months": full.months,
        "server_months": full_server_months,
        "designs": len(designs),
        "scalar": {
            "mode": "sampled-extrapolated",
            "sampled_server_months": sample_server_months,
            "sampled_seconds": sampled_seconds,
            "seconds": scalar_seconds,
        },
        "vectorized": {
            "seconds": vectorized_seconds,
            "server_months_per_second": (
                full_server_months / vectorized_seconds
            ),
            "mean_fleet_availability": result.mean_fleet_availability,
            "mean_machine_availability": result.mean_machine_availability,
        },
        "correlated_aging": {
            "seconds": featured_seconds,
            "overhead_vs_plain": featured_seconds / vectorized_seconds,
            "shock_hits": sum(featured_result.shock_hits_by_month),
            "mean_fleet_availability": (
                featured_result.mean_fleet_availability
            ),
        },
        "speedup_vectorized": scalar_seconds / vectorized_seconds,
    }


def bench_optimizer(profile, designs, smoke):
    """Composition-grid search across the five paper designs.

    The array search must reproduce the per-composition scalar oracle
    (``FleetOptimizer.search_scalar``) byte for byte before either is
    timed; ``speedup_vs_oracle`` compares the two searches on one grid.
    """
    step = 0.1 if smoke else 0.05
    config = FleetConfig(servers=1000, months=36, demand_fraction=0.95)
    target = 0.9995
    resolved = _resolve_designs(
        profile, designs, None, None, None, "single-bit soft", None
    )
    optimizer = FleetOptimizer(
        CompositionGrid(profile, resolved, config), availability_target=target
    )
    result = optimize_fleet(
        profile,
        designs=designs,
        config=config,
        availability_target=target,
        step=step,
    )
    oracle = optimizer.search_scalar(step)
    assert json.dumps(result.to_dict()) == json.dumps(oracle.to_dict()), (
        "array composition search diverges from the scalar oracle"
    )
    assert result.best is not None, "optimizer found no feasible composition"

    start = time.perf_counter()
    optimize_fleet(
        profile,
        designs=designs,
        config=config,
        availability_target=target,
        step=step,
    )
    seconds = time.perf_counter() - start
    search_seconds = _best_of(3, lambda: optimizer.search(step))
    oracle_seconds = _best_of(3, lambda: optimizer.search_scalar(step))
    return {
        "step": step,
        "designs": len(designs),
        "compositions_evaluated": result.evaluated,
        "compositions_per_second": result.evaluated / seconds,
        "seconds": seconds,
        "search_seconds": search_seconds,
        "oracle_search_seconds": oracle_seconds,
        "oracle_identical": True,
        "speedup_vs_oracle": oracle_seconds / search_seconds,
        "availability_target": result.availability_target,
        "best": result.best.to_dict(),
        "pareto_size": len(result.pareto),
        "mixed_dominates_singles": result.mixed_dominates_singles,
    }


def _best_of(repeats, run):
    """Fastest wall time of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller fleet / coarser composition grid for CI "
        "(same JSON schema)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_fleet.json",
        metavar="PATH", help="where to write the JSON report",
    )
    arguments = parser.parse_args(argv)

    profile = build_profile()
    designs = fleet_designs(profile)

    print("gate: seeded determinism across repeats and workers...")
    determinism = check_determinism(profile, designs)
    print(
        f"  byte-identical over {determinism['servers']} servers x "
        f"{determinism['months']} months (workers 1 vs 4)"
    )

    print("gate: analytic model vs Monte Carlo CI95...")
    analytic = check_analytic(profile, designs)
    print(
        f"  machine availability {analytic['mc_machine_availability']:.6f} "
        f"(analytic {analytic['analytic_machine_availability']:.6f}, "
        "inside CI95)"
    )

    print("gate: scalar vs vectorized statistics...")
    equivalence = check_scalar_equivalence(profile, designs)
    print(
        f"  max divergence {equivalence['max_abs_divergence']:.5f} over "
        f"{equivalence['server_months']} server-months"
    )

    print("timing: fleet Monte Carlo...")
    simulation = bench_simulation(profile, designs, arguments.smoke)
    print(
        f"  {simulation['servers']} servers x {simulation['months']} months: "
        f"scalar {simulation['scalar']['seconds']:.1f}s "
        f"({simulation['scalar']['mode']}), "
        f"vectorized {simulation['vectorized']['seconds']:.2f}s "
        f"({simulation['vectorized']['server_months_per_second']:,.0f} "
        "server-months/s)"
    )
    print(
        f"  speedup: {simulation['speedup_vectorized']:.1f}x; "
        "aging+shocks overhead "
        f"{simulation['correlated_aging']['overhead_vs_plain']:.2f}x"
    )

    print("gate + timing: composition optimizer vs scalar oracle...")
    optimizer = bench_optimizer(profile, designs, arguments.smoke)
    print(
        f"  {optimizer['compositions_evaluated']} compositions in "
        f"{optimizer['seconds']:.2f}s "
        f"({optimizer['compositions_per_second']:,.0f}/s); best "
        f"{optimizer['best']['key']} "
        f"(savings {optimizer['best']['cost_savings']:.3f})"
    )
    print(
        f"  search {optimizer['search_seconds']:.3f}s vs oracle "
        f"{optimizer['oracle_search_seconds']:.3f}s: "
        f"{optimizer['speedup_vs_oracle']:.1f}x (byte-identical)"
    )

    report = {
        "mode": "smoke" if arguments.smoke else "full",
        "determinism": determinism,
        "analytic": analytic,
        "equivalence": equivalence,
        "simulation": simulation,
        "optimizer": optimizer,
    }
    arguments.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
