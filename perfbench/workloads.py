"""The benchmark's two workloads: inputs, set-up, timed call, checks.

Every workload turns a seed into concrete inputs (campaign, serve and
simulation seeds) with :func:`derive`, so the program only ever
receives generated configs and tenants; the applications keep their
default data.

One *operation* is ``setup()`` followed by ``operate()``; only
``operate()`` counts toward throughput, ``setup()`` is timed as set-up.
``operate()`` receives the observer the program should report its own
spans to (the disabled ``NULL_OBSERVER`` outside the traced run).
``digest()`` reduces an operation's output to the bytes that must
repeat exactly.

Checks are untimed and compare against the reference paths of the same
commit. ``cross_check()`` runs reduced-budget reference comparisons
before timing starts (which also warms the code paths the timed
operations use); ``output_check()`` audits one timed output.

The layer targets wrapped by the traced run live here too, next to the
calls they measure (see :func:`layer_targets`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import api
from repro.fleet.analytic import analytic_matches_simulation

import tracing

#: The three applications, at default sizes and data.
APPS = (
    ("websearch", api.WebSearch),
    ("kvstore", api.KVStoreWorkload),
    ("graphmining", api.GraphMining),
)


def derive(seed: int, label: str) -> int:
    """A 31-bit child seed of ``seed`` (independent of the program's RNG)."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def profile_json(profile) -> str:
    return json.dumps(profile.to_dict(), sort_keys=True)


@dataclass
class Workload:
    """One named workload; ``work()`` counts an output's work items
    (trials on ``pipeline``, requests of every disposition on
    ``serve-faulty``)."""

    name: str
    setup: Callable[[int], object]
    operate: Callable[[object, object], object]
    work: Callable[[object], int]
    digest: Callable[[object], str]
    cross_check: Callable[[int], List[str]]
    output_check: Callable[[object], List[str]] = lambda output: []
    #: Per-layer metrics read off one output (traced run only).
    layer_extras: Callable[[object], Dict[str, float]] = lambda output: {}


# ----------------------------------------------------------------------
# pipeline: fresh pruned campaigns of the three applications, then the
# design pass (explore + fleet simulate/analyze/optimize) on each profile
# ----------------------------------------------------------------------
CHARACTERIZE_CONFIG = dict(trials_per_cell=12, queries_per_trial=150)
CROSS_CHECK_CONFIG = dict(trials_per_cell=6, queries_per_trial=30)


def fleet_config():
    return api.FleetConfig(
        servers=5000,
        months=120,
        aging=api.AgingConfig(),
        correlation=api.CorrelationConfig(
            shock_rate_per_month=0.5,
            shock_cohort_fraction=0.2,
            shock_downtime_minutes=30,
            bad_batch_fraction=0.1,
            bad_batch_multiplier=3.0,
        ),
    )


def pipeline_setup(seed: int):
    config = api.CampaignConfig(**CHARACTERIZE_CONFIG, seed=derive(seed, "campaign"))
    campaigns = []
    for _, factory in APPS:
        campaign = api.CharacterizationCampaign(factory(), config=config, backend="pruned")
        campaign.prepare()
        campaigns.append(campaign)
    return campaigns, derive(seed, "design")


def design_pass(profile, seed: int, observer):
    """Explore, then simulate, analyze and optimize a fleet, for one profile."""
    config = fleet_config()
    explored = api.explore_design_space(
        profile,
        availability_target=0.999,
        backend="vectorized",
        simulate_months=24000,
        simulation_seed=seed,
    )
    simulated = api.simulate_fleet(
        profile, config=config, seed=seed, workers=1, observer=observer
    )
    analytic = api.analyze_fleet(profile, config=config)
    optimized = api.optimize_fleet(
        profile, config=config, step=0.1, availability_target=0.9995,
        observer=observer,
    )
    return explored, simulated, analytic, optimized


def pipeline_operate(state, observer):
    """One (profile, trial count, design pass) per application."""
    campaigns, seed = state
    stages = []
    for campaign in campaigns:
        profile = campaign.run(specs=api.DEFAULT_SPECS, workers=1)
        stages.append((profile, len(campaign.trials), design_pass(profile, seed, observer)))
    return stages


def _metrics_row(metrics) -> list:
    return [
        metrics.design.name,
        metrics.design.describe(),
        metrics.memory_cost_savings,
        metrics.server_cost_savings,
        metrics.crashes_per_month,
        metrics.availability,
        metrics.incorrect_per_million_queries,
    ]


def pipeline_digest(stages) -> str:
    rows = []
    for profile, _, (explored, simulated, analytic, optimized) in stages:
        rows.append({
            "profile": profile.to_dict(),
            "explore": {
                "best": _metrics_row(explored.best) if explored.best else None,
                "feasible": [_metrics_row(m) for m in explored.feasible],
                "evaluated": explored.evaluated,
                "simulation": explored.simulation.to_dict(),
            },
            "simulate": simulated.to_dict(),
            "analytic": analytic.to_dict(),
            "optimize": optimized.to_dict(),
        })
    return sha(json.dumps(rows, sort_keys=True))


def pipeline_check(seed: int, k: int = 5) -> List[str]:
    """Reduced budget, per application: a repeated pruned campaign
    reproduces its profile byte for byte, the vectorized backend's
    profile equals it, and on that profile branch-and-bound top-k
    equals vectorized top-k."""
    failures = []
    config = api.CampaignConfig(**CROSS_CHECK_CONFIG, seed=derive(seed, "campaign"))
    for name, factory in APPS:
        profiles = [
            api.run_campaign(factory(), config=config, backend=backend, workers=1)
            for backend in ("pruned", "pruned", "vectorized")
        ]
        first, repeat, vectorized = (profile_json(p) for p in profiles)
        if repeat != first:
            failures.append(f"pipeline: {name} pruned profile not reproducible")
        if vectorized != first:
            failures.append(f"pipeline: {name} pruned profile != vectorized")
        rankings = [
            [
                _metrics_row(metrics)
                for metrics in api.explore_design_space(
                    profiles[0], availability_target=0.999, backend=backend, top_k=k
                ).feasible
            ]
            for backend in ("vectorized", "branch-and-bound")
        ]
        if rankings[0] != rankings[1]:
            failures.append(f"pipeline: {name} branch-and-bound top-{k} != vectorized")
    return failures


def analytic_in_ci(stages) -> Dict[str, float]:
    """How many profiles' analytic machine availability lies in the CI95.

    Reported, not gated: the CI is statistical, and the analytic model
    does not cap a server's downtime at the month, so heavily failing
    profiles (graphmining here) fall far outside it on every seed.
    """
    inside = sum(
        analytic_matches_simulation(
            analytic, simulated, metrics=("machine_availability",)
        )["machine_availability"]
        for _, _, (_, simulated, analytic, _) in stages
    )
    return {"fleet.analytic_in_ci": inside}


PIPELINE = Workload(
    name="pipeline",
    setup=pipeline_setup,
    operate=pipeline_operate,
    work=lambda stages: sum(trials for _, trials, _ in stages),
    digest=pipeline_digest,
    cross_check=pipeline_check,
    layer_extras=analytic_in_ci,
)


# ----------------------------------------------------------------------
# serve-faulty: one session on the batched data plane under faults
# ----------------------------------------------------------------------
def ledger_text(result) -> str:
    return "".join(event.to_json() + "\n" for event in result.events)


def _serve_workload(name: str, ticks: int, error_rate: float, load: float,
                    check_ticks: int) -> Workload:
    def config(seed: int, duration: int, plane: str = "batched"):
        return api.ServeConfig(
            duration_ticks=duration,
            error_rate=error_rate,
            seed=derive(seed, "serve"),
            data_plane=plane,
        )

    def setup(seed: int):
        """Session inputs, plus one build of a twin tenant set.

        ``run_serve`` builds its tenants itself (workload build, golden
        responses, backings), so that cost sits inside the timed session.
        Building an identical twin set here times the same work as
        set-up, which otherwise would be only the microseconds it takes
        to construct the tenant objects.
        """
        for twin in api.default_tenants(scale=0.5, load=load):
            twin.build()
        return config(seed, ticks), api.default_tenants(scale=0.5, load=load)

    def operate(state, observer):
        serve_config, tenants = state
        return api.run_serve(serve_config, tenants=tenants)

    def cross_check(seed: int) -> List[str]:
        """Shortened session: batched ledger repeats and equals scalar's."""
        first, repeat, scalar = (
            ledger_text(
                api.run_serve(
                    config(seed, check_ticks, plane),
                    tenants=api.default_tenants(scale=0.5, load=load),
                )
            )
            for plane in ("batched", "batched", "scalar")
        )
        failures = []
        if repeat != first:
            failures.append(f"{name}: batched ledger not reproducible")
        if scalar != first:
            failures.append(f"{name}: batched ledger != scalar ledger")
        return failures

    def output_check(result) -> List[str]:
        replay = api.replay_ledger(result.events)
        return [
            f"{name}: {tenant} replay availability != live"
            for tenant, summary in replay.tenants.items()
            if summary.availability != result.instruments.availability_of(tenant)
        ]

    return Workload(
        name=name,
        setup=setup,
        operate=operate,
        work=lambda result: result.total_requests(),
        digest=lambda result: sha(ledger_text(result)),
        cross_check=cross_check,
        output_check=output_check,
    )


SERVE_FAULTY = _serve_workload(
    "serve-faulty", ticks=600, error_rate=6.0, load=8, check_ticks=120
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (PIPELINE, SERVE_FAULTY)
}


# ----------------------------------------------------------------------
# Layer boundaries wrapped by the traced run
# ----------------------------------------------------------------------
def _count(counter: str, amount: Callable[[tuple, dict, object], int]):
    def hook(recorder, args, kwargs, result):
        recorder.add(counter, amount(args, kwargs, result))

    return hook


def _note_space(recorder, args, kwargs, result):
    recorder.spaces.append(args[0].space)


def layer_targets() -> List[tracing.Target]:
    """Every public function or method the traced run wraps, by layer."""
    from repro.cluster.availability_sim import AvailabilitySimulator
    from repro.exec import pruning
    from repro.fleet import engine as fleet_engine
    from repro.memory.address_space import AddressSpace
    from repro.serve import dataplane, multiplexer, policies
    from repro.serve.ledger import LedgerWriter
    from repro.serve.partition import ServePartition
    from repro.serve.tenants import ServeTenant

    Target = tracing.Target
    campaign = api.CharacterizationCampaign
    targets = []
    for _, app in APPS:
        targets.append(Target(app, "build", "apps.build", _note_space))
        targets.append(Target(app, "execute", "apps.query"))
    targets += [
        Target(AddressSpace, "restore", "memory.restore"),
        Target(AddressSpace, "poke", "memory.poke",
               _count("memory.poke_bytes", lambda a, k, r: len(a[2]))),
        Target(AddressSpace, "stored_bytes_equal_except", "memory.state_compare"),
        Target(campaign, "plan_cell_trials", "injection.plan"),
        Target(pruning, "record_golden_trace", "exec.pruning.golden_trace"),
        Target(campaign, "classify_plan_trials", "exec.pruning.classify"),
        Target(campaign, "run", "core.campaign"),
        Target(campaign, "measure_planned_trial", "core.campaign.execute"),
        Target(campaign, "synthesize_pruned_trial", "core.campaign.synthesize"),
        Target(multiplexer, "run_serve", "serve.multiplexer"),
        Target(dataplane, "make_data_plane", "serve.dataplane.record"),
        Target(dataplane.BatchedDataPlane, "serve_requests", "serve.dataplane.serve",
               _count("serve.dataplane.requests", lambda a, k, r: a[2])),
        Target(ServeTenant, "serve_requests", "serve.tenants.live",
               _count("serve.tenants.live_requests", lambda a, k, r: a[1])),
        Target(ServeTenant, "restart", "serve.tenants.restart"),
        Target(ServePartition, "tick_arrivals", "serve.partition.arrivals",
               _count("serve.partition.faults_routed", lambda a, k, r: len(r.routed))),
        Target(LedgerWriter, "append", "serve.ledger.append"),
        Target(api, "explore_design_space", "explore.search",
               _count("explore.designs_evaluated", lambda a, k, r: r.evaluated)),
        Target(AvailabilitySimulator, "simulate", "cluster.simulate",
               _count("cluster.server_months",
                      lambda a, k, r: k["months"] if "months" in k else a[1])),
        Target(fleet_engine, "simulate_fleet", "fleet.simulate",
               _count("fleet.server_months", lambda a, k, r: r.servers * r.months)),
        Target(fleet_engine, "analyze_fleet", "fleet.analytic"),
        Target(fleet_engine, "optimize_fleet", "fleet.optimize",
               _count("fleet.compositions_evaluated", lambda a, k, r: r.evaluated)),
    ]
    for policy in (policies.ConsumePolicy, policies.RestartRankPolicy,
                   policies.RetirePagePolicy, policies.RecoverFromDiskPolicy):
        targets.append(Target(policy, "respond", "serve.policies.respond"))
    return targets
