"""Asyncio request multiplexer over an HRM-partitioned memory host.

The long-lived serving loop (``repro serve``). Time is discrete: each
*tick* of virtual time runs three phases:

1. **Coordinator (single-threaded)** — the seeded arrival process draws
   a Poisson number of fault footprints, routes every erroneous byte
   through the channel interleave to its owning tenant, applies the
   channel's hardware response, and queues detected-uncorrected bytes
   into the tenant's error-response backlog. Admission control inspects
   each backlog, then the coordinator drains each backlog through the
   region's Table 2 policy in canonical tenant order — policies touch
   *host-shared* state (the retirement budget is per device, not per
   tenant), so responses are serialized here by construction.
2. **Tenant tasks (concurrent)** — one asyncio task per tenant serves
   its slice of the request trace, buffering ledger events locally.
   Tasks touch only their own tenant's state.
3. **Barrier** — buffers are merged in canonical tenant order, appended
   to the ledger, and folded into the live instruments.

Because events carry only virtual time (tick + sequence number) and the
merge order is canonical, a seeded session writes a byte-identical
ledger no matter how the event loop interleaves the tenant tasks — the
property the determinism tests drive with a shuffling scheduler shim.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Awaitable, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.apps import GraphMining, KVStoreWorkload, WebSearch
from repro.obs import (
    NULL_OBSERVER,
    SPAN_SERVE,
    MetricsRegistry,
    Observer,
    ServeInstruments,
    SloConfig,
    SloEngine,
)
from repro.obs.live import ObservabilityServer
from repro.serve.admission import AdmissionController
from repro.serve.dataplane import DATA_PLANES, UnknownDataPlaneError, make_data_plane
from repro.serve.ledger import (
    DISPOSITIONS,
    EVENT_ADMISSION,
    EVENT_FAULT,
    EVENT_POLICY,
    EVENT_REQUESTS,
    EVENT_RESPONSE,
    EVENT_SLO,
    EVENT_START,
    EVENT_STOP,
    LEDGER_VERSION,
    LedgerReplay,
    LedgerWriter,
    replay_ledger,
)
from repro.serve.partition import ServePartition
from repro.serve.policies import (
    ACTION_RESTART,
    ErrorResponsePolicy,
    FaultEvent,
    RestartRankPolicy,
    default_policy_name_for_region,
    make_policy,
)
from repro.serve.tenants import ServeCounts, ServeTenant
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "ServeConfig",
    "ServeResult",
    "StaggerHook",
    "default_tenants",
    "run_serve",
    "serve_session",
]

#: Optional hook awaited by each tenant task at the start of its tick;
#: determinism tests use it to force adversarial interleavings.
StaggerHook = Callable[[str, int], Awaitable[None]]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serve session (all virtual-time, all seeded).

    Attributes:
        duration_ticks: Ticks of virtual time to serve.
        error_rate: Expected fault *footprints* per tick (a footprint
            can corrupt up to 64 correlated bytes).
        policy: Force one Table 2 policy for every region (a name from
            ``POLICY_NAMES``), or ``None`` to pick per region by its
            recoverability class.
        seed: Root seed for the arrival process.
        responses_per_tick: Backlog items each tenant may respond to
            per tick (the software repair bandwidth).
        restart_downtime_ticks: Downtime charged by a restart response.
        admission_high_water: Backlog depth that starts load shedding.
        admission_low_water: Backlog depth that stops it.
        data_plane: Request-execution strategy: ``"scalar"`` (the
            per-request Python loop), ``"batched"`` (span-fused pristine
            runs with live fallback), or ``"auto"`` (batched when the
            memory fast path is enabled). Both planes write
            byte-identical ledgers for the same seed, so the choice is
            pure throughput and never appears in ledger attrs.
    """

    duration_ticks: int = 60
    error_rate: float = 0.5
    policy: Optional[str] = None
    seed: int = 2014
    responses_per_tick: int = 2
    restart_downtime_ticks: int = 3
    admission_high_water: int = 8
    admission_low_water: int = 2
    data_plane: str = "auto"

    def __post_init__(self) -> None:
        if self.duration_ticks < 1:
            raise ValueError(
                f"duration_ticks must be >= 1, got {self.duration_ticks}"
            )
        if self.error_rate < 0:
            raise ValueError(f"error_rate must be >= 0, got {self.error_rate}")
        if self.responses_per_tick < 1:
            raise ValueError(
                f"responses_per_tick must be >= 1, got {self.responses_per_tick}"
            )
        if self.policy is not None:
            make_policy(self.policy)  # validates the name
        if self.data_plane not in DATA_PLANES:
            raise UnknownDataPlaneError(self.data_plane)


@dataclass
class ServeResult:
    """Everything a finished session reports."""

    config: ServeConfig
    ledger_path: Optional[Path]
    events: list
    replay: LedgerReplay
    instruments: ServeInstruments
    registry: MetricsRegistry
    #: The live SLO engine after the session (burn rates, transitions).
    slo: Optional[SloEngine] = None

    def availability(self) -> Dict[str, float]:
        """Per-tenant availability as replayed from the ledger."""
        return {
            name: summary.availability
            for name, summary in self.replay.tenants.items()
        }

    def total_requests(self) -> int:
        """Requests offered across all tenants (every disposition)."""
        return sum(s.offered for s in self.replay.tenants.values())


class _TenantState:
    """Multiplexer-side state for one tenant (task-local by design)."""

    def __init__(
        self,
        tenant: ServeTenant,
        config: ServeConfig,
    ) -> None:
        self.tenant = tenant
        self.backlog: Deque[FaultEvent] = deque()
        self.down_until = 0
        self.accept = True
        self.admission = AdmissionController(
            high_water=config.admission_high_water,
            low_water=config.admission_low_water,
        )
        self._policies: Dict[str, ErrorResponsePolicy] = {}
        self._forced = config.policy
        self._restart_downtime = config.restart_downtime_ticks

    def policy_for(self, region_name: str) -> ErrorResponsePolicy:
        policy = self._policies.get(region_name)
        if policy is None:
            if self._forced is not None:
                name = self._forced
            else:
                region = self.tenant.space.region_named(region_name)
                name = default_policy_name_for_region(region)
            if name == ACTION_RESTART:
                policy = RestartRankPolicy(self._restart_downtime)
            else:
                policy = make_policy(name)
            self._policies[region_name] = policy
        return policy


def default_tenants(scale: float = 0.5, load: float = 1.0) -> List[ServeTenant]:
    """The three-workload tenancy of the paper's evaluation, scaled.

    Request rates reflect each workload's query weight: graphmining jobs
    are whole analytics passes (one per tick), websearch queries are
    mid-weight, key-value operations are cheap and frequent. ``load``
    multiplies every tenant's per-tick request quantum without touching
    workload sizes — throughput benchmarks raise it so serving work,
    not per-tick coordination, dominates the measurement.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    return [
        ServeTenant(
            "graphmining",
            GraphMining(vertex_count=max(60, int(300 * scale)), edges_per_vertex=8),
            requests_per_tick=max(1, int(1 * load)),
        ),
        ServeTenant(
            "kvstore",
            KVStoreWorkload(
                key_count=max(100, int(1000 * scale)),
                op_count=max(60, int(300 * scale)),
            ),
            requests_per_tick=max(1, int(8 * load)),
        ),
        ServeTenant(
            "websearch",
            WebSearch(
                vocabulary_size=max(120, int(600 * scale)),
                doc_count=max(80, int(400 * scale)),
                query_count=max(40, int(200 * scale)),
            ),
            requests_per_tick=max(1, int(4 * load)),
        ),
    ]


def _drain_backlog(
    state: _TenantState,
    tick: int,
    config: ServeConfig,
) -> List[Tuple[str, dict]]:
    """Respond to queued faults within this tick's repair budget.

    Runs on the coordinator, one tenant at a time in canonical order:
    retire-page and recover-from-disk act on host-shared state (the
    device's retirement budget), so response order must not depend on
    event-loop scheduling.
    """
    buffer: List[Tuple[str, dict]] = []
    if tick < state.down_until:
        return buffer
    tenant = state.tenant
    budget = config.responses_per_tick
    while budget > 0 and state.backlog:
        fault = state.backlog.popleft()
        policy = state.policy_for(fault.region)
        buffer.append(
            (
                EVENT_POLICY,
                {
                    "policy": policy.name,
                    "region": fault.region,
                    "addr": fault.addr,
                    "kind": fault.kind.value,
                    "mode": fault.mode,
                },
            )
        )
        result = policy.respond(tenant, fault)
        buffer.append((EVENT_RESPONSE, result.to_attrs()))
        budget -= 1
        if result.downtime_ticks:
            # Restart repaired everything; queued work is moot.
            state.down_until = tick + result.downtime_ticks
            state.backlog.clear()
            break
    return buffer


def _build_snapshot(
    tick: int,
    config: ServeConfig,
    tenants: List[ServeTenant],
    states: Dict[str, "_TenantState"],
    partition: ServePartition,
    instruments: ServeInstruments,
    slo_engine: "SloEngine",
    req_totals: Dict[str, Dict[str, int]],
    resp_totals: Dict[str, Dict[str, int]],
    fault_totals: Dict[str, Dict[str, int]],
    recent_actions: "Deque[dict]",
    complete: bool,
) -> dict:
    """Build the immutable ``/status`` payload for one tick barrier.

    Availability uses the same integers the ledger replay recomputes
    (``ok / offered`` via the instruments), so a scraped ``/status``
    agrees exactly with ``replay_ledger`` over the streamed ledger — the
    consistency CI asserts.
    """
    snapshot_tenants: Dict[str, dict] = {}
    for tenant in tenants:
        name = tenant.name
        state = states[name]
        snapshot_tenants[name] = {
            "availability": instruments.availability_of(name),
            "requests": dict(req_totals[name]),
            "offered": sum(req_totals[name].values()),
            "backlog": len(state.backlog),
            "shedding": not state.accept,
            "down": tick < state.down_until,
            "epochs": tenant.epochs,
            "resident_faults": tenant.resident_fault_count,
            "responses": dict(resp_totals[name]),
            "faults": dict(fault_totals[name]),
            "latency": instruments.latency_quantiles(name),
            "availability_spark": slo_engine.availability_history(name),
            "slo_firing": slo_engine.firing(name),
        }
    retirement = partition.retirement
    return {
        "tick": tick,
        "duration_ticks": config.duration_ticks,
        "complete": complete,
        "seed": config.seed,
        "error_rate": config.error_rate,
        "policy": config.policy or "auto",
        "retirement": {
            "retired_pages": len(retirement.device.retired_pages),
            "max_retired_pages": retirement.max_retired_pages,
            "retired_capacity_fraction": retirement.retired_capacity_fraction,
        },
        "tenants": snapshot_tenants,
        "recent_actions": list(recent_actions),
    }


async def _tenant_tick(
    state: _TenantState,
    tick: int,
    config: ServeConfig,
    stagger: Optional[StaggerHook],
    plane,
) -> List[Tuple[str, dict]]:
    """One tenant's request serving for one tick; returns its events."""
    if stagger is not None:
        await stagger(state.tenant.name, tick)
    tenant = state.tenant
    buffer: List[Tuple[str, dict]] = []

    if tick < state.down_until:
        counts = ServeCounts()
        counts["down"] = tenant.requests_per_tick
    elif not state.accept:
        counts = ServeCounts()
        counts["shed"] = tenant.requests_per_tick
    else:
        counts = plane.serve_requests(tenant, tenant.requests_per_tick)
        if tenant.needs_restart:
            # A request died fatally: the process is gone, and the only
            # possible response is a restart, whatever the policy says.
            cleared = tenant.restart(config.restart_downtime_ticks)
            state.down_until = tick + config.restart_downtime_ticks
            state.backlog.clear()
            buffer.append(
                (
                    EVENT_RESPONSE,
                    {
                        "action": ACTION_RESTART,
                        "faults_cleared": cleared,
                        "downtime_ticks": config.restart_downtime_ticks,
                        "note": "fatal request error",
                    },
                )
            )
    buffer.append((EVENT_REQUESTS, dict(counts)))
    return buffer


async def serve_session(
    config: ServeConfig,
    tenants: Optional[List[ServeTenant]] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    observer: Observer = NULL_OBSERVER,
    registry: Optional[MetricsRegistry] = None,
    stagger: Optional[StaggerHook] = None,
    scale: float = 0.5,
    slo_config: Optional[SloConfig] = None,
    server: Optional[ObservabilityServer] = None,
) -> ServeResult:
    """Run one serve session on the current event loop.

    ``server`` attaches a live telemetry plane: the session starts it
    (unless the caller already did, to learn the port), publishes a
    ``/status`` snapshot plus fresh ledger lines at every tick barrier,
    and marks the ledger complete at stop. The server is read-only over
    session state, so hosting it never perturbs the seeded ledger.
    """
    if tenants is None:
        tenants = default_tenants(scale)
    for tenant in tenants:
        tenant.build()
    tenants = sorted(tenants, key=lambda t: t.name)
    partition = ServePartition(tenants)
    # Build the data plane while every tenant is pristine at its
    # checkpoint — the batched plane records its golden traces here.
    plane = make_data_plane(config.data_plane, tenants)
    registry = registry if registry is not None else MetricsRegistry()
    instruments = ServeInstruments(registry)
    states = {tenant.name: _TenantState(tenant, config) for tenant in tenants}
    rng = SeedSequenceFactory(config.seed).stream("serve/arrivals")

    slo_engine = SloEngine(slo_config)
    if server is not None:
        if not server.started:
            await server.start()
        server.slo = slo_engine
        for tenant in tenants:
            tenant.latency_sink = partial(
                instruments.record_latency, tenant.name
            )
            tenant.latency_batch_sink = partial(
                instruments.record_latency_many, tenant.name
            )

    # Cumulative views backing the /status snapshot (same integers the
    # ledger replay recomputes, folded as events are appended).
    req_totals: Dict[str, Dict[str, int]] = {
        t.name: {name: 0 for name in DISPOSITIONS} for t in tenants
    }
    resp_totals: Dict[str, Dict[str, int]] = {t.name: {} for t in tenants}
    fault_totals: Dict[str, Dict[str, int]] = {t.name: {} for t in tenants}
    recent_actions: Deque[dict] = deque(maxlen=12)
    published_seq = 0

    def note_response(tick: int, tenant: str, attrs: dict) -> None:
        """Fold one appended response event into the instruments and
        the /status views."""
        action = str(attrs.get("action", "?"))
        instruments.record_response(
            tenant, action, pages_retired=len(attrs.get("pages_retired", ()))
        )
        totals = resp_totals[tenant]
        totals[action] = totals.get(action, 0) + 1
        recent_actions.append({"tick": tick, "tenant": tenant, "action": action})

    writer = LedgerWriter(ledger_path)
    footprints = unmapped = retired = 0
    with writer, observer.span(
        SPAN_SERVE, attrs={"tenants": [t.name for t in tenants]}
    ):
        writer.append(
            -1,
            EVENT_START,
            attrs={
                "version": LEDGER_VERSION,
                "seed": config.seed,
                "duration_ticks": config.duration_ticks,
                "error_rate": config.error_rate,
                "policy": config.policy or "auto",
                "responses_per_tick": config.responses_per_tick,
                "restart_downtime_ticks": config.restart_downtime_ticks,
                "admission": {
                    "high_water": config.admission_high_water,
                    "low_water": config.admission_low_water,
                },
                "tenants": [t.name for t in tenants],
                "requests_per_tick": {
                    t.name: t.requests_per_tick for t in tenants
                },
                "placement": partition.placement_summary(),
                "slo": slo_engine.config.to_dict(),
            },
        )
        for tick in range(config.duration_ticks):
            # Phase 1: coordinator — arrivals, routing, admission.
            batch = partition.tick_arrivals(rng, config.error_rate)
            footprints += batch.footprints
            unmapped += batch.unmapped_bytes
            retired += batch.retired_bytes
            for routed in batch.routed:
                writer.append(
                    tick, EVENT_FAULT, tenant=routed.tenant,
                    attrs=routed.to_attrs(),
                )
                instruments.record_fault(routed.tenant, routed.kind.value)
                kind_name = routed.kind.value
                totals = fault_totals[routed.tenant]
                totals[kind_name] = totals.get(kind_name, 0) + 1
                states[routed.tenant].backlog.extend(routed.detected)
            for tenant in tenants:
                state = states[tenant.name]
                decision = state.admission.check(len(state.backlog))
                state.accept = decision.accept
                if decision.changed:
                    writer.append(
                        tick, EVENT_ADMISSION, tenant=tenant.name,
                        attrs={
                            "shedding": not decision.accept,
                            "backlog": decision.backlog,
                        },
                    )
                instruments.set_shedding(tenant.name, not decision.accept)

            # Phase 1b: drain error-response backlogs in canonical
            # order — policies mutate host-shared retirement state.
            for tenant in tenants:
                for kind, attrs in _drain_backlog(
                    states[tenant.name], tick, config
                ):
                    writer.append(tick, kind, tenant=tenant.name, attrs=attrs)
                    if kind == EVENT_RESPONSE:
                        note_response(tick, tenant.name, attrs)

            # Phase 2: concurrent tenant tasks (task-local state only).
            buffers = await asyncio.gather(
                *(
                    _tenant_tick(
                        states[tenant.name], tick, config, stagger, plane
                    )
                    for tenant in tenants
                )
            )

            # Phase 3: barrier — merge in canonical tenant order. The
            # SLO engine observes each tenant's request counts right
            # after they are appended, so its alert transitions land in
            # the ledger at exactly the position the offline replay
            # (repro.obs.slo.slo_from_ledger) recomputes them.
            for tenant, buffer in zip(tenants, buffers):
                for kind, attrs in buffer:
                    writer.append(tick, kind, tenant=tenant.name, attrs=attrs)
                    if kind == EVENT_REQUESTS:
                        instruments.record_requests(tenant.name, attrs)
                        totals = req_totals[tenant.name]
                        for name, count in attrs.items():
                            totals[name] = totals.get(name, 0) + int(count)
                        for alert in slo_engine.observe(
                            tenant.name, tick, attrs
                        ):
                            writer.append(
                                tick, EVENT_SLO, tenant=tenant.name,
                                attrs=alert,
                            )
                    elif kind == EVENT_RESPONSE:
                        note_response(tick, tenant.name, attrs)
                instruments.set_backlog(
                    tenant.name, len(states[tenant.name].backlog)
                )

            if server is not None:
                new_lines = [
                    event.to_json()
                    for event in writer.events[published_seq:]
                ]
                published_seq = len(writer.events)
                server.mark_ready()
                await server.publish(
                    snapshot=_build_snapshot(
                        tick, config, tenants, states, partition,
                        instruments, slo_engine, req_totals, resp_totals,
                        fault_totals, recent_actions, complete=False,
                    ),
                    ledger_lines=new_lines,
                )
        writer.append(
            config.duration_ticks,
            EVENT_STOP,
            attrs={
                "availability": {
                    t.name: instruments.availability_of(t.name) for t in tenants
                },
                "footprints": footprints,
                "unmapped_bytes": unmapped,
                "retired_page_bytes": retired,
                "epochs": {t.name: t.epochs for t in tenants},
                "resident_faults": {
                    t.name: t.resident_fault_count for t in tenants
                },
                "retired_capacity_fraction": (
                    partition.retirement.retired_capacity_fraction
                ),
            },
        )
        if server is not None:
            await server.publish(
                snapshot=_build_snapshot(
                    config.duration_ticks, config, tenants, states,
                    partition, instruments, slo_engine, req_totals,
                    resp_totals, fault_totals, recent_actions,
                    complete=True,
                ),
                ledger_lines=[
                    event.to_json()
                    for event in writer.events[published_seq:]
                ],
            )
            await server.mark_complete()
    replay = replay_ledger(writer.events)
    return ServeResult(
        config=config,
        ledger_path=writer.path,
        events=writer.events,
        replay=replay,
        instruments=instruments,
        registry=registry,
        slo=slo_engine,
    )


def run_serve(
    config: ServeConfig,
    tenants: Optional[List[ServeTenant]] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    observer: Observer = NULL_OBSERVER,
    registry: Optional[MetricsRegistry] = None,
    stagger: Optional[StaggerHook] = None,
    scale: float = 0.5,
    slo_config: Optional[SloConfig] = None,
) -> ServeResult:
    """Run one serve session to completion on a fresh event loop."""
    return asyncio.run(
        serve_session(
            config,
            tenants=tenants,
            ledger_path=ledger_path,
            observer=observer,
            registry=registry,
            stagger=stagger,
            scale=scale,
            slo_config=slo_config,
        )
    )
