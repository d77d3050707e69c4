"""Outside-in layer tracing for the benchmark's traced run.

The benchmark never edits the program to trace it. For the traced run
it wraps public functions and methods of each layer from here, records
one span per wrapped call, and removes every wrapper afterwards:

* :class:`SpanRecorder` keeps spans in memory as parallel lists (name,
  start, end, parent index) plus per-name counters, and writes them out
  once the run ends.
* :func:`install` patches every module attribute and class attribute
  that refers to a wrapped object and returns an :class:`Installation`
  whose ``remove()`` restores the originals by identity.
* :func:`layer_table` folds the spans into the per-layer metrics: each
  ``*_s`` metric is *self* time (a span's duration minus the time its
  child spans cover), so the self times of one traced operation add up
  to the duration of its root span. The two ``*_total_s`` metrics are
  whole span durations, children included.

Fleet phase spans (``fleet_phase`` layout/simulate/grid/search) are not
wrapped: they come from the program's own spans through a public
:class:`repro.obs.trace.Observer` whose sink is :meth:`SpanRecorder.sink`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Root span of one traced operation (set-up plus the timed call).
ROOT = "bench.op"

#: Span name -> per-layer self-time metric.
SELF_METRICS = {
    ROOT: "bench.self_s",
    "apps.build": "apps.build_s",
    "apps.query": "apps.query_s",
    "memory.restore": "memory.restore_s",
    "memory.poke": "memory.poke_s",
    "memory.state_compare": "memory.state_compare_s",
    "injection.plan": "injection.plan_s",
    "exec.pruning.golden_trace": "exec.pruning.golden_trace_s",
    "exec.pruning.classify": "exec.pruning.classify_s",
    "core.campaign": "core.campaign.self_s",
    "core.campaign.execute": "core.campaign.execute_s",
    "core.campaign.synthesize": "core.campaign.synthesize_s",
    "serve.multiplexer": "serve.multiplexer.self_s",
    "serve.dataplane.record": "serve.dataplane.record_s",
    "serve.dataplane.serve": "serve.dataplane.serve_s",
    "serve.tenants.live": "serve.tenants.live_s",
    "serve.tenants.restart": "serve.tenants.restart_s",
    "serve.partition.arrivals": "serve.partition.arrivals_s",
    "serve.policies.respond": "serve.policies.respond_s",
    "serve.ledger.append": "serve.ledger.append_s",
    "explore.search": "explore.search_s",
    "cluster.simulate": "cluster.simulate_s",
    "fleet.simulate": "fleet.simulate_s",
    "fleet.phase.layout": "fleet.layout_s",
    "fleet.phase.simulate": "fleet.simulate_s",
    "fleet.analytic": "fleet.analytic_s",
    "fleet.optimize": "fleet.optimize_s",
    "fleet.phase.grid": "fleet.optimize_s",
    "fleet.phase.search": "fleet.optimize_s",
}

#: Spans whose whole duration (children included) is also reported:
#: golden-trace recording replays queries, so its self time alone hides
#: the recorder's cost inside ``apps.query``.
TOTAL_METRICS = {
    "exec.pruning.golden_trace": "exec.pruning.golden_trace_total_s",
    "serve.dataplane.record": "serve.dataplane.record_total_s",
}

#: Call counts reported as metrics: metric -> span name.
CALL_COUNTS = {
    "apps.queries": "apps.query",
    "memory.restores": "memory.restore",
    "core.campaign.executed": "core.campaign.execute",
    "core.campaign.synthesized": "core.campaign.synthesize",
    "memory.pokes": "memory.poke",
    "memory.state_compares": "memory.state_compare",
    "serve.dataplane.quanta": "serve.dataplane.serve",
    "serve.tenants.restarts": "serve.tenants.restart",
    "serve.policies.responses": "serve.policies.respond",
    "serve.ledger.events": "serve.ledger.append",
}

#: Counters accumulated by the wrappers' ``count`` hooks.
COUNTERS = (
    "memory.poke_bytes",
    "serve.dataplane.requests",
    "serve.tenants.live_requests",
    "serve.partition.faults_routed",
    "explore.designs_evaluated",
    "cluster.server_months",
    "fleet.server_months",
    "fleet.compositions_evaluated",
)

#: Metrics read off a workload's output, 0 where it reports none.
EXTRA_METRICS = ("fleet.analytic_in_ci",)

#: Observer span (name, key) -> recorder span name.
OBSERVER_SPANS = {
    ("fleet_phase", "layout"): "fleet.phase.layout",
    ("fleet_phase", "simulate"): "fleet.phase.simulate",
    ("fleet_phase", "grid"): "fleet.phase.grid",
    ("fleet_phase", "search"): "fleet.phase.search",
}


class SpanRecorder:
    """In-memory span store for one traced run (single-threaded)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: Address spaces of every workload built while tracing.
        self.spaces: list = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def closed(self, name: str, duration: float) -> None:
        """Record a span that already ended (an observer event)."""
        end = time.perf_counter()
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(end - duration)
        self.ends.append(end)

    def sink(self) -> "_ObserverSink":
        return _ObserverSink(self)

    def self_times(self) -> List[float]:
        """Per-span duration minus the duration of its direct children."""
        selfs = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[index] - self.starts[index]
        return selfs

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("run_id\tindex\tname\tstart\tend\tparent\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{self.run_id}\t{index}\t{name}\t{self.starts[index]!r}\t"
                    f"{self.ends[index]!r}\t{self.parents[index]}\n"
                )


class _ObserverSink:
    """Observer sink turning selected program spans into recorder spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def write(self, event) -> None:
        key = event.path.rsplit(":", 1)[-1] if ":" in event.path else None
        name = OBSERVER_SPANS.get((event.name, key))
        if name is not None and event.duration_seconds is not None:
            self._recorder.closed(name, event.duration_seconds)


def layer_table(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    table: Dict[str, float] = {metric: 0.0 for metric in SELF_METRICS.values()}
    table.update({metric: 0.0 for metric in TOTAL_METRICS.values()})
    calls = {name: 0 for name in CALL_COUNTS.values()}
    spans = zip(recorder.names, recorder.starts, recorder.ends, recorder.self_times())
    for name, start, end, own in spans:
        table[SELF_METRICS[name]] += own
        if name in TOTAL_METRICS:
            table[TOTAL_METRICS[name]] += end - start
        if name in calls:
            calls[name] += 1
    for metric, name in CALL_COUNTS.items():
        table[metric] = calls[name]
    table.update(recorder.counters)
    for metric in EXTRA_METRICS:
        table[metric] = 0
    table["core.campaign.trials"] = trials = (
        table["core.campaign.executed"] + table["core.campaign.synthesized"]
    )
    table["exec.pruning.pruned_share"] = _share(
        table["core.campaign.synthesized"], trials
    )
    requests = table["serve.dataplane.requests"]
    table["serve.dataplane.fused_share"] = _share(
        requests - table["serve.tenants.live_requests"], requests
    )
    fast = checked = copied = 0
    for space in recorder.spaces:
        stats = space.fast_path_stats()
        fast += stats["fast_accesses"]
        checked += stats["checked_accesses"]
        copied += stats["restore_bytes_copied"]
    table["memory.fast_share"] = _share(fast, fast + checked)
    table["memory.restore_bytes_copied"] = copied
    table["fleet.server_months_per_s"] = _share(
        table["fleet.server_months"], table["fleet.simulate_s"]
    )
    table["trace.wall_s"] = sum(
        end - start
        for name, start, end in zip(recorder.names, recorder.starts, recorder.ends)
        if name == ROOT
    )
    return table


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
CountHook = Callable[[SpanRecorder, tuple, dict, object], None]


@dataclass
class Target:
    """One object to wrap: ``owner.attr`` (class or module)."""

    owner: object
    attr: str
    span: str
    count: Optional[CountHook] = None


@dataclass
class Installation:
    """Every patched (holder, attr, original) triple, for removal."""

    patches: List[Tuple[object, str, object]] = field(default_factory=list)

    def remove(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()


def _wrap(function, span: str, count: Optional[CountHook], recorder: SpanRecorder):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(span)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            count(recorder, args, kwargs, result)
        return result

    traced.__perfbench_original__ = function
    return traced


def _repro_modules():
    return [
        (name, module) for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


def install(targets: List[Target], recorder: SpanRecorder) -> Installation:
    """Wrap every target wherever the program holds a reference to it.

    Module-level functions are also replaced in each loaded ``repro``
    module that imported them by name, so call sites that bound the
    name at import time see the wrapper too.
    """
    installation = Installation()
    modules = [module for _, module in _repro_modules()]
    for target in targets:
        original = target.owner.__dict__[target.attr]
        wrapped = _wrap(original, target.span, target.count, recorder)
        holders = [target.owner]
        if not isinstance(target.owner, type):
            holders += [
                module for module in modules
                if module is not target.owner
                and module.__dict__.get(target.attr) is original
            ]
        for holder in holders:
            installation.patches.append((holder, target.attr, original))
            setattr(holder, target.attr, wrapped)
    return installation


def leftover_wrappers(targets: List[Target]) -> List[str]:
    """Names of wrapped objects still reachable after removal (should be [])."""
    leftovers = []
    for target in targets:
        if hasattr(target.owner.__dict__[target.attr], "__perfbench_original__"):
            leftovers.append(f"{target.owner.__name__}.{target.attr}")
    for name, module in _repro_modules():
        for attr, value in list(module.__dict__.items()):
            if hasattr(value, "__perfbench_original__"):
                leftovers.append(f"{name}.{attr}")
    return leftovers


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "server-months/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_pct"):
        return "%"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("server_months"):
        return "server-months"
    return "count"


def self_time_sum(table: Dict[str, float]) -> float:
    """Sum of every self-time metric; equals ``trace.wall_s``."""
    return sum(table[metric] for metric in set(SELF_METRICS.values()))
