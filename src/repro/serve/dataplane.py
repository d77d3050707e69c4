"""Serve data planes: scalar request loop vs span-fused batched execution.

The scalar plane is the original `ServeTenant.serve_requests` loop: one
Python-level `execute` per request, every access walking the memory
model. The batched plane exploits the same insight as the offline
fast path (delaying error reporting, arXiv:1810.06472): a request whose
memory footprint is *provably pristine* behaves byte-for-byte like the
golden replay did at the same trace cursor. So the batched plane records
one golden replay per tenant at construction, inside the address
space's access recording — the same recorder the trial-pruning golden
trace uses (:meth:`~repro.memory.address_space.AddressSpace.recording`).
It keeps per-query access-page footprints, per-query written-page
images, cumulative clock/counter prefix sums and Python-side progress
states. At serve time it *fuses* request runs: skip execution, count
every request ``ok``, splice the recorded page images into memory,
charge the exact recorded clock/counter deltas, and restore the
recorded progress state.

Admission to a fused run requires proof, not hope:

1. Python-side progress equals the golden replay's recorded state at
   this cursor (memory comparison cannot see a heap ``free``). Checked
   only after live execution or a checkpoint restore could have
   diverged it — fused runs restore the recorded state exactly.
2. Stored bytes equal the rolling golden image at this cursor at every
   address outside :meth:`~AddressSpace.tracked_addresses` — one
   whole-space NumPy comparison, memoized on the
   ``(generation, cursor, region_versions, tracked)`` key so
   steady-state ticks skip the memcmp entirely. Only a tracked soft
   flip legitimately corrupts a stored byte (overlays, watchpoints,
   and disturbance aggressors never mutate storage), so any other
   mismatch is real divergence and denies fusion.
3. The run extends over the longest prefix of queries whose *recorded
   golden access pages* avoid every blocked page: pages holding a
   tracked flip, watchpoint, disturbance aggressor, or a stuck-at
   overlay byte that is non-silent or on a golden-written page. Such a
   query's reads return golden bytes (per check 2), so it takes the
   golden control flow, issues the golden writes, and produces the
   golden response with the golden clock/counter accounting.

Requests whose spans intersect resident faults or diverged state fall
back to the live scalar loop for the remainder of the quantum,
preserving fatal-abort semantics and ``needs_restart`` escalation
exactly. Fused runs cannot diverge from the scalar plane: a fused
request is only admitted in a state where scalar execution would
provably produce the golden response, advance the same cursor, and wrap
the same epoch — which is why seeded sessions write byte-identical
ledgers under either plane.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.fastpath import fastpath_enabled
from repro.memory.regions import PAGE_SIZE
from repro.serve.tenants import ServeCounts, ServeTenant

__all__ = [
    "DATA_PLANES",
    "UnknownDataPlaneError",
    "make_data_plane",
    "ScalarDataPlane",
    "BatchedDataPlane",
    "PristineTrace",
    "record_pristine_trace",
]

#: Valid ``--data-plane`` names. ``auto`` resolves to ``batched`` when
#: the process-wide memory fast path is enabled, else ``scalar``.
DATA_PLANES: Tuple[str, ...] = ("auto", "batched", "scalar")


class UnknownDataPlaneError(ValueError):
    """Raised for a data-plane name outside :data:`DATA_PLANES`."""

    def __init__(self, name: object) -> None:
        message = (
            f"unknown serve data plane {name!r}; "
            f"valid planes: {', '.join(DATA_PLANES)}"
        )
        close = difflib.get_close_matches(
            str(name), DATA_PLANES, n=1, cutoff=0.5
        )
        if close:
            message += f" (did you mean {close[0]!r}?)"
        super().__init__(message)
        self.name = name


def make_data_plane(name: str, tenants: Sequence[ServeTenant]):
    """Build the requested data plane over ``tenants``.

    Tenants must be built and pristine (at their checkpoint, as
    ``serve_session`` leaves them before the first tick) — the batched
    plane records its golden traces here.
    """
    if name not in DATA_PLANES:
        raise UnknownDataPlaneError(name)
    if name == "auto":
        name = "batched" if fastpath_enabled() else "scalar"
    if name == "batched":
        return BatchedDataPlane(tenants)
    return ScalarDataPlane(tenants)


class ScalarDataPlane:
    """The original per-request Python loop, unchanged."""

    name = "scalar"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        del tenants  # no per-tenant state; symmetric constructor

    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Delegate straight to the tenant's scalar loop."""
        return tenant.serve_requests(count)


@dataclass
class PristineTrace:
    """One tenant's instrumented golden replay.

    ``clock``/``counters`` are cumulative prefix arrays with a leading
    zero row, so the exact debt of serving queries ``[i, j)`` is
    ``clock[j] - clock[i]`` (and likewise per counter column).
    ``pages[i]`` holds the ``(addr, bytes)`` page runs query ``i``
    wrote, with their contents *after* the query — splicing them in
    order reproduces golden memory at any cursor. ``progress[i]`` is
    the workload's Python-side state before query ``i``.
    ``pages_flat``/``page_offsets`` form a CSR map of each query's
    *access* footprint: query ``i`` touched pages
    ``pages_flat[page_offsets[i]:page_offsets[i + 1]]`` (reads and
    writes, captured by the address space's access recorder).
    """

    query_count: int
    clock: np.ndarray
    counters: np.ndarray
    pages: List[List[Tuple[int, bytes]]]
    progress: List[object]
    pages_flat: np.ndarray
    page_offsets: np.ndarray
    written_pages: frozenset


def _counter_row(space) -> np.ndarray:
    """Flatten per-region access counters into one comparable row."""
    stats = space.access_stats()
    row: List[int] = []
    for region in space.regions:
        entry = stats[region.name]
        row.extend(
            (
                entry["load_ops"],
                entry["load_bytes"],
                entry["store_ops"],
                entry["store_bytes"],
            )
        )
    return np.asarray(row, dtype=np.int64)


def _page_runs(space, pages: List[int]) -> List[Tuple[int, bytes]]:
    """Snapshot contiguous written-page runs as ``(addr, bytes)`` pairs."""
    runs: List[Tuple[int, bytes]] = []
    if not pages:
        return runs
    start = prev = pages[0]
    for page in pages[1:]:
        if page != prev + 1:
            addr = start * PAGE_SIZE
            end = min((prev + 1) * PAGE_SIZE, space.size)
            runs.append((addr, space.peek(addr, end - addr)))
            start = page
        prev = page
    addr = start * PAGE_SIZE
    end = min((prev + 1) * PAGE_SIZE, space.size)
    runs.append((addr, space.peek(addr, end - addr)))
    return runs


def record_pristine_trace(tenant: ServeTenant) -> Optional[PristineTrace]:
    """Replay the golden trace once, recording everything fusion needs.

    Returns ``None`` when the tenant's space is pinned to the oracle
    path — that tenant simply serves scalar under the batched plane.
    The replay runs inside the space's access recording (fused driver
    reads disabled, every access observed), which after each query
    yields that query's read/write page footprint and the pages it
    wrote, whose images are snapshotted. The tenant must be pristine at
    its checkpoint; it is returned to that state, and the recording
    leaves its clock and counters untouched.
    """
    workload = tenant.workload
    space = workload.space
    if not space.fast_path_enabled:
        return None
    query_count = workload.query_count
    base_time = space.time
    base_row = _counter_row(space)
    clock = np.zeros(query_count + 1, dtype=np.int64)
    counters = np.zeros((query_count + 1, base_row.size), dtype=np.int64)
    pages: List[List[Tuple[int, bytes]]] = []
    progress: List[object] = [workload.progress_state()]
    flat: List[int] = []
    offsets = np.zeros(query_count + 1, dtype=np.int64)
    written: set = set()
    with space.recording() as recorder:
        for index in range(query_count):
            workload.execute(index)
            touched, stored = recorder.take_pages()
            flat.extend(touched)
            offsets[index + 1] = len(flat)
            pages.append(_page_runs(space, stored))
            written.update(stored)
            clock[index + 1] = space.time - base_time
            counters[index + 1] = _counter_row(space) - base_row
            progress.append(workload.progress_state())
    workload.reset()
    return PristineTrace(
        query_count=query_count,
        clock=clock,
        counters=counters,
        pages=pages,
        progress=progress,
        pages_flat=np.asarray(flat, dtype=np.int64),
        page_offsets=offsets,
        written_pages=frozenset(written),
    )


class BatchedDataPlane:
    """Span-fused request execution with live scalar fallback."""

    name = "batched"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self._traces: Dict[str, Optional[PristineTrace]] = {}
        self._images: Dict[str, bytearray] = {}
        self._image_cursor: Dict[str, int] = {}
        self._generation: Dict[str, int] = {}
        self._verified: Dict[str, Optional[tuple]] = {}
        self._progress_dirty: Dict[str, bool] = {}
        self._blocked_cache: Dict[str, Tuple[tuple, Optional[np.ndarray]]] = {}
        for tenant in tenants:
            trace = record_pristine_trace(tenant)
            self._traces[tenant.name] = trace
            if trace is not None:
                image = tenant.workload.checkpoint_image
                assert image is not None  # build() checkpoints first
                self._images[tenant.name] = bytearray(image)
                self._image_cursor[tenant.name] = 0
                self._generation[tenant.name] = tenant.generation
                self._verified[tenant.name] = None
                self._progress_dirty[tenant.name] = True

    # ------------------------------------------------------------------
    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Serve a quantum: fused pristine runs, then scalar remainder."""
        trace = self._traces.get(tenant.name)
        if trace is None or count <= 0:
            return tenant.serve_requests(count)
        counts = ServeCounts()
        remaining = count
        fused = 0
        want_latency = (
            tenant.latency_batch_sink is not None
            or tenant.latency_sink is not None
        )
        started = time.perf_counter() if want_latency else 0.0
        while remaining:
            if tenant.cursor >= trace.query_count:
                tenant.wrap_epoch()
            if not self._state_ok(tenant, trace):
                break
            run = self._run_length(tenant, trace, remaining)
            if run == 0:
                break
            self._apply_run(tenant, trace, tenant.cursor, run)
            counts["ok"] += run
            fused += run
            remaining -= run
        if fused and want_latency:
            elapsed = time.perf_counter() - started
            per_request = [elapsed / fused] * fused
            if tenant.latency_batch_sink is not None:
                tenant.latency_batch_sink(per_request)
            elif tenant.latency_sink is not None:
                for seconds in per_request:
                    tenant.latency_sink(seconds)
        if remaining:
            live = tenant.serve_requests(remaining)
            self._progress_dirty[tenant.name] = True
            for key, value in live.items():
                counts[key] += value
        return counts

    # ------------------------------------------------------------------
    def _sync(self, tenant: ServeTenant, trace: PristineTrace) -> None:
        """Roll the golden image forward to the tenant's cursor.

        A generation bump (restart or epoch wrap) means memory was
        restored to the checkpoint, so the image restarts from the
        checkpoint bytes; otherwise the cursor only moved forward and
        the recorded page runs of the skipped queries splice the image
        up to date lazily.
        """
        name = tenant.name
        image = self._images[name]
        if self._generation[name] != tenant.generation:
            checkpoint = tenant.workload.checkpoint_image
            assert checkpoint is not None
            image[:] = checkpoint
            self._image_cursor[name] = 0
            self._generation[name] = tenant.generation
            self._verified[name] = None
            self._progress_dirty[name] = True
        position = self._image_cursor[name]
        cursor = tenant.cursor
        while position < cursor:
            for addr, data in trace.pages[position]:
                image[addr : addr + len(data)] = data
            position += 1
        self._image_cursor[name] = position

    def _state_ok(self, tenant: ServeTenant, trace: PristineTrace) -> bool:
        """Progress + masked whole-space checks; memoizes the memcmp.

        The memo key includes the guarded-address fingerprint: policies
        can clear a tracked fault without touching stored bytes (a
        retired page's soft-flipped bytes stay corrupted), which
        shrinks the excused set and must force a re-comparison.
        """
        space = tenant.workload.space
        name = tenant.name
        self._sync(tenant, trace)
        if self._progress_dirty[name]:
            if tenant.workload.progress_state() != trace.progress[tenant.cursor]:
                return False
            self._progress_dirty[name] = False
        excused = space.tracked_addresses()
        key = (tenant.generation, tenant.cursor, space.region_versions(), excused)
        if self._verified[name] == key:
            return True
        if not space.stored_bytes_equal_except(self._images[name], excused):
            return False
        self._verified[name] = key
        return True

    def _blocked(
        self, tenant: ServeTenant, trace: PristineTrace
    ) -> Optional[np.ndarray]:
        """Per-query bool: does the golden footprint hit a blocked page?

        A page is blocked when it contains a tracked soft flip, a
        watchpoint, or a disturbance aggressor, or a stuck-at overlay
        byte that is either non-silent (reads observe the fault) or on
        a page the golden trace ever writes (a store could change the
        stored byte and wake a currently-silent fault mid-run).
        Silent overlays on never-written pages fuse straight through:
        reads there observe plain golden memory. ``None`` when nothing
        is blocked. Cached per tenant on the guard fingerprint — fault
        arrivals and repairs are rare, so steady-state quanta reuse the
        vectorized footprint intersection.
        """
        space = tenant.workload.space
        soft = space.soft_guard_addresses()
        silence = space.hard_fault_silence()
        if not soft and not silence:
            return None
        cached = self._blocked_cache.get(tenant.name)
        if cached is not None and cached[0] == (soft, silence):
            return cached[1]
        blocked_pages = {addr // PAGE_SIZE for addr in soft}
        for addr, silent in silence:
            page = addr // PAGE_SIZE
            if not silent or page in trace.written_pages:
                blocked_pages.add(page)
        if not blocked_pages:
            blocked: Optional[np.ndarray] = None
        else:
            guard_pages = np.asarray(sorted(blocked_pages), dtype=np.int64)
            hit = np.isin(trace.pages_flat, guard_pages)
            cumulative = np.concatenate(([0], np.cumsum(hit, dtype=np.int64)))
            blocked = (
                cumulative[trace.page_offsets[1:]]
                - cumulative[trace.page_offsets[:-1]]
            ) > 0
        self._blocked_cache[tenant.name] = ((soft, silence), blocked)
        return blocked

    def _run_length(
        self, tenant: ServeTenant, trace: PristineTrace, remaining: int
    ) -> int:
        """Longest fusable prefix from the cursor, capped at the quantum."""
        limit = min(remaining, trace.query_count - tenant.cursor)
        blocked = self._blocked(tenant, trace)
        if blocked is None:
            return limit
        cursor = tenant.cursor
        hits = np.flatnonzero(blocked[cursor : cursor + limit])
        return limit if hits.size == 0 else int(hits[0])

    def _apply_run(
        self, tenant: ServeTenant, trace: PristineTrace, start: int, run: int
    ) -> None:
        """Serve queries ``[start, start + run)`` without executing them."""
        space = tenant.workload.space
        name = tenant.name
        image = self._images[name]
        end = start + run
        for index in range(start, end):
            for addr, data in trace.pages[index]:
                space.poke(addr, data)
                image[addr : addr + len(data)] = data
        self._image_cursor[name] = end
        time_units = int(trace.clock[end] - trace.clock[start])
        deltas = (trace.counters[end] - trace.counters[start]).reshape(-1, 4)
        space.charge_recorded(time_units, deltas.tolist())
        tenant.workload.restore_progress(trace.progress[end])
        tenant.fused_advance(run)
        self._verified[name] = (
            tenant.generation,
            end,
            space.region_versions(),
            space.tracked_addresses(),
        )
