"""Parallel campaign execution over a multiprocessing worker pool.

The paper ran its characterization on 40+ servers for two months
because the Figure 2 loop is embarrassingly parallel across
(region × error type × trial) cells. This module reproduces that
scale-out in-process: :class:`ParallelCampaignRunner` shards the
campaign grid (:func:`repro.exec.cells.plan_shards`), executes the
shards on a process pool, and merges the per-trial results
back into a :class:`~repro.core.vulnerability.VulnerabilityProfile` in
canonical campaign order.

Determinism guarantee
---------------------
Every trial draws from its own seed stream, derived from the campaign
root seed and the trial's (app, cell, error type, trial index) identity
— never from pool scheduling. Merging replays trial results in
canonical (cell, trial index) order, so the profile returned for *any*
worker count — including the serial path — is bit-identical:
``profile.to_dict()`` serializes to the same JSON bytes.

Worker bootstrap
----------------
On platforms with the ``fork`` start method (Linux), workers inherit
the parent's fully prepared campaign — built workload, checkpoint, and
golden responses — at zero marshalling cost. Elsewhere (``spawn``),
each worker rebuilds the campaign from a picklable
``workload_factory``; the build is deterministic, so the inherited and
rebuilt campaigns measure identical trials.

Failures inside a worker (a bad region name, a broken workload factory)
propagate: the pool is torn down and the original exception is raised
in the caller. A worker process that dies outright (killed, crashed,
``os._exit``) raises :class:`WorkerLostError` naming the shard(s) it
took down, instead of leaving the caller waiting for a result that
will never come.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import (
    CampaignCell,
    CellShard,
    plan_shards,
    plan_shards_indexed,
)
from repro.obs.events import SPAN_CELL, SPAN_TRIAL, TraceEvent
from repro.obs.progress import ProgressClock, emit_progress
from repro.obs.sinks import EventBuffer
from repro.obs.trace import NULL_OBSERVER, Observer

logger = logging.getLogger("repro.parallel")

#: Campaign executing shards in this worker process. Populated either by
#: fork inheritance (the parent sets it just before creating the pool)
#: or by :func:`_worker_initializer` under the spawn start method.
_WORKER_CAMPAIGN = None

#: Exception raised while bootstrapping this worker's campaign. Kept
#: instead of raising from the initializer itself: an initializer that
#: raises breaks the whole pool without the original error, so the
#: error is surfaced from the first shard task instead.
_WORKER_BOOTSTRAP_ERROR: Optional[BaseException] = None

#: Shared per-shard flags: a worker sets ``flags[i]`` when it starts
#: shard ``i``, so the parent can name the shards a dead worker took
#: down. Inherited under fork, passed to the initializer under spawn.
_WORKER_STARTED = None

#: Whether workers should capture trace events for relay to the parent.
#: Set by fork inheritance (the parent assigns it just before creating
#: the pool) or by :func:`_worker_initializer` under spawn.
_WORKER_TRACE = False


class WorkerLostError(RuntimeError):
    """A pool worker process died before returning its shard.

    ``shards`` holds the shards that were running when the pool broke
    (every unfinished shard if none had started).
    """

    def __init__(self, shards: Sequence[CellShard]) -> None:
        self.shards = tuple(shards)
        lost = ", ".join(
            f"{shard.cell.name}|{shard.cell.spec.label} "
            f"trials {list(shard.trial_indices())}"
            for shard in self.shards
        )
        super().__init__(f"a campaign worker process died; lost shard(s): {lost}")


@dataclass(frozen=True)
class TrialResult:
    """Picklable result of one trial, tagged with its grid position."""

    cell_index: int
    trial_index: int
    anchor_addr: int
    outcome: str
    responded: int
    incorrect: int
    failed: int
    effect_delay_minutes: Optional[float]


@dataclass(frozen=True)
class ShardResult:
    """All trial results of one shard plus worker timing and telemetry.

    ``events`` carries the worker's captured trace events back to the
    parent through the result pipe (empty when tracing is disabled).
    ``memory_stats`` is the shard's delta of the worker space's
    ``fast_path_stats()`` counters, folded into the parent's metrics
    registry at merge time.
    """

    cell_index: int
    trial_start: int
    cell_name: str
    error_label: str
    results: Tuple[TrialResult, ...]
    worker_pid: int
    seconds: float
    events: Tuple[TraceEvent, ...] = field(default=())
    memory_stats: Dict[str, int] = field(default_factory=dict)


def _worker_initializer(
    workload_factory, config, trace_enabled=False, backend="scalar",
    region_codecs=None, started=None,
) -> None:
    """Build and prepare a fresh campaign in a spawned worker.

    Never raises — see :data:`_WORKER_BOOTSTRAP_ERROR`.
    """
    global _WORKER_CAMPAIGN, _WORKER_BOOTSTRAP_ERROR, _WORKER_TRACE
    global _WORKER_STARTED
    from repro.core.campaign import CharacterizationCampaign

    _WORKER_TRACE = trace_enabled
    _WORKER_STARTED = started
    try:
        campaign = CharacterizationCampaign(
            workload_factory(), config=config, backend=backend,
            region_codecs=region_codecs,
        )
        campaign.prepare()
    except BaseException as exc:  # surfaced by _execute_shard
        _WORKER_BOOTSTRAP_ERROR = exc
        _WORKER_CAMPAIGN = None
    else:
        _WORKER_CAMPAIGN = campaign


def run_shard_on(
    campaign, shard: CellShard, capture_events: bool = False
) -> ShardResult:
    """Execute one shard's trials on a prepared campaign.

    With ``capture_events`` the campaign's observer is swapped for a
    buffering one rooted at the shard's cell path, so trial spans are
    captured in memory (never written to the parent's sinks from a
    worker process) and returned inside the :class:`ShardResult` for
    canonical-order replay by the parent.
    """
    plan = None
    if getattr(campaign, "backend", "scalar") in ("vectorized", "pruned"):
        # Pre-draw the whole shard's injections before the trial loop
        # (positions identical to what the scalar loop would draw). The
        # pruned backend dispatches only undecidable trials to workers,
        # so shards execute their plan unconditionally here.
        plan = campaign.plan_cell_trials(shard.cell, list(shard.trial_indices()))
    buffer: Optional[EventBuffer] = None
    original_observer = campaign.observer
    if capture_events:
        buffer = EventBuffer()
        cell_key = f"{shard.cell.name}|{shard.cell.spec.label}"
        campaign.observer = Observer(
            sinks=[buffer], root_path=f"campaign/cell:{cell_key}"
        )
    stats_before = campaign.workload.space.fast_path_stats()
    start = time.perf_counter()
    results = []
    try:
        for local, trial_index in enumerate(shard.trial_indices()):
            if plan is not None:
                trial = campaign.measure_planned_trial(
                    shard.cell, trial_index, plan.flips_for(local)
                )
            else:
                trial = campaign.measure_trial(shard.cell, trial_index)
            results.append(
                TrialResult(
                    cell_index=shard.cell_index,
                    trial_index=trial_index,
                    anchor_addr=trial.anchor_addr,
                    outcome=trial.outcome.value,
                    responded=trial.responded,
                    incorrect=trial.incorrect,
                    failed=trial.failed,
                    effect_delay_minutes=trial.effect_delay_minutes,
                )
            )
    finally:
        if capture_events:
            campaign.observer = original_observer
    stats_after = campaign.workload.space.fast_path_stats()
    return ShardResult(
        cell_index=shard.cell_index,
        trial_start=shard.trial_start,
        cell_name=shard.cell.name,
        error_label=shard.cell.spec.label,
        results=tuple(results),
        worker_pid=os.getpid(),
        seconds=time.perf_counter() - start,
        events=tuple(buffer.events) if buffer is not None else (),
        memory_stats={
            key: stats_after[key] - stats_before.get(key, 0)
            for key in stats_after
        },
    )


def _execute_shard(index: int, shard: CellShard) -> ShardResult:
    """Pool task: run shard ``index`` on this worker's campaign."""
    if _WORKER_STARTED is not None:
        _WORKER_STARTED[index] = 1
    campaign = _WORKER_CAMPAIGN
    if campaign is None:
        if _WORKER_BOOTSTRAP_ERROR is not None:
            raise _WORKER_BOOTSTRAP_ERROR
        raise RuntimeError(
            "worker process has no campaign: the pool was started without "
            "fork inheritance or a workload_factory initializer"
        )
    return run_shard_on(campaign, shard, capture_events=_WORKER_TRACE)


def merge_shard_results(
    profile: VulnerabilityProfile,
    cells: Sequence[CampaignCell],
    shard_results: Iterable[ShardResult],
    observer: Optional[Observer] = None,
    synthesized: Optional[Dict[int, Sequence[TrialResult]]] = None,
) -> List[TrialResult]:
    """Fold shard results into ``profile`` in canonical campaign order.

    Results may arrive in any completion order; they are re-sorted by
    (cell index, trial index) before being recorded, which makes the
    merged profile independent of pool scheduling — the property pinned
    by the determinism test harness.

    ``synthesized`` carries the pruned backend's analytically resolved
    trials, keyed by cell index; they are folded into the same canonical
    (cell, trial index) order as the executed results, which is what
    keeps ``workers=N`` byte-identical to the serial pruned run.

    With an ``observer``, each cell's merge is wrapped in a ``cell``
    tracing span; worker-captured events are replayed into the parent's
    sinks when their shard is first reached in canonical order, and each
    synthesized trial emits the same ``pruned=True`` trial span the
    serial path does — so a parallel run's trace has the same span paths
    as a serial run's.

    Returns the flattened trial results in that canonical order.
    """
    obs = observer if observer is not None else NULL_OBSERVER
    by_cell: Dict[int, List[ShardResult]] = {}
    for shard_result in shard_results:
        by_cell.setdefault(shard_result.cell_index, []).append(shard_result)
    synth_by_cell = synthesized or {}
    ordered: List[TrialResult] = []
    for cell_index, cell_def in enumerate(cells):
        cell = profile.cell(cell_def.name, cell_def.spec.label)
        cell_key = f"{cell_def.name}|{cell_def.spec.label}"
        with obs.span(
            SPAN_CELL,
            key=cell_key,
            attrs={"region": cell_def.name, "error_label": cell_def.spec.label},
        ):
            entries: List[Tuple[int, Optional[ShardResult], TrialResult]] = []
            for shard_result in by_cell.get(cell_index, []):
                for result in shard_result.results:
                    entries.append((result.trial_index, shard_result, result))
            for result in synth_by_cell.get(cell_index, ()):
                entries.append((result.trial_index, None, result))
            entries.sort(key=lambda entry: entry[0])
            replayed: set = set()
            for trial_index, shard_result, result in entries:
                if shard_result is None:
                    with obs.span(
                        SPAN_TRIAL,
                        key=str(trial_index),
                        attrs={
                            "cell": cell_key,
                            "trial_index": trial_index,
                            "pruned": True,
                        },
                    ) as span:
                        span.set(
                            outcome=result.outcome,
                            masked=ErrorOutcome(result.outcome).is_masked,
                            anchor_addr=result.anchor_addr,
                            responded=result.responded,
                            incorrect=result.incorrect,
                            failed=result.failed,
                            effect_delay_minutes=result.effect_delay_minutes,
                        )
                elif id(shard_result) not in replayed:
                    replayed.add(id(shard_result))
                    obs.replay(shard_result.events)
                    instruments = getattr(obs, "instruments", None)
                    if instruments is not None and shard_result.memory_stats:
                        instruments.record_memory(shard_result.memory_stats)
                cell.record(
                    outcome=ErrorOutcome(result.outcome),
                    responded=result.responded,
                    incorrect=result.incorrect,
                    failed=result.failed,
                    effect_delay_minutes=result.effect_delay_minutes,
                )
                ordered.append(result)
    return ordered


def _lost_shards(shards, started, returned) -> List[CellShard]:
    """Shards a broken pool took down: started but never returned, or
    every unreturned shard when none had started."""
    unreturned = [i for i in range(len(shards)) if i not in returned]
    lost = [i for i in unreturned if started[i]] or unreturned
    return [shards[i] for i in lost]


def resolve_start_method(preferred: Optional[str] = None) -> str:
    """Pick the multiprocessing start method (fork when available)."""
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} not available (have {available})"
            )
        return preferred
    return "fork" if "fork" in available else available[0]


class ParallelCampaignRunner:
    """Runs a campaign's cell grid on a process pool."""

    def __init__(
        self,
        workers: int,
        workload_factory: Optional[Callable] = None,
        progress: Optional[Callable] = None,
        shards_per_worker: int = 4,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.workload_factory = workload_factory
        self.progress = progress
        self.shards_per_worker = shards_per_worker
        self.start_method = resolve_start_method(start_method)

    def run(
        self,
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
        region_sizes: Dict[str, int],
    ) -> VulnerabilityProfile:
        """Execute the grid and return the merged profile.

        ``campaign`` must already be prepared; its workload is never
        mutated by the pool (workers operate on forked or rebuilt
        copies), so shared workload fixtures stay pristine.
        """
        global _WORKER_CAMPAIGN, _WORKER_TRACE, _WORKER_STARTED
        observer = campaign.observer
        backend = getattr(campaign, "backend", "scalar")
        synthesized: Dict[int, List[TrialResult]] = {}
        if backend == "pruned":
            shards = self._plan_pruned_shards(
                campaign, cells, trials_per_cell, synthesized
            )
        else:
            shards = plan_shards(
                cells, trials_per_cell, self.workers, self.shards_per_worker
            )
        profile = VulnerabilityProfile(app=campaign.workload.name)
        profile.region_sizes = dict(region_sizes)
        if not shards and not synthesized:
            return profile

        trials_total = (
            sum(shard.trial_count for shard in shards)
            if backend == "pruned"
            else len(cells) * trials_per_cell
        )
        trials_done = 0
        clock = ProgressClock()
        shard_results: List[ShardResult] = []
        if shards:
            context = multiprocessing.get_context(self.start_method)
            started = context.RawArray("b", len(shards))
            if self.start_method == "fork":
                initializer, initargs = None, ()
                _WORKER_CAMPAIGN = campaign  # inherited by forked workers
                _WORKER_TRACE = observer.enabled
                _WORKER_STARTED = started
            else:
                if self.workload_factory is None:
                    raise RuntimeError(
                        f"start method {self.start_method!r} cannot inherit the "
                        "prepared campaign; pass a picklable workload_factory"
                    )
                initializer = _worker_initializer
                initargs = (
                    self.workload_factory,
                    campaign.config,
                    observer.enabled,
                    backend,
                    getattr(campaign, "region_codecs", None),
                    started,
                )

            pool_size = min(self.workers, len(shards))
            logger.info(
                "pool: %d workers (%s), %d shards, %d trials",
                pool_size, self.start_method, len(shards), trials_total,
            )
            pool = ProcessPoolExecutor(
                max_workers=pool_size,
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            )
            try:
                futures = {
                    pool.submit(_execute_shard, index, shard): index
                    for index, shard in enumerate(shards)
                }
                returned = set()
                for future in as_completed(futures):
                    try:
                        shard_result = future.result()
                    except BrokenProcessPool as exc:
                        raise WorkerLostError(
                            _lost_shards(shards, started, returned)
                        ) from exc
                    returned.add(futures[future])
                    shard_results.append(shard_result)
                    trials_done += len(shard_result.results)
                    emit_progress(
                        self.progress,
                        clock,
                        trials_done=trials_done,
                        trials_total=trials_total,
                        worker_pid=shard_result.worker_pid,
                        shard_trials=len(shard_result.results),
                        shard_seconds=shard_result.seconds,
                        cell_name=shard_result.cell_name,
                        error_label=shard_result.error_label,
                        observer=observer,
                    )
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
                if self.start_method == "fork":
                    _WORKER_CAMPAIGN = None
                    _WORKER_TRACE = False
                    _WORKER_STARTED = None

        ordered = merge_shard_results(
            profile, cells, shard_results, observer, synthesized or None
        )
        campaign.note_parallel_trials(cells, ordered)
        return profile

    def _plan_pruned_shards(
        self,
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
        synthesized: Dict[int, List[TrialResult]],
    ) -> List[CellShard]:
        """Pre-classify every cell and shard only the executed residue.

        Runs in the parent process before the pool exists: the golden
        trace is recorded once, each cell's plan is classified, decidable
        trials become picklable :class:`TrialResult` entries in
        ``synthesized`` (folded back at merge time), and the remaining
        trial indices are cut into cost-aware shards so the pool is
        balanced by actual execution work.
        """
        query_budget = min(
            campaign.config.queries_per_trial, campaign.workload.query_count
        )
        indices_by_cell: List[List[int]] = []
        run_pruned = run_executed = run_fallback = 0
        for cell_index, cell_def in enumerate(cells):
            plan, classification = campaign.classify_cell_trials(
                cell_def, range(trials_per_cell)
            )
            if classification is None:
                indices_by_cell.append(list(range(trials_per_cell)))
                run_executed += trials_per_cell
                run_fallback += trials_per_cell
                continue
            executed: List[int] = []
            for local, trial_index in enumerate(plan.trial_indices):
                outcome = classification.outcomes[local]
                if outcome is None:
                    executed.append(int(trial_index))
                    continue
                synthesized.setdefault(cell_index, []).append(
                    TrialResult(
                        cell_index=cell_index,
                        trial_index=int(trial_index),
                        anchor_addr=int(plan.anchor_addrs[local]),
                        outcome=outcome.value,
                        responded=query_budget,
                        incorrect=0,
                        failed=0,
                        effect_delay_minutes=None,
                    )
                )
            indices_by_cell.append(executed)
            run_pruned += trials_per_cell - len(executed)
            run_executed += len(executed)
        campaign.pruning_stats.add(
            pruned=run_pruned, executed=run_executed, fallback=run_fallback
        )
        instruments = campaign.observer.instruments
        if instruments is not None:
            instruments.record_pruning(
                {
                    "pruned": run_pruned,
                    "executed": run_executed,
                    "fallback": run_fallback,
                }
            )
        logger.info(
            "pruning: %d/%d trials resolved analytically (%d fallback)",
            run_pruned, run_pruned + run_executed, run_fallback,
        )
        return plan_shards_indexed(
            cells, indices_by_cell, self.workers, self.shards_per_worker
        )
