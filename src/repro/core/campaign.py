"""Characterization campaign — the paper's Figure 2 loop.

For every (memory region × error type) cell the campaign repeatedly:

1. restarts the application with pristine data (snapshot restore),
2. injects the desired number and type of errors at a sampled live
   address (Algorithm 1a),
3. replays the client workload,
4. watches for the crash condition (≥50 % failed requests or a fatal
   error),
5. compares responses with the recorded fault-free outputs,

then classifies each trial with the Figure 1 taxonomy and aggregates the
results into a :class:`~repro.core.vulnerability.VulnerabilityProfile`.

Seeding and determinism
-----------------------
Every trial draws from its own ``random.Random`` stream derived (via
:class:`~repro.utils.rng.SeedSequenceFactory`) from the campaign root
seed and the trial's identity — application name, cell name, error
label, and trial index. Trials are therefore mutually independent and
order-independent, which is what lets ``run(workers=N)`` fan the grid
out over a process pool (:mod:`repro.exec.parallel`) and still return a
profile bit-identical to the serial run.

Campaigns are deterministic given their seed; ``load_or_run_profile``
caches profiles as JSON (keyed by a config fingerprint, so stale caches
measured under different knobs are re-measured automatically).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.apps.base import Workload
from repro.apps.clients import ClientDriver
from repro.core.design_space import HardwareTechnique
from repro.core.taxonomy import ErrorOutcome, classify_outcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import CampaignCell
from repro.injection.injector import (
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorInjector,
    ErrorSpec,
)
from repro.obs.events import (
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_CONSUME,
    SPAN_TRIAL,
    SPAN_VERIFY,
)
from repro.obs.progress import ProgressClock, emit_progress
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.utils.rng import SeedSequenceFactory

logger = logging.getLogger("repro.campaign")

#: Error types characterized by default (Figures 3 and 4).
DEFAULT_SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)

#: Version of the profile cache format / trial seeding scheme. Bumping
#: it invalidates every cached profile (see ``campaign_fingerprint``).
CACHE_FORMAT_VERSION = 3

#: Fingerprint schema version: bumped whenever the *shape* of the
#: fingerprint payload changes (new fields, renamed keys), so caches
#: written before a redesign can never alias caches written after it.
FINGERPRINT_SCHEMA_VERSION = 3

#: Trial-execution backends accepted by the campaign: the scalar
#: reference loop, the vectorized path that pre-plans whole trial
#: shards through :mod:`repro.kernels`, and the pruned path that
#: additionally resolves footprint-decidable trials analytically from
#: one golden trace (:mod:`repro.exec.pruning`) — all bit-identical.
BACKENDS = ("scalar", "vectorized", "pruned")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of a characterization campaign."""

    trials_per_cell: int = 60
    queries_per_trial: int = 150
    seed: int = 99
    failure_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.trials_per_cell <= 0:
            raise ValueError("trials_per_cell must be positive")
        if self.queries_per_trial <= 0:
            raise ValueError("queries_per_trial must be positive")
        if not 0.0 < self.failure_fraction <= 1.0:
            raise ValueError("failure_fraction must be in (0, 1]")


@dataclass
class TrialRecord:
    """Raw result of a single injection trial."""

    region: str
    error_label: str
    anchor_addr: int
    outcome: ErrorOutcome
    responded: int
    incorrect: int
    failed: int
    effect_delay_minutes: Optional[float]


def _normalize_workers(workers: Optional[int]) -> int:
    """Validate a worker count; None means serial."""
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_technique(codec: Union[str, HardwareTechnique]) -> HardwareTechnique:
    """Resolve a codec given as enum, enum value, or enum name."""
    if isinstance(codec, HardwareTechnique):
        return codec
    try:
        return HardwareTechnique(codec)
    except ValueError:
        pass
    key = str(codec).strip().upper().replace("-", "_").replace(" ", "_")
    try:
        return HardwareTechnique[key]
    except KeyError:
        pass
    # Separator-free spellings ("secded", "DECTED") still resolve.
    squashed = key.replace("_", "")
    for technique in HardwareTechnique:
        if technique.name.replace("_", "") == squashed:
            return technique
    expected = ", ".join(technique.value for technique in HardwareTechnique)
    raise ValueError(
        f"unknown memory codec {codec!r}; expected one of: {expected}"
    ) from None


def _normalize_region_codecs(
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]],
) -> Optional[Dict[str, str]]:
    """Canonicalize a {region: codec} mapping to enum-value strings."""
    if not region_codecs:
        return None
    return {
        str(name): _parse_technique(codec).value
        for name, codec in region_codecs.items()
    }


class CharacterizationCampaign:
    """Runs the Figure 2 loop for one workload.

    All knobs are keyword-only (part of the stable :mod:`repro.api`
    surface): only the workload is positional.

    Args:
        workload: The application under characterization.
        config: Campaign knobs (defaults to :class:`CampaignConfig`).
        observer: Telemetry hub (tracing spans + metrics). The default
            disabled observer makes instrumentation free; see
            :mod:`repro.obs`.
        backend: ``"scalar"`` runs the reference trial-by-trial loop;
            ``"vectorized"`` pre-plans whole trial shards through
            :class:`~repro.kernels.planner.BatchInjectionPlanner` and
            batches instrument updates, returning a bit-identical
            profile faster; ``"pruned"`` composes with the vectorized
            path and additionally resolves footprint-decidable trials
            analytically from one golden trace
            (:mod:`repro.exec.pruning`) without executing the workload.
        region_codecs: Optional {region name: hardware codec} mapping
            (:class:`~repro.core.design_space.HardwareTechnique` or its
            value/name string). Regions whose codec corrects single-bit
            errors have single-bit trials injected as *virtual* faults —
            consumption is tracked but memory never corrupted — across
            every backend, so profiles stay backend-identical.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        config: Optional[CampaignConfig] = None,
        observer: Observer = NULL_OBSERVER,
        backend: str = "scalar",
        region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.workload = workload
        self.config = config if config is not None else CampaignConfig()
        self.observer = observer
        self.backend = backend
        self.region_codecs = _normalize_region_codecs(region_codecs)
        self._corrected_regions: frozenset = frozenset()
        self._driver: Optional[ClientDriver] = None
        self._rng: Optional[random.Random] = None
        self._seed_factory: Optional[SeedSequenceFactory] = None
        self._golden_trace = None
        self._corrected_mask = None
        self.trials: List[TrialRecord] = []
        from repro.exec.pruning import PruningStats

        self.pruning_stats = PruningStats()

    def prepare(self) -> None:
        """Build the workload, checkpoint it, and record golden outputs.

        An already-built workload (e.g. a shared test fixture) is reused:
        it is reset to its checkpoint instead of rebuilt.
        """
        if self.workload.is_built:
            self.workload.reset()
        else:
            self.workload.build()
            self.workload.checkpoint()
        golden = self.workload.golden_responses()
        self.workload.reset()
        self._driver = ClientDriver(
            self.workload, golden, failure_fraction=self.config.failure_fraction
        )
        self._seed_factory = SeedSequenceFactory(self.config.seed)
        self._rng = self._seed_factory.stream(f"campaign:{self.workload.name}")
        if self.region_codecs:
            known = {region.name for region in self.workload.space.regions}
            unknown = sorted(set(self.region_codecs) - known)
            if unknown:
                raise ValueError(
                    f"region_codecs names unknown regions: {unknown}"
                )
        self._corrected_regions = frozenset(
            name
            for name, value in (self.region_codecs or {}).items()
            if HardwareTechnique(value).corrects_single_bit
        )

    # ------------------------------------------------------------------
    # Trial seeding
    # ------------------------------------------------------------------
    def trial_rng(
        self, cell_name: str, error_label: str, trial_index: int
    ) -> random.Random:
        """Independent seed stream for one trial of one cell.

        The stream identity is (root seed, app, cell, error type, trial
        index) — never execution order — which is the foundation of the
        serial ≡ parallel determinism guarantee.
        """
        if self._seed_factory is None:
            raise RuntimeError("prepare() must be called before trial_rng()")
        label = (
            f"trial:{self.workload.name}:{cell_name}:{error_label}:{trial_index}"
        )
        return self._seed_factory.stream(label)

    # ------------------------------------------------------------------
    def _execute_trial(
        self,
        cell_name: str,
        spans: Optional[List[Tuple[int, int]]],
        spec: ErrorSpec,
        rng: Optional[random.Random],
        positions: Optional[List[Tuple[int, int]]] = None,
    ) -> TrialRecord:
        """Inject→drive→classify against pre-reset state.

        With ``positions`` (the vectorized backend) the pre-planned
        flips are installed without consuming any RNG; otherwise the
        anchor is sampled from ``spans`` and flips drawn from ``rng``,
        the scalar reference sequence.
        """
        if self._driver is None:
            raise RuntimeError("prepare() must be called before running trials")
        workload = self.workload
        space = workload.space
        if positions is not None:
            injector = ErrorInjector(
                space,
                random.Random(0),
                observer=self.observer,
                corrected_regions=self._corrected_regions,
            )
            record = injector.inject_planned(spec, positions)
        else:
            injector = ErrorInjector(
                space,
                rng,
                observer=self.observer,
                corrected_regions=self._corrected_regions,
            )
            record = injector.inject(spec, ranges=spans)
        injected_at = space.time

        query_budget = min(self.config.queries_per_trial, workload.query_count)
        with self.observer.span(SPAN_CONSUME) as consume_span:
            report = self._driver.run(range(query_budget))
            consume_span.set(
                queries=query_budget,
                responded=report.responded,
                incorrect=report.incorrect,
                failed=report.failed,
            )

        with self.observer.span(SPAN_VERIFY) as verify_span:
            consumed = False
            overwritten = False
            for addr in set(record.addresses):
                reads, was_overwritten = space.fault_consumption(addr)
                consumed = consumed or reads > 0
                overwritten = overwritten or was_overwritten
            outcome = classify_outcome(
                report, consumed, overwritten, self.config.failure_fraction
            )
            verify_span.set(
                consumed=consumed, overwritten=overwritten, outcome=outcome.value
            )

        effect_times = [
            t
            for t in (report.first_incorrect_time, report.first_failure_time)
            if t is not None
        ]
        delay_minutes: Optional[float] = None
        if effect_times:
            delay_minutes = workload.time_scale.minutes(
                max(0, min(effect_times) - injected_at)
            )
        return TrialRecord(
            region=cell_name,
            error_label=spec.label,
            anchor_addr=record.anchor_addr,
            outcome=outcome,
            responded=report.responded,
            incorrect=report.incorrect,
            failed=report.failed,
            effect_delay_minutes=delay_minutes,
        )

    def run_trial(
        self,
        region_name: str,
        spec: ErrorSpec,
        rng: Optional[random.Random] = None,
    ) -> TrialRecord:
        """One restart→inject→drive→classify cycle.

        Without an explicit ``rng`` the campaign's legacy sequential
        stream is used (handy for ad-hoc single trials); ``run`` passes
        per-trial derived streams instead.
        """
        if self._driver is None or self._rng is None:
            raise RuntimeError("prepare() must be called before run_trial()")
        workload = self.workload
        workload.reset()
        region = workload.space.region_named(region_name)
        trial = self._execute_trial(
            region_name,
            workload.sample_ranges(region),
            spec,
            rng if rng is not None else self._rng,
        )
        self.trials.append(trial)
        return trial

    def measure_trial(self, cell: CampaignCell, trial_index: int) -> TrialRecord:
        """Measure one trial of one campaign cell with its derived seed.

        The unit of work shared by the serial loop and pool workers:
        region cells re-sample live spans after every reset; custom
        cells use their fixed spans. The whole restart→inject→drive→
        classify cycle is wrapped in a ``trial`` tracing span whose path
        is derived from the grid identity, never execution order.
        """
        rng = self.trial_rng(cell.name, cell.spec.label, trial_index)
        cell_key = f"{cell.name}|{cell.spec.label}"
        with self.observer.span(
            SPAN_TRIAL,
            key=str(trial_index),
            attrs={"cell": cell_key, "trial_index": trial_index},
        ) as span:
            if cell.spans is None:
                trial = self.run_trial(cell.name, cell.spec, rng=rng)
            else:
                self.workload.reset()
                trial = self._execute_trial(
                    cell.name, list(cell.spans), cell.spec, rng
                )
            span.set(
                outcome=trial.outcome.value,
                masked=trial.outcome.is_masked,
                anchor_addr=trial.anchor_addr,
                responded=trial.responded,
                incorrect=trial.incorrect,
                failed=trial.failed,
                effect_delay_minutes=trial.effect_delay_minutes,
            )
        return trial

    def plan_cell_trials(self, cell: CampaignCell, trial_indices: Sequence[int]):
        """Pre-draw a whole shard's injections (vectorized backend).

        Replays each trial's derived seed stream through the scalar draw
        sequence ahead of execution, so the returned
        :class:`~repro.kernels.planner.InjectionPlan` holds exactly the
        anchors and flips the scalar loop would have drawn trial by
        trial. Region cells sample their live spans once from the
        pristine checkpoint — valid for every trial because each trial
        resets to that same checkpoint.
        """
        from repro.kernels.planner import BatchInjectionPlanner

        workload = self.workload
        if cell.spans is None:
            workload.reset()
            region = workload.space.region_named(cell.name)
            spans = workload.sample_ranges(region)
        else:
            spans = list(cell.spans)
        planner = BatchInjectionPlanner(workload.space)
        return planner.plan(
            cell.spec,
            spans,
            lambda index: self.trial_rng(cell.name, cell.spec.label, index),
            trial_indices,
        )

    # ------------------------------------------------------------------
    # Trial pruning (backend="pruned")
    # ------------------------------------------------------------------
    def golden_trace(self):
        """Record (once) and return the campaign's golden access trace.

        One trace serves every cell: the query budget is a config
        constant and the fault-free replay is injection-independent.
        """
        if self._golden_trace is None:
            from repro.exec.pruning import record_golden_trace

            if self._driver is None:
                self.prepare()
            query_budget = min(
                self.config.queries_per_trial, self.workload.query_count
            )
            self._golden_trace = record_golden_trace(
                self.workload, self._driver, query_budget
            )
        return self._golden_trace

    def corrected_mask(self):
        """Per-byte corrected-region mask (None when nothing is protected)."""
        if not self._corrected_regions:
            return None
        if self._corrected_mask is None:
            from repro.exec.pruning import corrected_byte_mask

            self._corrected_mask = corrected_byte_mask(
                self.workload.space, self._corrected_regions
            )
        return self._corrected_mask

    def classify_plan_trials(self, plan):
        """Pre-classify one planned batch against the golden trace.

        Returns a :class:`~repro.exec.pruning.PlanClassification`, or
        ``None`` when the spec's fault kind has no analytic model (the
        whole cell falls back to execution).
        """
        from repro.exec.pruning import classify_plan

        return classify_plan(plan, self.golden_trace(), self.corrected_mask())

    def classify_cell_trials(self, cell: CampaignCell, trial_indices: Sequence[int]):
        """Plan + pre-classify one cell's trials in a single call.

        The parent-process entry point used by the parallel runner:
        planning and classification both happen before any shard is
        dispatched, so only undecidable trials are shipped to workers.
        """
        plan = self.plan_cell_trials(cell, trial_indices)
        return plan, self.classify_plan_trials(plan)

    def synthesize_pruned_trial(
        self, cell: CampaignCell, plan, local: int, outcome: ErrorOutcome
    ) -> TrialRecord:
        """Materialize one analytically decided trial without execution.

        Emits a ``trial`` span (tagged ``pruned=True``) with the exact
        attributes an executed golden-identical trial would carry, and
        settles the golden replay's clock/counter deltas on the address
        space so campaign accounting matches an executed run.
        """
        trace = self.golden_trace()
        trial_index = int(plan.trial_indices[local])
        anchor_addr = int(plan.anchor_addrs[local])
        query_budget = min(self.config.queries_per_trial, self.workload.query_count)
        cell_key = f"{cell.name}|{cell.spec.label}"
        with self.observer.span(
            SPAN_TRIAL,
            key=str(trial_index),
            attrs={"cell": cell_key, "trial_index": trial_index, "pruned": True},
        ) as span:
            self.workload.space.settle_recorded_trial(
                trace.end_time, trace.per_region
            )
            span.set(
                outcome=outcome.value,
                masked=outcome.is_masked,
                anchor_addr=anchor_addr,
                responded=query_budget,
                incorrect=0,
                failed=0,
                effect_delay_minutes=None,
            )
        trial = TrialRecord(
            region=cell.name,
            error_label=cell.spec.label,
            anchor_addr=anchor_addr,
            outcome=outcome,
            responded=query_budget,
            incorrect=0,
            failed=0,
            effect_delay_minutes=None,
        )
        if cell.spans is None:
            self.trials.append(trial)
        return trial

    def measure_planned_trial(
        self,
        cell: CampaignCell,
        trial_index: int,
        positions: List[Tuple[int, int]],
    ) -> TrialRecord:
        """Measure one pre-planned trial (vectorized unit of work).

        The planned counterpart of :meth:`measure_trial`: the injection
        positions come from an :class:`InjectionPlan` instead of being
        drawn inside the trial, but the span shape, profile
        contribution, and ``self.trials`` bookkeeping are identical.
        """
        cell_key = f"{cell.name}|{cell.spec.label}"
        with self.observer.span(
            SPAN_TRIAL,
            key=str(trial_index),
            attrs={"cell": cell_key, "trial_index": trial_index},
        ) as span:
            self.workload.reset()
            trial = self._execute_trial(
                cell.name, None, cell.spec, None, positions=positions
            )
            span.set(
                outcome=trial.outcome.value,
                masked=trial.outcome.is_masked,
                anchor_addr=trial.anchor_addr,
                responded=trial.responded,
                incorrect=trial.incorrect,
                failed=trial.failed,
                effect_delay_minutes=trial.effect_delay_minutes,
            )
        if cell.spans is None:
            self.trials.append(trial)
        return trial

    def note_parallel_trials(
        self, cells: Sequence[CampaignCell], results: Sequence
    ) -> None:
        """Mirror worker-side region trials into ``self.trials``.

        Keeps parity with the serial path, where ``run_trial`` appends
        every region-cell trial (custom cells never did).
        """
        for result in results:
            cell = cells[result.cell_index]
            if cell.spans is not None:
                continue
            self.trials.append(
                TrialRecord(
                    region=cell.name,
                    error_label=cell.spec.label,
                    anchor_addr=result.anchor_addr,
                    outcome=ErrorOutcome(result.outcome),
                    responded=result.responded,
                    incorrect=result.incorrect,
                    failed=result.failed,
                    effect_delay_minutes=result.effect_delay_minutes,
                )
            )

    def _run_planned_cell(
        self, cell_def: CampaignCell, plan, classification=None
    ) -> List[TrialRecord]:
        """Execute one cell's pre-planned trials with batched telemetry.

        When tracing is enabled the trials emit into an in-memory buffer
        rooted at the open cell span's path, and the buffer is replayed
        into the real observer in one call — sinks see identical events
        while the metrics instruments take one batched update per cell
        instead of one per trial.

        With a ``classification`` (the pruned backend), decidable trials
        are synthesized analytically in place; only the rest execute.
        Trials stay in canonical index order either way, so the profile
        fold is byte-identical to the unpruned run.
        """
        observer = self.observer
        buffer = None
        if observer.enabled:
            from repro.obs.sinks import EventBuffer

            buffer = EventBuffer()
            self.observer = Observer(
                sinks=[buffer], root_path=observer.current_path()
            )
        try:
            trials = []
            for local, trial_index in enumerate(plan.trial_indices):
                outcome = (
                    classification.outcomes[local]
                    if classification is not None
                    else None
                )
                if outcome is not None:
                    trials.append(
                        self.synthesize_pruned_trial(
                            cell_def, plan, local, outcome
                        )
                    )
                else:
                    trials.append(
                        self.measure_planned_trial(
                            cell_def, int(trial_index), plan.flips_for(local)
                        )
                    )
        finally:
            self.observer = observer
        if buffer is not None:
            observer.replay(buffer.events)
        return trials

    # ------------------------------------------------------------------
    def _run_cells(
        self,
        cells: Sequence[CampaignCell],
        budget: int,
        region_sizes: Dict[str, int],
        workers: int,
        workload_factory: Optional[Callable[[], Workload]],
        progress: Optional[Callable],
    ) -> VulnerabilityProfile:
        """Execute a cell grid serially or on a worker pool.

        Both paths run inside one ``campaign`` tracing span; the serial
        loop additionally opens a ``cell`` span per grid cell (the
        parallel runner opens its cell spans at merge time so relayed
        worker events land in canonical order).
        """
        observer = self.observer
        trials_total = len(cells) * budget
        logger.info(
            "campaign %s: %d cells x %d trials on %d worker(s)",
            self.workload.name, len(cells), budget, workers,
        )
        with observer.span(
            SPAN_CAMPAIGN,
            attrs={
                "app": self.workload.name,
                "cells": len(cells),
                "trials_per_cell": budget,
                "workers": workers,
            },
        ) as campaign_span:
            if workers > 1:
                from repro.exec.parallel import ParallelCampaignRunner

                runner = ParallelCampaignRunner(
                    workers=workers,
                    workload_factory=workload_factory,
                    progress=progress,
                )
                profile = runner.run(self, cells, budget, region_sizes)
                campaign_span.set(trials=trials_total)
                logger.info(
                    "campaign %s: %d trials complete",
                    self.workload.name, trials_total,
                )
                return profile

            profile = VulnerabilityProfile(app=self.workload.name)
            profile.region_sizes = dict(region_sizes)
            clock = ProgressClock()
            trials_done = 0
            vectorized = self.backend in ("vectorized", "pruned")
            pruning = self.backend == "pruned"
            for cell_def in cells:
                cell = profile.cell(cell_def.name, cell_def.spec.label)
                cell_key = f"{cell_def.name}|{cell_def.spec.label}"
                memory_before = self.workload.space.fast_path_stats()
                cell_start = time.perf_counter()
                plan = (
                    self.plan_cell_trials(cell_def, range(budget))
                    if vectorized
                    else None
                )
                classification = (
                    self.classify_plan_trials(plan) if pruning else None
                )
                with observer.span(
                    SPAN_CELL,
                    key=cell_key,
                    attrs={
                        "region": cell_def.name,
                        "error_label": cell_def.spec.label,
                        "trials": budget,
                    },
                ):
                    if plan is not None:
                        cell_trials = self._run_planned_cell(
                            cell_def, plan, classification
                        )
                    else:
                        cell_trials = [
                            self.measure_trial(cell_def, trial_index)
                            for trial_index in range(budget)
                        ]
                    for trial in cell_trials:
                        cell.record(
                            outcome=trial.outcome,
                            responded=trial.responded,
                            incorrect=trial.incorrect,
                            failed=trial.failed,
                            effect_delay_minutes=trial.effect_delay_minutes,
                        )
                instruments = observer.instruments
                if pruning:
                    cell_pruned = (
                        classification.pruned_count
                        if classification is not None
                        else 0
                    )
                    cell_fallback = budget if classification is None else 0
                    self.pruning_stats.add(
                        pruned=cell_pruned,
                        executed=budget - cell_pruned,
                        fallback=cell_fallback,
                    )
                    if instruments is not None:
                        instruments.record_pruning(
                            {
                                "pruned": cell_pruned,
                                "executed": budget - cell_pruned,
                                "fallback": cell_fallback,
                            }
                        )
                if instruments is not None:
                    memory_after = self.workload.space.fast_path_stats()
                    instruments.record_memory(
                        {
                            key: memory_after[key] - memory_before.get(key, 0)
                            for key in memory_after
                        }
                    )
                trials_done += budget
                logger.debug(
                    "cell %s done (%d/%d trials)",
                    cell_key, trials_done, trials_total,
                )
                emit_progress(
                    progress,
                    clock,
                    trials_done=trials_done,
                    trials_total=trials_total,
                    worker_pid=os.getpid(),
                    shard_trials=budget,
                    shard_seconds=time.perf_counter() - cell_start,
                    cell_name=cell_def.name,
                    error_label=cell_def.spec.label,
                    observer=observer,
                )
            campaign_span.set(trials=trials_total)
        logger.info("campaign %s: %d trials complete", self.workload.name, trials_total)
        return profile

    def run(
        self,
        regions: Optional[Sequence[str]] = None,
        specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
        trials_per_cell: Optional[int] = None,
        workers: Optional[int] = None,
        workload_factory: Optional[Callable[[], Workload]] = None,
        progress: Optional[Callable] = None,
    ) -> VulnerabilityProfile:
        """Run the full campaign and return the vulnerability profile.

        Args:
            regions: Region names to characterize (default: all).
            specs: Error types to inject.
            trials_per_cell: Per-cell trial budget override.
            workers: Process count for parallel execution; ``None`` or 1
                runs serially. The returned profile is bit-identical for
                any worker count.
            workload_factory: Picklable zero-argument factory used to
                rebuild the workload in spawned workers (not needed on
                fork platforms, where workers inherit the prepared
                campaign).
            progress: Optional hook called with
                :class:`~repro.obs.progress.ProgressEvent` after each
                completed shard (e.g. a
                :class:`~repro.obs.progress.CampaignMetrics`).
        """
        worker_count = _normalize_workers(workers)
        if self._driver is None:
            self.prepare()
        workload = self.workload
        if regions is None:
            regions = [region.name for region in workload.space.regions]
        budget = trials_per_cell or self.config.trials_per_cell
        cells = [
            CampaignCell(name=region_name, spec=spec)
            for region_name in regions
            for spec in specs
        ]
        return self._run_cells(
            cells,
            budget,
            self.live_region_sizes(),
            worker_count,
            workload_factory,
            progress,
        )

    def run_custom_cells(
        self,
        cells: Dict[str, List],
        specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
        trials_per_cell: Optional[int] = None,
        workers: Optional[int] = None,
        workload_factory: Optional[Callable[[], Workload]] = None,
        progress: Optional[Callable] = None,
    ) -> VulnerabilityProfile:
        """Characterize arbitrary named address-span sets.

        The finest-granularity mode of the framework (Table 4's memory
        page / cache line rows): ``cells`` maps a structure name to its
        (base, end) spans — e.g. from
        :meth:`repro.apps.websearch.WebSearch.data_structure_ranges` —
        and each gets its own profile cell, sampled and classified
        exactly like a region. Accepts the same ``workers`` /
        ``workload_factory`` / ``progress`` arguments as :meth:`run`.
        """
        worker_count = _normalize_workers(workers)
        if self._driver is None or self._rng is None:
            self.prepare()
        budget = trials_per_cell or self.config.trials_per_cell
        region_sizes = {
            name: sum(end - base for base, end in spans)
            for name, spans in cells.items()
        }
        cell_defs = [
            CampaignCell(
                name=name,
                spec=spec,
                spans=tuple((base, end) for base, end in spans),
            )
            for name, spans in cells.items()
            for spec in specs
        ]
        return self._run_cells(
            cell_defs,
            budget,
            region_sizes,
            worker_count,
            workload_factory,
            progress,
        )

    def live_region_sizes(self) -> Dict[str, int]:
        """Bytes of live application data per region (sampling weights)."""
        sizes: Dict[str, int] = {}
        for region in self.workload.space.regions:
            spans = self.workload.sample_ranges(region)
            sizes[region.name] = sum(end - base for base, end in spans)
        return sizes


def campaign_fingerprint(
    config: CampaignConfig,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    regions: Optional[Sequence[str]] = None,
    backend: str = "scalar",
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
) -> str:
    """Stable digest of every knob that shapes a measured profile.

    Embedded in profile caches so that a cache written under different
    knobs (trial budget, query budget, seed, error specs, region
    selection, or an older seeding scheme) is detected as stale and
    re-measured instead of silently reused.

    The payload carries two versioning fields: ``format`` (the cache /
    seeding scheme version) and ``schema`` (the fingerprint payload
    shape itself), plus the trial-execution ``backend`` — so caches
    written by scalar and vectorized runs, or by releases before and
    after a payload redesign, can never collide even though the profile
    bytes are expected to match.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    codecs = _normalize_region_codecs(region_codecs)
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "backend": backend,
        "trials_per_cell": config.trials_per_cell,
        "queries_per_trial": config.queries_per_trial,
        "seed": config.seed,
        "failure_fraction": config.failure_fraction,
        "specs": [{"kind": spec.kind.value, "bits": spec.bits} for spec in specs],
        "regions": list(regions) if regions is not None else None,
        "region_codecs": sorted(codecs.items()) if codecs else None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_or_run_profile(
    workload_factory: Callable[[], Workload],
    config: CampaignConfig,
    cache_path: Optional[Path] = None,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    regions: Optional[Sequence[str]] = None,
    workers: Optional[Union[int, str]] = None,
    progress: Optional[Callable] = None,
    backend: str = "scalar",
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
) -> VulnerabilityProfile:
    """Return a (possibly cached) vulnerability profile.

    The cached JSON embeds a :func:`campaign_fingerprint`; a cache whose
    fingerprint does not match the requested knobs — including legacy
    caches written before fingerprinting existed — is re-measured and
    rewritten. Corrupt cache files are likewise ignored. ``workers``
    parallelizes (``"auto"`` / ``0`` resolve to the usable CPU count via
    :func:`repro.exec.workers.resolve_workers`) and
    ``backend="vectorized"``/``"pruned"`` accelerate the
    (re-)measurement without affecting the result.
    """
    from repro.exec.workers import resolve_workers

    workers = resolve_workers(workers)
    fingerprint = campaign_fingerprint(
        config, specs, regions, backend=backend, region_codecs=region_codecs
    )
    if cache_path is not None and cache_path.exists():
        try:
            data = json.loads(cache_path.read_text())
            if data.get("fingerprint") == fingerprint:
                return VulnerabilityProfile.from_dict(data["profile"])
        except (ValueError, KeyError, AttributeError):
            pass  # fall through to a fresh run
    campaign = CharacterizationCampaign(
        workload_factory(), config=config, backend=backend,
        region_codecs=region_codecs,
    )
    campaign.prepare()
    profile = campaign.run(
        regions=regions,
        specs=specs,
        workers=workers,
        workload_factory=workload_factory,
        progress=progress,
    )
    if cache_path is not None:
        _write_text_atomic(
            cache_path,
            json.dumps({"fingerprint": fingerprint, "profile": profile.to_dict()}),
        )
    return profile


def _write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers never see a torn file.

    The text goes to a temporary file in the same directory, is flushed
    to disk, then renamed over ``path`` with :func:`os.replace`. If any
    step fails, the previous file is left byte-identical and the
    temporary file is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
