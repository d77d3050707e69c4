"""Determinism test harness for the parallel campaign engine.

The headline guarantees of repro.exec, pinned as tests:

* serial and parallel runs merge to *byte-identical* profiles for any
  worker count (the acceptance bar of the parallel engine);
* per-trial child seeds are independent of execution order and of each
  other;
* shard planning covers every (cell, trial) exactly once and merging is
  order-independent;
* worker failures surface as exceptions in the caller, and a worker
  process that dies raises a typed error instead of hanging;
* progress/metrics hooks account for every trial.
"""

import json
import multiprocessing
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.apps.websearch import WebSearch
from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec import (
    CampaignCell,
    CampaignMetrics,
    ParallelCampaignRunner,
    ShardResult,
    TrialResult,
    WorkerLostError,
    merge_shard_results,
    plan_shards,
)
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.utils.rng import derive_seed

CONFIG = CampaignConfig(trials_per_cell=4, queries_per_trial=15, seed=77)


def make_tiny_websearch() -> WebSearch:
    """Module-level factory: picklable for spawn-based worker pools."""
    return WebSearch(
        vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536
    )


def broken_factory() -> WebSearch:
    """A workload factory that dies during worker bootstrap."""
    raise OSError("simulated workload build failure")


def _fresh_campaign() -> CharacterizationCampaign:
    return CharacterizationCampaign(make_tiny_websearch(), config=CONFIG)


def _profile_bytes(profile: VulnerabilityProfile) -> str:
    return json.dumps(profile.to_dict())


@pytest.fixture(scope="module")
def serial_profile_json() -> str:
    return _profile_bytes(
        _fresh_campaign().run(specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD))
    )


class TestSerialParallelEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_profile_bit_identical_to_serial(
        self, workers, serial_profile_json
    ):
        profile = _fresh_campaign().run(
            specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD), workers=workers
        )
        assert _profile_bytes(profile) == serial_profile_json

    def test_worker_count_invariance(self):
        two = _fresh_campaign().run(specs=(SINGLE_BIT_SOFT,), workers=2)
        four = _fresh_campaign().run(specs=(SINGLE_BIT_SOFT,), workers=4)
        assert _profile_bytes(two) == _profile_bytes(four)

    def test_parallel_trials_mirrored_on_campaign(self):
        serial = _fresh_campaign()
        serial.run(regions=["stack"], specs=(SINGLE_BIT_SOFT,))
        parallel = _fresh_campaign()
        parallel.run(regions=["stack"], specs=(SINGLE_BIT_SOFT,), workers=2)
        assert len(parallel.trials) == len(serial.trials)
        assert [t.outcome for t in parallel.trials] == [
            t.outcome for t in serial.trials
        ]
        assert [t.anchor_addr for t in parallel.trials] == [
            t.anchor_addr for t in serial.trials
        ]

    def test_custom_cells_parallel_equality(self):
        def run_custom(workers):
            campaign = _fresh_campaign()
            campaign.prepare()
            heap = campaign.workload.space.region_named("heap")
            cells = {
                "window-a": [(heap.base + 16, heap.base + 128)],
                "window-b": [(heap.base + 256, heap.base + 512)],
            }
            return campaign.run_custom_cells(
                cells, specs=(SINGLE_BIT_SOFT,), workers=workers
            )

        assert _profile_bytes(run_custom(None)) == _profile_bytes(run_custom(3))

    def test_parent_workload_untouched_by_pool(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        before = campaign.workload.space.snapshot().mem
        campaign.run(regions=["stack"], specs=(SINGLE_BIT_SOFT,), workers=2)
        assert campaign.workload.space.snapshot().mem == before
        assert len(campaign.workload.space.fault_log) == 0


class TestChildSeeds:
    def test_trial_streams_pairwise_distinct(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        draws = {}
        for cell_name in ("stack", "heap"):
            for label in ("single-bit soft", "single-bit hard"):
                for index in range(5):
                    rng = campaign.trial_rng(cell_name, label, index)
                    draws[(cell_name, label, index)] = rng.random()
        assert len(set(draws.values())) == len(draws)

    def test_trial_stream_independent_of_execution_order(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        first = campaign.trial_rng("stack", "single-bit soft", 3).random()
        # Consume unrelated streams in between; the derived stream must
        # not notice.
        campaign.trial_rng("heap", "single-bit soft", 0).random()
        campaign.trial_rng("stack", "single-bit soft", 2).random()
        assert campaign.trial_rng("stack", "single-bit soft", 3).random() == first

    def test_trial_rng_requires_prepare(self):
        campaign = _fresh_campaign()
        with pytest.raises(RuntimeError):
            campaign.trial_rng("stack", "single-bit soft", 0)

    def test_derive_seed_sensitive_to_every_component(self):
        base = derive_seed(77, "trial:app:stack:single-bit soft:0")
        assert base != derive_seed(78, "trial:app:stack:single-bit soft:0")
        assert base != derive_seed(77, "trial:app:heap:single-bit soft:0")
        assert base != derive_seed(77, "trial:app:stack:single-bit hard:0")
        assert base != derive_seed(77, "trial:app:stack:single-bit soft:1")


class TestShardPlanning:
    def _cells(self, count):
        return [
            CampaignCell(name=f"region-{i}", spec=SINGLE_BIT_SOFT)
            for i in range(count)
        ]

    @pytest.mark.parametrize("cells,budget,workers", [
        (1, 1, 1),
        (2, 7, 3),
        (3, 60, 4),
        (6, 5, 16),
    ])
    def test_every_trial_covered_exactly_once(self, cells, budget, workers):
        shards = plan_shards(self._cells(cells), budget, workers)
        seen = set()
        for shard in shards:
            for index in shard.trial_indices():
                key = (shard.cell_index, index)
                assert key not in seen
                seen.add(key)
        assert seen == {
            (c, t) for c in range(cells) for t in range(budget)
        }

    def test_shards_in_canonical_order(self):
        shards = plan_shards(self._cells(3), 10, 2)
        keys = [(s.cell_index, s.trial_start) for s in shards]
        assert keys == sorted(keys)

    def test_enough_shards_to_feed_the_pool(self):
        shards = plan_shards(self._cells(2), 64, 4)
        assert len(shards) >= 4

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(self._cells(1), 0, 2)
        with pytest.raises(ValueError):
            plan_shards(self._cells(1), 5, 0)
        assert plan_shards([], 5, 2) == []


class TestMerge:
    def _fake_results(self):
        cells = [
            CampaignCell(name="stack", spec=SINGLE_BIT_SOFT),
            CampaignCell(name="heap", spec=SINGLE_BIT_SOFT),
        ]
        outcomes = [
            ErrorOutcome.CRASH,
            ErrorOutcome.MASKED_OVERWRITE,
            ErrorOutcome.INCORRECT,
            ErrorOutcome.MASKED_LOGIC,
        ]
        shard_results = []
        for cell_index in range(2):
            for start in (0, 2):
                results = tuple(
                    TrialResult(
                        cell_index=cell_index,
                        trial_index=start + offset,
                        anchor_addr=1000 * cell_index + start + offset,
                        outcome=outcomes[start + offset].value,
                        responded=10,
                        incorrect=1 if start + offset == 2 else 0,
                        failed=0,
                        effect_delay_minutes=float(start + offset)
                        if start + offset != 1
                        else None,
                    )
                    for offset in range(2)
                )
                shard_results.append(
                    ShardResult(
                        cell_index=cell_index,
                        trial_start=start,
                        cell_name=cells[cell_index].name,
                        error_label="single-bit soft",
                        results=results,
                        worker_pid=1234,
                        seconds=0.0,
                    )
                )
        return cells, shard_results

    def test_merge_independent_of_completion_order(self):
        cells, shard_results = self._fake_results()
        baseline = None
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(shard_results)
            rng.shuffle(shuffled)
            profile = VulnerabilityProfile(app="fake")
            merge_shard_results(profile, cells, shuffled)
            encoded = json.dumps(profile.to_dict())
            if baseline is None:
                baseline = encoded
            assert encoded == baseline

    def test_merge_replays_in_trial_order(self):
        cells, shard_results = self._fake_results()
        profile = VulnerabilityProfile(app="fake")
        ordered = merge_shard_results(profile, cells, reversed(shard_results))
        assert [(r.cell_index, r.trial_index) for r in ordered] == [
            (c, t) for c in range(2) for t in range(4)
        ]
        cell = profile.cell("stack", "single-bit soft")
        assert cell.trials == 4
        assert cell.effect_delay_minutes == [0.0, 2.0, 3.0]
        assert cell.crash_delay_minutes == [0.0]


class TestWorkerFailures:
    def test_crash_in_worker_surfaces_as_exception(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        with pytest.raises(KeyError):
            campaign.run(regions=["no-such-region"], workers=2)

    def test_spawn_without_factory_rejected(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        runner = ParallelCampaignRunner(workers=2, start_method="spawn")
        with pytest.raises(RuntimeError, match="workload_factory"):
            runner.run(
                campaign,
                [CampaignCell(name="stack", spec=SINGLE_BIT_SOFT)],
                2,
                {"stack": 1},
            )

    def test_broken_factory_surfaces_from_spawned_pool(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        runner = ParallelCampaignRunner(
            workers=2, start_method="spawn", workload_factory=broken_factory
        )
        with pytest.raises(OSError, match="simulated workload build failure"):
            runner.run(
                campaign,
                [CampaignCell(name="stack", spec=SINGLE_BIT_SOFT)],
                2,
                {"stack": 1},
            )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying shard is patched into workers by fork inheritance",
    )
    def test_dead_worker_raises_naming_its_shard(self, monkeypatch):
        import repro.exec.parallel as parallel

        run_shard = parallel.run_shard_on

        def die_on_first_stack_shard(campaign, shard, capture_events=False):
            if shard.cell.name == "stack" and shard.trial_start == 0:
                os._exit(9)
            return run_shard(campaign, shard, capture_events)

        monkeypatch.setattr(parallel, "run_shard_on", die_on_first_stack_shard)
        campaign = _fresh_campaign()
        campaign.prepare()

        def hung(signum, frame):
            raise TimeoutError("campaign still waiting on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        start = time.monotonic()
        try:
            with pytest.raises(WorkerLostError) as caught:
                campaign.run(
                    regions=["heap", "stack"],
                    specs=(SINGLE_BIT_SOFT,),
                    workers=2,
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30.0
        assert any(
            shard.cell.name == "stack" and shard.trial_start == 0
            for shard in caught.value.shards
        )
        assert "stack|single-bit soft" in str(caught.value)

    def test_invalid_worker_counts_rejected(self):
        campaign = _fresh_campaign()
        with pytest.raises(ValueError):
            campaign.run(workers=0)
        with pytest.raises(ValueError):
            campaign.run(workers=-3)
        with pytest.raises(ValueError):
            ParallelCampaignRunner(workers=0)


class TestSeedStability:
    """The per-trial seeding scheme is part of the cache/profile contract.

    A committed golden profile pins it: any change to seed derivation,
    injection order, or trial classification shows up as a diff here.
    Regenerate tests/golden/tiny_websearch_profile.json deliberately
    (see the generator snippet in the golden file's git history) when
    the scheme is versioned up, and bump CACHE_FORMAT_VERSION with it.
    """

    GOLDEN = Path(__file__).parent.parent / "golden" / "tiny_websearch_profile.json"

    def _measure(self, workers=None):
        workload = WebSearch(
            vocabulary_size=150, doc_count=90, query_count=30, heap_size=65536
        )
        campaign = CharacterizationCampaign(
            workload,
            config=CampaignConfig(trials_per_cell=3, queries_per_trial=12, seed=1234),
        )
        return campaign.run(
            regions=["stack", "heap"],
            specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD),
            workers=workers,
        )

    def test_serial_matches_committed_golden(self):
        golden = json.loads(self.GOLDEN.read_text())
        assert self._measure().to_dict() == golden

    def test_parallel_matches_committed_golden(self):
        golden = json.loads(self.GOLDEN.read_text())
        assert self._measure(workers=2).to_dict() == golden


class TestProgressMetrics:
    def test_serial_progress_accounts_for_every_trial(self):
        metrics = CampaignMetrics()
        _fresh_campaign().run(
            regions=["stack", "heap"], specs=(SINGLE_BIT_SOFT,), progress=metrics
        )
        assert metrics.trials_done == metrics.trials_total == 2 * CONFIG.trials_per_cell
        assert metrics.worker_count == 1
        assert metrics.trials_per_second > 0
        assert sum(t.trials for t in metrics.per_worker.values()) == 8

    def test_parallel_progress_accounts_for_every_trial(self):
        metrics = CampaignMetrics()
        _fresh_campaign().run(
            regions=["stack", "heap"],
            specs=(SINGLE_BIT_SOFT,),
            workers=2,
            progress=metrics,
        )
        assert metrics.trials_done == metrics.trials_total == 8
        assert sum(t.trials for t in metrics.per_worker.values()) == 8
        assert metrics.events  # one event per completed shard
        assert metrics.events[-1].fraction_done == 1.0

    def test_snapshot_shape(self):
        metrics = CampaignMetrics()
        _fresh_campaign().run(regions=["stack"], specs=(SINGLE_BIT_SOFT,),
                              workers=2, progress=metrics)
        snap = metrics.snapshot()
        assert snap["trials_done"] == snap["trials_total"] == 4
        assert snap["trials_per_second"] >= 0
        assert all("trials" in w for w in snap["workers"].values())
