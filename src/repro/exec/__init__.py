"""Campaign execution engine: sharding, worker pools, progress metrics.

See :mod:`repro.exec.parallel` for the determinism guarantee that makes
parallel characterization bit-identical to serial runs, and
:mod:`repro.exec.pruning` for the golden-trace trial pre-classifier
behind ``backend="pruned"``.
"""

from repro.exec.cells import (
    CampaignCell,
    CellShard,
    plan_shards,
    plan_shards_indexed,
)
from repro.exec.parallel import (
    ParallelCampaignRunner,
    ShardResult,
    TrialResult,
    WorkerLostError,
    merge_shard_results,
    resolve_start_method,
    run_shard_on,
)
from repro.exec.pruning import (
    GoldenTrace,
    PlanClassification,
    PruningStats,
    classify_plan,
    corrected_byte_mask,
    record_golden_trace,
)
from repro.exec.workers import resolve_workers
from repro.obs.progress import (
    CampaignMetrics,
    ProgressEvent,
    WorkerTiming,
)

__all__ = [
    "CampaignCell",
    "CellShard",
    "plan_shards",
    "plan_shards_indexed",
    "ParallelCampaignRunner",
    "ShardResult",
    "TrialResult",
    "WorkerLostError",
    "merge_shard_results",
    "resolve_start_method",
    "run_shard_on",
    "GoldenTrace",
    "PlanClassification",
    "PruningStats",
    "classify_plan",
    "corrected_byte_mask",
    "record_golden_trace",
    "resolve_workers",
    "CampaignMetrics",
    "ProgressEvent",
    "WorkerTiming",
]
