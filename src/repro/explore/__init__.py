"""Batch design-space exploration (paper §VI, Figure 7, Table 6 scale-up).

Evaluating a heterogeneous-reliability-memory design is additive over
regions, so the whole ``candidates^regions`` assignment space can be
explored from a per-(region, candidate) contribution matrix instead of
one scalar evaluation per design:

* :mod:`repro.explore.matrix` — the contribution table (pure Python,
  scalar-oracle bit-identical);
* :mod:`repro.explore.batch` — NumPy chunked evaluation / top-k /
  Pareto over assignment-id ranges;
* :mod:`repro.explore.search` — exact branch-and-bound top-k with
  admissible per-region bounds and dominance pruning;
* :mod:`repro.explore.pareto` — the O(n log n) sort-based front sweep;
* :mod:`repro.explore.engine` — :func:`explore`, the orchestrating
  entry point behind ``repro.api.explore_design_space`` and the
  ``repro explore`` CLI.

Winner validation by simulation runs on the fleet engine through
:class:`repro.cluster.availability_sim.AvailabilitySimulator`.
"""

from repro.explore.batch import BatchDesignSpaceEvaluator
from repro.explore.engine import (
    EXPLORE_BACKENDS,
    ExplorationResult,
    SimulationValidation,
    explore,
)
from repro.explore.matrix import ContributionMatrix
from repro.explore.pareto import pareto_indices
from repro.explore.search import BranchAndBoundResult, BranchAndBoundSearcher

__all__ = [
    "EXPLORE_BACKENDS",
    "ExplorationResult",
    "SimulationValidation",
    "explore",
    "ContributionMatrix",
    "pareto_indices",
    "BranchAndBoundResult",
    "BranchAndBoundSearcher",
    "BatchDesignSpaceEvaluator",
]
