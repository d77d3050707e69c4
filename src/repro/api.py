"""repro.api — the stable, versioned public surface of the framework.

Everything an application needs to characterize a workload, explore the
HRM design space, and scale the result to a datacenter fleet lives
here::

    from repro import api

    profile = api.run_campaign(api.WebSearch(), config=api.CampaignConfig(
        trials_per_cell=30), backend="vectorized", workers=4)
    result = api.explore_design_space(profile, availability_target=0.999)
    fleet = api.simulate_fleet(profile, config=api.FleetConfig(
        servers=2000, months=60))
    mix = api.optimize_fleet(profile, availability_target=0.9995)

The surface is organized into documented **tiers** (see ``API_TIERS``):

* ``entry points`` — one-call functions covering the full pipeline;
* ``configs`` — keyword-only configuration dataclasses;
* ``results`` — the value objects entry points return;
* ``registries`` — codec/kernel/backend lookup helpers;
* ``workloads`` — bundled applications and the telemetry hooks;
* ``advanced`` — the stable power-user machinery underneath.

Compatibility policy: names exported from this module are the stable
API — they keep working across internal refactors (module moves, kernel
rewrites, cache-format bumps). ``API_VERSION`` tracks surface-breaking
changes only. Deprecated aliases in ``deprecated_names`` still resolve
(with a :class:`DeprecationWarning`) for one major version; the README
migration table maps each to its replacement. Deeper imports
(``repro.core.campaign`` etc.) continue to work but may shift between
releases.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.apps.base import Workload
from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.cluster.availability_sim import (
    SIMULATOR_BACKENDS as _SIMULATOR_BACKENDS,
)
from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.campaign import (
    BACKENDS as _CAMPAIGN_BACKENDS,
    DEFAULT_SPECS,
    CampaignConfig,
    CharacterizationCampaign,
    TrialRecord,
    campaign_fingerprint,
    load_or_run_profile,
)
from repro.core.cost_model import CostModel
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.optimizer import (
    DEFAULT_CANDIDATES,
    SEARCH_BACKENDS as _SEARCH_BACKENDS,
    MappingOptimizer,
    OptimizationResult,
)
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import (
    EXPLORE_BACKENDS as _EXPLORE_BACKENDS,
    ExplorationResult,
    SimulationValidation,
)
from repro.explore.engine import explore as _explore
from repro.ecc.base import Codec, DecodeResult, DecodeStatus
from repro.ecc.registry import (
    UnknownTechniqueError,
    available_techniques,
    make_codec,
    register_codec,
)
from repro.fleet.config import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
)
from repro.fleet.engine import (
    FLEET_BACKENDS as _FLEET_BACKENDS,
    analyze_fleet,
    optimize_fleet,
    simulate_fleet,
)
from repro.exec.workers import resolve_workers
from repro.fleet.analytic import AnalyticFleetResult
from repro.fleet.optimizer import CompositionMetrics, FleetOptimizationResult
from repro.fleet.simulator import FleetSimulationResult
from repro.injection.injector import (
    MULTI_BIT_HARD,
    MULTI_BIT_SOFT,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorSpec,
)
from repro.kernels.registry import available_kernels, get_kernel
from repro.obs.live import BackgroundTelemetryServer, ObservabilityServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    SloConfig,
    SloEngine,
    audit_slo,
    parse_burn_windows,
    slo_from_ledger,
)
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.serve import (
    DATA_PLANES as _DATA_PLANES,
    POLICY_NAMES,
    ServeConfig,
    ServeResult,
    ServeTenant,
    default_tenants,
    load_ledger,
    replay_ledger,
    run_serve,
    serve_session,
)

#: Version of the *surface* (not the package): bumped on breaking
#: changes to exported names or entry-point signatures.
API_VERSION = "2.0"

#: The documented tiers. Names within each tier are sorted; ``__all__``
#: is their concatenation (the API-surface test pins both properties).
API_TIERS: Dict[str, Tuple[str, ...]] = {
    "entry points": (
        "analyze_fleet",
        "explore_design_space",
        "load_or_run_profile",
        "optimize_fleet",
        "run_campaign",
        "simulate_fleet",
    ),
    "configs": (
        "AgingConfig",
        "AvailabilityParams",
        "BurnWindow",
        "CampaignConfig",
        "CorrelationConfig",
        "CostModel",
        "ErrorRateModel",
        "ErrorSpec",
        "FleetConfig",
        "FleetDesign",
        "ServeConfig",
        "ServeTenant",
        "SloConfig",
    ),
    "results": (
        "AnalyticFleetResult",
        "CompositionMetrics",
        "DesignMetrics",
        "ErrorOutcome",
        "ExplorationResult",
        "FleetOptimizationResult",
        "FleetSimulationResult",
        "OptimizationResult",
        "ServeResult",
        "SimulationValidation",
        "TrialRecord",
        "VulnerabilityProfile",
    ),
    "registries": (
        "UnknownTechniqueError",
        "available_backends",
        "available_kernels",
        "available_techniques",
        "get_kernel",
        "make_codec",
        "register_codec",
    ),
    "workloads": (
        "GraphMining",
        "KVStoreWorkload",
        "MetricsRegistry",
        "NULL_OBSERVER",
        "Observer",
        "WebSearch",
        "Workload",
    ),
    "advanced": (
        "BackgroundTelemetryServer",
        "CharacterizationCampaign",
        "Codec",
        "DEFAULT_CANDIDATES",
        "DEFAULT_SPECS",
        "DecodeResult",
        "DecodeStatus",
        "DesignEvaluator",
        "HRMDesign",
        "MULTI_BIT_HARD",
        "MULTI_BIT_SOFT",
        "MappingOptimizer",
        "ObservabilityServer",
        "POLICY_NAMES",
        "SINGLE_BIT_HARD",
        "SINGLE_BIT_SOFT",
        "SloEngine",
        "audit_slo",
        "campaign_fingerprint",
        "default_tenants",
        "load_ledger",
        "parse_burn_windows",
        "replay_ledger",
        "resolve_workers",
        "run_serve",
        "serve_session",
        "slo_from_ledger",
    ),
}

__all__ = [name for tier in API_TIERS.values() for name in tier]

#: Deprecated alias -> (replacement hint, value thunk). Access emits a
#: DeprecationWarning via module ``__getattr__``; the aliases stay
#: importable for one major version (see the README migration table).
deprecated_names: Dict[str, Tuple[str, Callable[[], object]]] = {
    "BACKENDS": (
        'available_backends("campaign")',
        lambda: _CAMPAIGN_BACKENDS,
    ),
    "SEARCH_BACKENDS": (
        'available_backends("search")',
        lambda: _SEARCH_BACKENDS,
    ),
    "EXPLORE_BACKENDS": (
        'available_backends("explore")',
        lambda: _EXPLORE_BACKENDS,
    ),
    "SIMULATOR_BACKENDS": (
        'available_backends("simulator")',
        lambda: _SIMULATOR_BACKENDS,
    ),
    "FLEET_BACKENDS": (
        'available_backends("fleet")',
        lambda: _FLEET_BACKENDS,
    ),
}


def __getattr__(name: str):
    if name in deprecated_names:
        replacement, thunk = deprecated_names[name]
        warnings.warn(
            f"repro.api.{name} is deprecated; use repro.api.{replacement}",
            DeprecationWarning,
            stacklevel=2,
        )
        return thunk()
    raise AttributeError(f"module 'repro.api' has no attribute '{name}'")


#: Registry of backend tuples behind :func:`available_backends`.
_BACKEND_KINDS: Dict[str, Tuple[str, ...]] = {
    "campaign": tuple(_CAMPAIGN_BACKENDS),
    "search": tuple(_SEARCH_BACKENDS),
    "explore": tuple(_EXPLORE_BACKENDS),
    "simulator": tuple(_SIMULATOR_BACKENDS),
    "fleet": tuple(_FLEET_BACKENDS),
    "serve": tuple(_DATA_PLANES),
}


def available_backends(kind: str) -> Tuple[str, ...]:
    """Execution backends accepted by one subsystem's ``backend=``.

    One helper replaces the per-module constants (``BACKENDS``,
    ``SEARCH_BACKENDS``, ``EXPLORE_BACKENDS``, ``SIMULATOR_BACKENDS``):

    ======================  =============================================
    ``"campaign"``          :func:`run_campaign`
    ``"search"``            :class:`MappingOptimizer`
    ``"explore"``           :func:`explore_design_space`
    ``"simulator"``         ``cluster.AvailabilitySimulator``
    ``"fleet"``             :func:`simulate_fleet`
    ``"serve"``             :class:`ServeConfig` ``data_plane=``
    ======================  =============================================
    """
    try:
        return _BACKEND_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown backend kind '{kind}'; "
            f"expected one of {sorted(_BACKEND_KINDS)}"
        ) from None


def run_campaign(
    workload: Workload,
    *,
    config: Optional[CampaignConfig] = None,
    observer: Observer = NULL_OBSERVER,
    backend: str = "scalar",
    regions: Optional[Sequence[str]] = None,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    trials_per_cell: Optional[int] = None,
    workers: Optional[object] = None,
    workload_factory: Optional[Callable[[], Workload]] = None,
    progress: Optional[Callable] = None,
    region_codecs: Optional[Dict[str, str]] = None,
) -> VulnerabilityProfile:
    """Characterize ``workload`` in one call and return its profile.

    Wraps construct → :meth:`~CharacterizationCampaign.prepare` →
    :meth:`~CharacterizationCampaign.run`. The profile is bit-identical
    for any ``workers`` count and any ``backend``; use
    ``backend="vectorized"`` (batched injection planning, batched
    instrument updates) for large trial budgets, or ``backend="pruned"``
    to additionally resolve footprint-decidable trials analytically from
    one golden trace. ``workers`` accepts a count, ``"auto"``, or ``0``
    (both resolve to the usable CPU count with a deterministic fallback
    to 1). ``region_codecs`` maps region names to hardware codecs
    (e.g. ``{"heap": "SEC-DED"}``); corrected single-bit trials are
    tracked virtually instead of corrupting memory, on every backend.
    """
    campaign = CharacterizationCampaign(
        workload, config=config, observer=observer, backend=backend,
        region_codecs=region_codecs,
    )
    campaign.prepare()
    return campaign.run(
        regions=regions,
        specs=specs,
        trials_per_cell=trials_per_cell,
        workers=resolve_workers(workers),
        workload_factory=workload_factory,
        progress=progress,
    )


def explore_design_space(
    profile: VulnerabilityProfile,
    *,
    availability_target: float,
    error_label: str = "single-bit soft",
    recoverable_fractions: Optional[Dict[str, float]] = None,
    candidates: Sequence = DEFAULT_CANDIDATES,
    max_incorrect_per_million: Optional[float] = None,
    regions: Optional[Sequence[str]] = None,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    backend: str = "auto",
    top_k: Optional[int] = None,
    simulate_months: int = 0,
    simulation_seed: int = 0,
    observer: Observer = NULL_OBSERVER,
) -> ExplorationResult:
    """Search HRM designs against a measured profile (paper §VI-B).

    Evaluates per-region policy assignments from ``candidates`` and
    returns the cheapest design meeting the availability target (and
    incorrectness budget, when given). All backends return identical
    designs; they differ in cost: ``scalar`` is the one-design-at-a-time
    reference, ``vectorized`` evaluates the space in NumPy chunks,
    ``branch-and-bound`` finds exact top-k without visiting the whole
    space, and ``auto`` (default) picks ``vectorized``. The result is an :class:`ExplorationResult` — a
    backward-compatible :class:`OptimizationResult` subclass.

    Args:
        profile: Measured vulnerability profile to evaluate against.
        availability_target: Minimum single-server availability.
        error_label: Which characterized error type drives the rates.
        recoverable_fractions: Per-region recoverable data fraction
            (bounds what Detect&Recover policies can absorb).
        candidates: Region policies to enumerate.
        max_incorrect_per_million: Optional incorrectness budget.
        regions: Regions to assign policies to (default: all profiled).
        cost_model / error_model / availability_params: Model overrides.
        backend: ``auto`` / ``scalar`` / ``vectorized`` /
            ``branch-and-bound``.
        top_k: When set, return only the k best feasible designs
            (memory-safe on huge spaces); when ``None``, exhaustive
            backends return the full feasible list.
        simulate_months: When > 0, Monte Carlo-validate the winner over
            this many server-months (``result.simulation``).
        simulation_seed: Seed for the validation simulation.
        observer: Receives ``explore`` spans and the
            designs-evaluated / pruned instruments when enabled.
    """
    return _explore(
        profile,
        availability_target=availability_target,
        error_label=error_label,
        recoverable_fractions=recoverable_fractions,
        candidates=candidates,
        max_incorrect_per_million=max_incorrect_per_million,
        regions=regions,
        cost_model=cost_model,
        error_model=error_model,
        availability_params=availability_params,
        backend=backend,
        top_k=top_k,
        simulate_months=simulate_months,
        simulation_seed=simulation_seed,
        observer=observer,
    )
