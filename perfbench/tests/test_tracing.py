"""The traced run is read-only.

Each workload, at a reduced size, produces byte-identical output digests
traced and untraced; every wrapper is gone afterwards; and the layer
self times of the traced operation add up to its wall time.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402
from repro.obs.trace import NULL_OBSERVER, Observer  # noqa: E402
from repro.serve import dataplane, multiplexer  # noqa: E402

SEED = 7


@pytest.fixture
def small(monkeypatch):
    """Reduced-size stand-ins for the two workloads."""
    monkeypatch.setattr(
        workloads, "CHARACTERIZE_CONFIG", dict(trials_per_cell=3, queries_per_trial=10)
    )
    monkeypatch.setattr(
        workloads, "fleet_config", lambda: api.FleetConfig(servers=200, months=12)
    )
    return {
        "pipeline": workloads.PIPELINE,
        "serve-faulty": workloads._serve_workload(
            "serve-faulty", ticks=40, error_rate=6.0, load=2, check_ticks=5
        ),
    }


def traced_operation(workload):
    targets = workloads.layer_targets()
    recorder = tracing.SpanRecorder("test")
    installation = tracing.install(targets, recorder)
    try:
        root = recorder.open(tracing.ROOT)
        state = workload.setup(SEED)
        output = workload.operate(state, Observer(sinks=[recorder.sink()]))
        recorder.close(root)
    finally:
        installation.remove()
    return output, recorder, targets


@pytest.mark.parametrize("name", ["pipeline", "serve-faulty"])
def test_traced_output_equals_untraced(small, name):
    workload = small[name]
    plain = workload.operate(workload.setup(SEED), NULL_OBSERVER)
    output, recorder, targets = traced_operation(workload)

    assert workload.digest(output) == workload.digest(plain)
    assert tracing.leftover_wrappers(targets) == []
    table = tracing.layer_table(recorder)
    assert tracing.self_time_sum(table) == pytest.approx(
        table["trace.wall_s"], rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize(
    "name, layer",
    [
        ("pipeline", "core.campaign.synthesize"),
        ("pipeline", "exec.pruning.golden_trace"),
        ("pipeline", "cluster.simulate"),
        ("pipeline", "fleet.phase.simulate"),
        ("serve-faulty", "memory.poke"),
        ("serve-faulty", "serve.policies.respond"),
    ],
)
def test_layer_spans_are_recorded(small, name, layer):
    _, recorder, _ = traced_operation(small[name])
    assert layer in recorder.names


def test_install_patches_imported_names_and_restores_them():
    original = dataplane.make_data_plane
    targets = [tracing.Target(dataplane, "make_data_plane", "serve.dataplane.record")]
    installation = tracing.install(targets, tracing.SpanRecorder("test"))
    try:
        assert multiplexer.make_data_plane is dataplane.make_data_plane
        assert dataplane.make_data_plane is not original
    finally:
        installation.remove()
    assert dataplane.make_data_plane is original
    assert multiplexer.make_data_plane is original
    assert tracing.leftover_wrappers(targets) == []
