#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 60 --trace 0

``--trace 0`` times operations untraced for ``--seconds`` seconds and
reports the end-to-end metrics. ``--trace 1`` runs untraced/traced
pairs on the same input for ``--seconds`` seconds and reports the
per-layer metrics of the traced operation with the median wall time,
plus the tracing overhead. Either way reduced-budget cross-checks run
before timing and every operation's output is checked; the last line of
standard output is the JSON result. See ``perfbench/NOTES.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Untraced operations completed however long they take: a median of
#: one is no median, and peak RSS is read after exactly this many.
MIN_OPERATIONS = 2


def _import_program():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _operation(workload, seed: int, observer):
    """Set up and operate once; returns (setup_s, operate_s, output)."""
    started = time.perf_counter()
    state = workload.setup(seed)
    prepared = time.perf_counter()
    output = workload.operate(state, observer)
    finished = time.perf_counter()
    return prepared - started, finished - prepared, output


def _keep_going(count: int, minimum: int, started: float, seconds: float,
                last: float) -> bool:
    """Run another operation if it is due or still fits the time budget."""
    elapsed = time.perf_counter() - started
    return count < minimum or elapsed + last <= seconds


class Run:
    """Attempted/failed bookkeeping plus the output digest per input seed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.cross_failures = []

    def cross_check(self, seed: int) -> None:
        """Reduced-budget reference comparisons (run before timing)."""
        try:
            self.cross_failures = self.workload.cross_check(seed)
        except Exception:
            self.cross_failures = [traceback.format_exc()]

    def record(self, op_seed: int, output) -> None:
        """Count one operation; it fails if its output check fails.

        A repeated ``op_seed`` (the traced and untraced twins of one
        input) must reproduce the first output's digest exactly.
        """
        self.attempted += 1
        digest = self.workload.digest(output)
        if op_seed not in self.digests:
            self.digests[op_seed] = digest
            failures = self.workload.output_check(output)
        elif digest != self.digests[op_seed]:
            failures = ["traced and untraced outputs differ"]
        else:
            failures = []
        if failures:
            self.failed += 1
            self.problems += [f"operation {self.attempted}: {f}" for f in failures]

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def result(self, metrics: dict) -> dict:
        if self.cross_failures:
            # A failed reference comparison fails every operation.
            self.problems += self.cross_failures
            self.failed = self.attempted
        for problem in self.problems:
            sys.stderr.write(f"perfbench: {problem}\n")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def untraced(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over untraced operations."""
    from repro.obs.trace import NULL_OBSERVER
    from workloads import derive

    run = Run(workload)
    run.cross_check(seed)
    setups, rates = [], []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(run.attempted, MIN_OPERATIONS, started, seconds, last):
        op_seed = derive(seed, f"op{run.attempted}")
        gc.collect()
        try:
            setup_s, operate_s, output = _operation(workload, op_seed, NULL_OBSERVER)
        except Exception:
            run.fail(traceback.format_exc())
            break
        last = setup_s + operate_s
        items = workload.work(output)
        sys.stderr.write(
            f"perfbench: operation {run.attempted} seed {op_seed}: setup {setup_s:.4f} s, "
            f"{items} items in {operate_s:.4f} s\n"
        )
        setups.append(setup_s)
        rates.append(items / operate_s)
        run.record(op_seed, output)
        if run.attempted == MIN_OPERATIONS:
            # Read at a fixed operation count, so runs that fit more
            # operations in the time budget report comparable peaks.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    if len(rates) >= MIN_OPERATIONS:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    return run.result(metrics)


def traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics of the median traced operation, plus overhead."""
    import tracing
    from repro.obs.trace import NULL_OBSERVER, Observer
    from workloads import derive, layer_targets

    run = Run(workload)
    run.cross_check(seed)
    targets = layer_targets()
    plain_walls, traced_ops = [], []

    def plain_operation(op_seed: int) -> None:
        gc.collect()
        setup_s, operate_s, output = _operation(workload, op_seed, NULL_OBSERVER)
        plain_walls.append(setup_s + operate_s)
        run.record(op_seed, output)

    def traced_operation(op_seed: int) -> None:
        recorder = tracing.SpanRecorder(f"{workload.name}-{seed}-{len(traced_ops)}")
        observer = Observer(sinks=[recorder.sink()])
        gc.collect()
        installation = tracing.install(targets, recorder)
        try:
            root = recorder.open(tracing.ROOT)
            try:
                _, _, output = _operation(workload, op_seed, observer)
            finally:
                recorder.close(root)
        finally:
            installation.remove()
        run.record(op_seed, output)
        table = tracing.layer_table(recorder)
        table.update(workload.layer_extras(output))
        traced_ops.append((table["trace.wall_s"], table, recorder))

    started = time.perf_counter()
    last = 0.0
    while _keep_going(len(traced_ops), 1, started, seconds, last):
        op_seed = derive(seed, f"op{len(traced_ops)}")
        # Alternate which twin runs first, so warm caches favour neither.
        pair = (plain_operation, traced_operation)
        try:
            for operation in pair if len(traced_ops) % 2 == 0 else reversed(pair):
                operation(op_seed)
        except Exception:
            run.fail(traceback.format_exc())
            break
        last = plain_walls[-1] + traced_ops[-1][0]
    leftovers = tracing.leftover_wrappers(targets)
    if leftovers:
        run.problems.append(f"wrappers left installed: {', '.join(leftovers)}")
    if not traced_ops:
        return run.result({})
    traced_ops.sort(key=lambda entry: entry[0])
    wall, table, recorder = traced_ops[(len(traced_ops) - 1) // 2]
    self_sum = tracing.self_time_sum(table)
    if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
        run.problems.append(f"layer self times sum to {self_sum}, wall is {wall}")
    plain = statistics.median(plain_walls)
    table["trace.overhead_pct"] = 100.0 * (
        statistics.median(entry[0] for entry in traced_ops) - plain
    ) / plain
    recorder.write(OUT / f"{workload.name}.spans.tsv")
    return run.result({
        name: {"value": value, "unit": tracing.unit_of(name)}
        for name, value in sorted(table.items())
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {arguments.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[arguments.workload]
    measure = traced if arguments.trace else untraced
    result = measure(workload, arguments.seed, arguments.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
