#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 22 --trace 0

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the eight end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics (see ``perfbench/layers.py``)
plus the workload's tracing overhead.  The exit code is 0 only when
every op succeeded and every correctness check passed; a run that
cannot measure (no ``src/repro`` next to this directory, too few
samples, a failed set-up) exits 2 without a result line.  Phase
durations go to standard error.

The workload process is one closed-loop client with no worker
processes.  Set-up time is also measured in a few fresh processes run
one after another before the loop starts (``--setup-probe``).

A workload module provides ``MIN_SECONDARY`` (distinct secondary
inputs the loop waits for), ``Inputs(seed, work, probe, seconds)``
(generated and screened inputs: not part of set-up time),
``System(inputs)`` with ``warm_up()`` and ``close()`` (built and warmed
in set-up time), ``rounds(system)`` (the closed loop's ops, in rounds
that each do the same work), ``finish(system, loop)`` (checks and the
deterministic metrics) and ``overhead_pairs(system, rng)`` (equivalent
primary ops for the tracing-overhead comparison).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "paper-grid": "perfbench.paper_grid",
    "edit-serve": "perfbench.edit_serve",
    "execute": "perfbench.execute",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up measurement in a fresh process.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the workload module (and with it ``repro``); returns the
    module and the seconds the import took."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    module = importlib.import_module(WORKLOADS[name])
    return module, time.perf_counter() - started


def note(phase: str, since: float) -> float:
    """Log a phase's duration to stderr; returns the current time."""
    now = time.perf_counter()
    print(f"[perfbench] {phase}: {now - since:.2f}s", file=sys.stderr)
    return now


def set_up(module, inputs) -> tuple:
    """Build the system under test and run its warm-up; returns the
    system and the seconds that took."""
    started = time.perf_counter()
    system = module.System(inputs)
    system.warm_up()
    return system, time.perf_counter() - started


def setup_probe(args) -> int:
    module, import_s = load_workload(args.workload)
    from repro.obs.trace import configure
    configure(sample_ratio=0.0)
    inputs = module.Inputs(args.seed, Path(args.work), probe=True)
    system, build_s = set_up(module, inputs)
    system.close()
    print(json.dumps({"setup_s": import_s + build_s}))
    return 0


def tracing_overhead_pct(module, system, seconds: float, seed: int
                         ) -> Tuple[float, int]:
    """Traced vs untraced p50 of the primary op, in percent, and the
    number of ops run.  Ops come in equivalent pairs; each pair runs one
    side with the ``repro.obs`` tracer recording every span and the
    other with it off, alternating which side goes first."""
    from perfbench.common import p50
    from repro.obs.trace import configure, get_tracer
    timed: Dict[bool, List[float]] = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    for i, (first, second) in enumerate(
            module.overhead_pairs(system, random.Random(seed))):
        for call, traced in ((first, i % 2 == 0), (second, i % 2 == 1)):
            configure(sample_ratio=1.0 if traced else 0.0)
            t0 = time.perf_counter()
            call()
            timed[traced].append(time.perf_counter() - t0)
            configure(sample_ratio=0.0)
            get_tracer().drain()
        if time.perf_counter() >= deadline and len(timed[True]) >= 20:
            break
    overhead = 100.0 * (p50(timed[True]) / p50(timed[False]) - 1.0)
    return overhead, len(timed[True]) + len(timed[False])


def run(args) -> int:
    module, import_s = load_workload(args.workload)
    from perfbench import common, layers
    from repro.obs.trace import configure
    configure(sample_ratio=0.0)
    work = common.work_dir(args.workload)
    mark = time.perf_counter()
    try:
        inputs = module.Inputs(args.seed, work, probe=False,
                               seconds=args.seconds)
        mark = note("inputs", mark)
        if args.trace:
            system, _ = set_up(module, inputs)
            try:
                overhead, overhead_ops = tracing_overhead_pct(
                    module, system, args.seconds / 2, args.seed)
            finally:
                system.close()
            result = layers.measure(args.seed, work)
            result.metrics["trace.overhead_pct"] = common.metric(
                overhead, "%")
            declared = common.per_layer_units()
            if set(result.metrics) != set(declared):
                raise common.BenchError(
                    "per-layer metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result.metrics) ^ set(declared))}")
            attempted = result.attempted + overhead_ops
            failures, metrics = result.failures, result.metrics
        else:
            probes = common.probe_setup(args.workload, args.seed, work)
            mark = note("set-up probes", mark)
            system, build_s = set_up(module, inputs)
            # The generated inputs are large, long-lived object graphs:
            # keep the collector from re-walking them during the loop.
            gc.collect()
            gc.freeze()
            try:
                loop = common.closed_loop(
                    module.rounds(system), args.seconds,
                    common.min_samples_for_p90(), module.MIN_SECONDARY)
                rss = common.peak_rss_mib()
                mark = note(f"set-up and loop ({loop.rounds} rounds)", mark)
                code_bytes, cycles, failures, checks = \
                    module.finish(system, loop)
                mark = note("checks", mark)
            finally:
                system.close()
            failures = [f"{label}: {error}" for label, error in loop.errors] \
                + failures
            attempted = loop.attempted + checks
            metrics = common.end_to_end_metrics(
                common.p50(probes + [import_s + build_s]), rss, loop,
                code_bytes, cycles)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        return setup_probe(args) if args.setup_probe else run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
