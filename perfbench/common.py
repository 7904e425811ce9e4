"""Measurement plumbing shared by the workloads: the closed loop,
latency statistics, metric records and the set-up probe.

Latency rules (the reason this benchmark exists in this shape):

* every latency metric is computed over exactly one op class — a loop
  records each op under its class and :func:`end_to_end_metrics` reads
  ``op_*`` from the primary class only and ``aux_*`` from the
  secondary class only;
* the tail is p90, and p90 is only reported when at least
  :data:`MIN_BEYOND_P90` samples lie beyond it (:func:`p90` raises
  otherwise), which is why the loop keeps going past its time budget
  until the primary class has enough distinct inputs;
* the loop runs in rounds, each over the same inputs, and each input
  counts once, at its fastest run (:meth:`LoopResult.best`): that keeps
  the mix of inputs behind a percentile the same in every run and the
  shared host's slow spells out of it;
* ``ops_per_s`` is the loop's throughput at those fastest runs: the
  distinct inputs of both classes over the sum of their fastest runs.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

PRIMARY = "primary"
SECONDARY = "secondary"

#: Samples that must lie strictly beyond the p90 sample for p90 to be
#: reported at all.
MIN_BEYOND_P90 = 10

#: The eight end-to-end metrics every workload reports, with units.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "aux_trim_mean_ms": "ms",
    "code_bytes": "B",
    "sim_cycles_per_event": "cycles",
}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (missing program,
    too few samples, failed set-up); the run exits non-zero without a
    result line."""


def min_samples_for_p90() -> int:
    """Smallest sample count whose p90 has MIN_BEYOND_P90 samples
    beyond it."""
    n = 1
    while n - math.ceil(0.9 * n) < MIN_BEYOND_P90:
        n += 1
    return n


def p50(samples: List[float]) -> float:
    if not samples:
        raise BenchError("no samples for a median")
    return statistics.median(samples)


def trimmed_mean(samples: List[float]) -> float:
    """Mean of *samples* without their fastest and slowest tenth."""
    if not samples:
        raise BenchError("no samples for a mean")
    cut = len(samples) // 10
    return statistics.fmean(sorted(samples)[cut:len(samples) - cut])


def p90(samples: List[float]) -> float:
    """Nearest-rank p90; raises :class:`BenchError` unless at least
    MIN_BEYOND_P90 samples lie beyond the p90 sample."""
    n = len(samples)
    rank = math.ceil(0.9 * n)
    if n - rank < MIN_BEYOND_P90:
        raise BenchError(f"p90 needs {MIN_BEYOND_P90} samples beyond it; "
                         f"{n} samples leave {max(0, n - rank)}")
    return sorted(samples)[rank - 1]


def geomean(values: List[float]) -> float:
    """Geometric mean: how ``sim_cycles_per_event`` averages per-program
    cycles/event, so no single pattern's cost dominates the figure."""
    if not values:
        raise BenchError("no values for a geometric mean")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One closed-loop operation: its class, the name of its input (ops
    with the same label do the same work on the same input) and the call
    to time (its return value is kept for the post-run checks)."""

    cls: str
    label: str
    call: Callable[[], Any]


@dataclass
class LoopResult:
    #: class -> input label -> seconds of each run of that op.
    samples: Dict[str, Dict[str, List[float]]] = field(
        default_factory=lambda: {PRIMARY: {}, SECONDARY: {}})
    #: (op, return value) of every op that completed.
    done: List[Tuple[Op, Any]] = field(default_factory=list)
    #: (op label, error) of every op that raised.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Rounds run.
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.done) + len(self.errors)

    def best(self, cls: str) -> List[float]:
        """Seconds of the fastest run of each distinct input of *cls*.

        The host is shared: other tenants slow some runs by up to 2x for
        seconds at a time, which moves a median over every run from one
        run of the benchmark to the next.  An input's fastest run is the
        one least slowed by them."""
        return [min(runs) for runs in self.samples[cls].values()]


def closed_loop(rounds: Iterator[List[Op]], seconds: float,
                min_primary: int, min_secondary: int) -> LoopResult:
    """Run *rounds* of ops back to back (one client, each op starts when
    the previous one returned) for *seconds*, and on until the primary
    and secondary classes hold *min_primary* / *min_secondary* distinct
    inputs.  A round that has started is always finished, so every round
    does the same work.  Runs out early only when *rounds* is
    exhausted."""
    result = LoopResult()
    started = time.perf_counter()
    deadline = started + seconds
    for ops in rounds:
        for op in ops:
            t0 = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                result.errors.append(
                    (op.label, f"{type(exc).__name__}: {exc}"))
            else:
                t1 = time.perf_counter()
                result.samples[op.cls].setdefault(op.label, []).append(
                    t1 - t0)
                result.done.append((op, value))
        result.rounds += 1
        if time.perf_counter() >= deadline and \
                len(result.samples[PRIMARY]) >= min_primary and \
                len(result.samples[SECONDARY]) >= min_secondary:
            break
    return result


def end_to_end_metrics(setup_s: float, peak_rss_mb: float,
                       loop: LoopResult, code_bytes: int,
                       sim_cycles_per_event: float) -> Dict[str, Dict]:
    """The eight end-to-end metrics of one run, all timings over the
    distinct inputs of the loop, each at its fastest run.  The secondary
    class reports a trimmed mean, not a median: in ``paper-grid`` its ten
    inputs (one per machine) cost between 25 and 150 ms, and a median of
    ten such values moves with whichever two machines land in the
    middle; trimming keeps out the few inputs whose every run was
    slowed."""
    primary = loop.best(PRIMARY)
    secondary = loop.best(SECONDARY)
    primary_ms = [s * 1e3 for s in primary]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": (len(primary) + len(secondary))
        / (sum(primary) + sum(secondary)),
        "op_p50_ms": p50(primary_ms),
        "op_p90_ms": p90(primary_ms),
        "aux_trim_mean_ms": trimmed_mean([s * 1e3 for s in secondary]),
        "code_bytes": code_bytes,
        "sim_cycles_per_event": sim_cycles_per_event,
    }
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric BENCHMARK.json declares."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

#: Set-up is repeated this many times in fresh processes (plus once in
#: the workload process itself) and the median is reported.
SETUP_PROBES = 3


def probe_setup(workload: str, seed: int, work: Path) -> List[float]:
    """Set-up seconds measured in SETUP_PROBES fresh processes, one
    after another (each process imports ``repro``, builds the system
    under test, runs its warm-up op and exits)."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--setup-probe", "--workload", workload, "--seed", str(seed),
             "--work", str(work)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr[-2000:]}")
        samples.append(float(json.loads(
            out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def work_dir(tag: str) -> Path:
    """A fresh scratch directory inside the checkout (removed by the
    caller); relative to the checkout root so socket paths stay short."""
    path = Path(".perfbench_work") / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path
