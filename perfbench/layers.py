"""Per-layer metrics for the traced run (``--trace 1``).

Every figure here is timed from the benchmark's own code, around calls
into one layer's public functions, on a small seeded input set that is
the same whichever workload asked for it:

* the compile of a sample of grid cells goes through the program's own
  ``compile_program_incremental`` with its stage functions
  (``split_units``, ``compile_one_unit``, ``run_inline``,
  ``optimize_function``, ``backend_function``, ``link_units``) wrapped
  in timers for the duration of the call, and each linked module must
  match, listing for listing, a plain ``ExperimentEngine`` compile of
  the same cell;
* the engine, store and service figures come from a service over a
  store seeded by an earlier engine, driven by one client;
* the VM, exec and fleet figures come from the corpus's VM images and
  fleet tables.

``layer_map.json`` names, for each metric, the end-to-end metric it
should move and on which workload.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import repro.compiler.units as units
from repro.codegen import generator_by_name
from repro.compiler import OptLevel, compile_program_incremental, \
    lower_unit
from repro.engine import ExperimentEngine
from repro.exec import InterpreterExecutor, VMExecutor, run_scenario
from repro.experiments.workload import mutate_one_transition
from repro.fleet import FleetHarness, FleetUnsupported, compile_table
from repro.optim import check_equivalence, optimize
from repro.service import ServiceThread, compile_params, \
    compile_result_payload, job_from_params
from repro.service.protocol import decode_message, encode_message
from repro.store import ArtifactStore
from repro.vm import CompiledProgram, assemble
from repro.vm.conformance import conformance_scenarios

from .common import metric
from .corpus import LEVELS, PATTERNS, TARGETS, model_corpus, \
    rejecting_patterns

#: Stage functions of the unit compiler timed by wrapping.
UNIT_STAGES = ("split_units", "compile_one_unit", "run_inline",
               "optimize_function", "backend_function", "link_units")


@dataclass
class LayerResult:
    metrics: Dict[str, Dict] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = metric(value, unit)


def p50_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


@contextlib.contextmanager
def stage_timers(totals: Dict[str, float]):
    """Wrap the unit compiler's stage functions so each call adds its
    duration to ``totals[name]``; restores them on exit."""
    originals = {name: getattr(units, name) for name in UNIT_STAGES}

    def wrap(name, fn):
        def timed_stage(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] = totals.get(name, 0.0) + \
                    time.perf_counter() - t0
        return timed_stage

    for name, fn in originals.items():
        setattr(units, name, wrap(name, fn))
    try:
        yield totals
    finally:
        for name, fn in originals.items():
            setattr(units, name, fn)


def sample_cells(machines, rng: random.Random):
    """Two cells per machine: patterns dealt round-robin, levels and
    targets drawn from the seed."""
    cells = []
    for i, machine in enumerate(machines):
        accepted = [p for p in PATTERNS
                    if p not in rejecting_patterns(machine)]
        for j in range(2):
            cells.append((machine, accepted[(i + j) % len(accepted)],
                          rng.choice(LEVELS), rng.choice(TARGETS)))
    return cells


def measure_model(result: LayerResult, machines) -> List:
    """optim + semantics; returns the optimized machines."""
    opt_s, eq_s, removed, optimized = [], [], 0, []
    for machine in machines:
        report, seconds = timed(optimize, machine)
        opt_s.append(seconds)
        verdict, seconds = timed(check_equivalence, machine,
                                 report.optimized)
        eq_s.append(seconds)
        result.attempted += 1
        if not verdict.equivalent:
            result.failures.append(f"{machine.name}: optimized model not "
                                   f"equivalent: {verdict.summary()}")
        removed += len(report.removed_states) + \
            len(report.removed_transitions) + len(report.removed_events)
        optimized.append(report.optimized)
    events = 0
    interp = InterpreterExecutor()
    started = time.perf_counter()
    for machine in machines:
        for scenario in conformance_scenarios(machine):
            run_scenario(interp, machine, scenario)
            events += len(scenario)
    result.put("optim.optimize_ms", p50_ms(opt_s), "ms")
    result.put("optim.equivalence_ms", p50_ms(eq_s), "ms")
    result.put("optim.elements_removed", removed, "count")
    result.put("semantics.interp_events_per_s",
               events / (time.perf_counter() - started), "1/s")
    return optimized


def measure_compile(result: LayerResult, cells) -> None:
    """codegen + compiler, one staged compile per cell."""
    stages: Dict[str, List[float]] = {k: [] for k in
                                      ("generate", "lower", "clone")}
    per_stage: Dict[str, List[float]] = {k: [] for k in UNIT_STAGES}
    frame_slots = 0
    for machine, pattern, level, target in cells:
        unit, seconds = timed(generator_by_name(pattern).generate, machine)
        stages["generate"].append(seconds)
        program, seconds = timed(lower_unit, unit)
        stages["lower"].append(seconds)
        totals: Dict[str, float] = {}
        with stage_timers(totals):
            staged = compile_program_incremental(
                program, level=level, target=target, extra_key=pattern)
        for name in UNIT_STAGES:
            per_stage[name].append(totals.get(name, 0.0))
        stages["clone"].append(
            totals["compile_one_unit"] - totals.get("run_inline", 0.0)
            - totals.get("optimize_function", 0.0)
            - totals["backend_function"])
        frame_slots += sum(fn.frame_slots for fn in staged.module.functions)
        reference = ExperimentEngine().compile_machine(
            machine, pattern=pattern, level=level, target=target)
        result.attempted += 1
        if staged.module.listing() != reference.module.listing():
            result.failures.append(
                f"staged compile of {machine.name} {pattern} "
                f"{level.value} {target} differs from the engine's")
    result.put("codegen.generate_ms", p50_ms(stages["generate"]), "ms")
    result.put("compiler.lower_ms", p50_ms(stages["lower"]), "ms")
    result.put("compiler.split_ms", p50_ms(per_stage["split_units"]), "ms")
    result.put("compiler.unit_clone_ms", p50_ms(stages["clone"]), "ms")
    result.put("compiler.inline_ms", p50_ms(per_stage["run_inline"]), "ms")
    result.put("compiler.middle_end_ms",
               p50_ms(per_stage["optimize_function"]), "ms")
    result.put("compiler.backend_ms",
               p50_ms(per_stage["backend_function"]), "ms")
    result.put("compiler.link_ms", p50_ms(per_stage["link_units"]), "ms")
    result.put("compiler.frame_slots", frame_slots, "count")


def edit_jobs(machine, n: int, target: str) -> List[Dict]:
    jobs, current = [], machine
    for index in range(n):
        current = mutate_one_transition(current, index=index)
        jobs.append(compile_params(current, "nested-switch", OptLevel.OS,
                                   target))
    return jobs


def measure_served(result: LayerResult, machines, work: Path) -> None:
    """engine + store + service + uml decode, over one client."""
    store_dir = work / "layers-store"
    seeded = [compile_params(m, p, OptLevel.O0, "rt32")
              for m in machines for p in ("state-table", "nested-switch")
              if p not in rejecting_patterns(m)]
    previous = ExperimentEngine(cache_dir=str(store_dir))
    results = {}
    fingerprint_s, decode_s, payload_s = [], [], []
    for params in seeded:
        job, seconds = timed(job_from_params, params)
        decode_s.append(seconds)
        key, seconds = timed(job.fingerprint)
        fingerprint_s.append(seconds)
        results[key] = (job, previous.compile_machine(
            job.machine, pattern=job.pattern, level=job.level,
            target=job.target))
    lookup_s = []
    for key in results:
        _, seconds = timed(previous.cache.get_or_compute, key,
                           lambda: None)
        lookup_s.append(seconds)
    for job, compiled in results.values():
        _, seconds = timed(compile_result_payload, job, compiled)
        payload_s.append(seconds)
    del previous

    store = ArtifactStore(store_dir)
    read_s, read_bytes, values = [], [], []
    for key in results:
        value, seconds = timed(store.load, key)
        read_s.append(seconds)
        read_bytes.append(store.path_for(key).stat().st_size)
        values.append((key, value))
    scratch = ArtifactStore(work / "layers-scratch")
    write_s, write_bytes = [], []
    for key, value in values:
        _, seconds = timed(scratch.put, key, value)
        write_s.append(seconds)
        write_bytes.append(scratch.path_for(key).stat().st_size)

    requests = seeded + [job for m in machines[:4]
                         for job in edit_jobs(m, 4, "rt32")] + seeded[:6]
    message_s, wait_s = [], []
    with ServiceThread(cache_dir=str(store_dir),
                       socket_path=str(work / "layers.sock")) as service:
        with service.client() as client:
            for params in requests:
                line = encode_message({"id": 1, "op": "compile", **params})
                _, seconds = timed(decode_message, line)
                message_s.append(seconds)
                before = server_seconds(client.metrics())
                served, seconds = timed(client.request, "compile", **params)
                wait_s.append(seconds - (server_seconds(client.metrics())
                                         - before))
                result.attempted += 1
                job = job_from_params(params)
                if job.fingerprint() in results and \
                        served["total_size"] != \
                        results[job.fingerprint()][1].total_size:
                    result.failures.append(
                        f"served {served['machine']} differs from the "
                        "seeding engine's compile")
            stats = client.stats()
            errors = client.metrics()["service"]["errors"]
        disk = service.engine.cache.backend.disk.store_dir
        corrupt = disk.stats.corrupt_dropped
    result.put("uml.decode_ms", p50_ms(decode_s), "ms")
    result.put("engine.fingerprint_ms", p50_ms(fingerprint_s), "ms")
    result.put("engine.lookup_ms", p50_ms(lookup_s), "ms")
    result.put("engine.module_hit_ratio",
               stats["engine"]["hits"] / stats["engine"]["lookups"], "ratio")
    result.put("store.read_ms", p50_ms(read_s), "ms")
    result.put("store.read_bytes", statistics.median(read_bytes), "B")
    result.put("store.write_ms", p50_ms(write_s), "ms")
    result.put("store.write_bytes", statistics.median(write_bytes), "B")
    result.put("store.corrupt_dropped", corrupt, "count")
    result.put("service.decode_ms", p50_ms(message_s), "ms")
    result.put("service.payload_ms", p50_ms(payload_s), "ms")
    result.put("service.wait_ms", p50_ms(wait_s), "ms")
    result.put("service.errors", errors, "count")


def server_seconds(metrics: Dict) -> float:
    """Total server-side seconds spent in ``compile`` requests."""
    block = metrics["endpoints"].get("compile")
    if not block or not block["count"]:
        return 0.0
    return block["count"] * block["mean_ms"] / 1e3


def measure_unit_reuse(result: LayerResult, machines) -> None:
    engine = ExperimentEngine()
    for machine in machines[:4]:
        engine.compile_machine(machine, pattern="nested-switch",
                               level=OptLevel.OS)
    before = (engine.delta_stats.total_units, engine.delta_stats.reused_units)
    for machine in machines[:4]:
        for params in edit_jobs(machine, 4, None):
            job = job_from_params(params)
            engine.compile_machine(job.machine, pattern=job.pattern,
                                   level=job.level)
    total = engine.delta_stats.total_units - before[0]
    reused = engine.delta_stats.reused_units - before[1]
    result.put("compiler.unit_reuse_ratio", reused / total, "ratio")


def measure_execution(result: LayerResult, machines, rng: random.Random
                      ) -> None:
    """vm + exec + fleet."""
    assemble_s, boot_s, load_s, peak = [], [], [], 0
    instructions, vm_seconds = 0, 0.0
    for i, machine in enumerate(machines):
        accepted = [p for p in PATTERNS
                    if p not in rejecting_patterns(machine)]
        pattern = accepted[i % len(accepted)]
        program = CompiledProgram(machine, pattern, level=OptLevel.OS,
                                  target="rt32")
        _, seconds = timed(assemble, program.compile_result.module)
        assemble_s.append(seconds)
        _, seconds = timed(program.boot)
        boot_s.append(seconds)
        executor = VMExecutor(pattern, level=OptLevel.OS, target="rt32")
        executor.program_for(machine)
        alphabet = sorted({e.name for e in machine.events.values()})
        for _ in range(4):
            _, seconds = timed(executor.load, machine)
            load_s.append(seconds)
            events = [rng.choice(alphabet) for _ in range(32)]
            instance, seconds = timed(run_scenario, executor, machine,
                                      events)
            vm_seconds += seconds
            instructions += instance.metrics.instructions
            peak = max(peak, instance.metrics.peak_dispatch_cycles)
    result.put("vm.assemble_ms", p50_ms(assemble_s), "ms")
    result.put("vm.boot_ms", p50_ms(boot_s), "ms")
    result.put("vm.insns_per_s", instructions / vm_seconds, "1/s")
    result.put("vm.peak_dispatch_cycles", peak, "cycles")
    result.put("exec.load_ms", p50_ms(load_s), "ms")

    tables, table_s = [], []
    for machine in machines:
        try:
            table, seconds = timed(compile_table, machine)
        except FleetUnsupported:
            continue
        tables.append(table)
        table_s.append(seconds)
    cells = static = 0
    for table in tables:
        for row in table.cells:
            for cell in row:
                cells += 1
                static += cell.static_end is not None or cell.empty
    shared = sorted({e.name for t in tables for e in
                     t.machine.events.values()})
    lane_events = fast = 0
    seconds = 0.0
    for _ in range(4):
        harness = FleetHarness([(t, 64) for t in tables], n_shards=2,
                               batch_size=16, routing="broadcast")
        report = harness.run([rng.choice(shared) for _ in range(48)])
        seconds += report.elapsed_s
        lane_events += report.lane_events
        fast += sum(s.fast_fraction * s.lane_events for s in report.shards)
    result.put("fleet.table_compile_ms", p50_ms(table_s), "ms")
    result.put("fleet.lane_events_per_s", lane_events / seconds, "1/s")
    result.put("fleet.vectorized_ratio", fast / lane_events, "ratio")
    result.put("fleet.static_cell_ratio", static / cells, "ratio")


def measure(seed: int, work: Path) -> LayerResult:
    """Every per-layer metric except the workload's tracing overhead."""
    rng = random.Random(seed ^ 0x1A7E)
    result = LayerResult()
    machines = model_corpus(seed)
    optimized = measure_model(result, machines)
    measure_compile(result, sample_cells(optimized, rng))
    measure_unit_reuse(result, machines)
    measure_served(result, machines, Path(work))
    measure_execution(result, machines, rng)
    return result
