"""``execute``: running the generated code.

Set-up builds, for the seeded corpus, one VM image per (machine,
switch or class pattern) at -Os for rt32 (``VMExecutor``) and one fleet
table per machine the fleet supports (``compile_table``); both count in
``setup_s``.  Nothing is compiled in the timed phase, which runs
rounds of two op classes, every VM scenario once and every fleet slice
once:

* **primary** — one ``repro.exec.run_scenario`` on the VM: a fresh
  simulated instance runs a fixed-length stimulus of its machine;
* **secondary** — one ``FleetHarness.run`` over a fixed-size slice of a
  shared event stream, delivered to ``LANES`` lanes of *every* table at
  once.  Covering all machines in each op makes the op's cost a sum
  over the corpus, so it has one mode instead of one per machine.

Expected results are computed with the interpreter while the inputs are
generated: every VM trace must equal its interpreter trace, every
harness run must end with as many final lanes as the interpreter
predicts, and each (slice, machine) fleet run is replayed once on a
plain ``Fleet`` whose sampled lanes must end in the interpreter's state
with its attributes, after the same number of transitions.

``code_bytes`` sums the VM images' modules; ``sim_cycles_per_event`` is
the geometric mean over the images of cycles/event across one pass of
their scenarios.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.compiler import OptLevel
from repro.exec import InterpreterExecutor, VMExecutor, run_scenario
from repro.fleet import Fleet, FleetHarness, FleetUnsupported, compile_table
from repro.uml.serialize import machine_from_dict, machine_to_dict

from .common import PRIMARY, SECONDARY, Op, geomean
from .corpus import by_name, log_dropped, model_corpus, rejecting_patterns

MIN_SECONDARY = 10

LEVEL, TARGET = OptLevel.OS, "rt32"
#: Patterns run on the VM.  The table-driven pattern runs on the fleet
#: instead, which is that pattern scaled out; leaving it off the VM
#: keeps the primary op to one mode (a VM state-table scan costs 3-10x
#: a switch dispatch, by machine size).
VM_PATTERNS = ("nested-switch", "state-pattern", "flat-switch")
SCENARIOS_PER_MACHINE = 6
SCENARIO_LENGTH = 32
SLICES = 32
SLICE_LENGTH = 48
LANES = 64
SHARDS = 2
BATCH = 16
SAMPLED_LANES = 4


def alphabet(machine) -> List[str]:
    return sorted({e.name for e in machine.events.values()})


def interpret(machine, events):
    return run_scenario(InterpreterExecutor(), machine, events)


class Inputs:
    """Corpus, stimuli and the interpreter's expected outcomes.  The
    workload process stores the corpus in *work* so that set-up probes
    load it instead of drawing it again."""

    def __init__(self, seed: int, work: Path, probe: bool = False,
                 seconds: float = 22.0) -> None:
        self.seed = seed
        corpus_file = Path(work) / "corpus.json"
        if probe:
            with open(corpus_file) as fh:
                self.machines = [machine_from_dict(d) for d in json.load(fh)]
        else:
            self.machines = model_corpus(seed)
            with open(corpus_file, "w") as fh:
                fh.write(json.dumps([machine_to_dict(m)
                                     for m in self.machines]))
        self.named = by_name(self.machines)
        #: (machine, pattern) of every VM image, in corpus order.
        self.programs = []
        self.fleet_machines = []
        for machine in self.machines:
            refused = rejecting_patterns(machine)
            self.programs.extend((machine.name, p) for p in VM_PATTERNS
                                 if p not in refused)
            try:
                compile_table(machine)
            except FleetUnsupported as exc:
                refused["fleet"] = str(exc)
            else:
                self.fleet_machines.append(machine.name)
            if not probe:
                log_dropped(machine.name, refused)
        if probe:
            return
        rng = random.Random(seed)
        self.scenarios: Dict[str, List[Tuple[str, ...]]] = {
            m.name: [tuple(rng.choice(alphabet(m))
                           for _ in range(SCENARIO_LENGTH))
                     for _ in range(SCENARIOS_PER_MACHINE)]
            for m in self.machines}
        #: (machine, scenario index) -> (observable payloads, in_final)
        self.expected_vm = {}
        for name, scenarios in self.scenarios.items():
            for i, events in enumerate(scenarios):
                ref = interpret(self.named[name], events)
                self.expected_vm[(name, i)] = (
                    ref.trace.observable_payloads(), ref.in_final)
        shared = sorted({e for name in self.fleet_machines
                         for e in alphabet(self.named[name])})
        self.slices = [tuple(rng.choice(shared) for _ in range(SLICE_LENGTH))
                       for _ in range(SLICES)]
        #: (slice, machine) -> (active states, attributes, in_final)
        self.expected_fleet = {}
        for s, events in enumerate(self.slices):
            for name in self.fleet_machines:
                ref = interpret(self.named[name], events)
                self.expected_fleet[(s, name)] = (
                    ref.inner.active_states, ref.attributes(),
                    ref.in_final)
        self.lane_sample = sorted(rng.sample(range(LANES), SAMPLED_LANES))


class System:
    """The VM images and fleet tables of the corpus."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.executors = {p: VMExecutor(p, level=LEVEL, target=TARGET)
                          for p in VM_PATTERNS}
        self.modules = {}
        for name, pattern in inputs.programs:
            program = self.executors[pattern].program_for(inputs.named[name])
            self.modules[(name, pattern)] = program.compile_result.module
        self.tables = [compile_table(inputs.named[name])
                       for name in inputs.fleet_machines]

    def run_vm(self, name: str, pattern: str, events):
        instance = run_scenario(self.executors[pattern],
                                self.inputs.named[name], events)
        return instance.trace.observable_payloads(), instance.in_final, \
            instance.metrics

    def run_fleet(self, events):
        harness = FleetHarness([(table, LANES) for table in self.tables],
                               n_shards=SHARDS, batch_size=BATCH,
                               routing="broadcast")
        report = harness.run(events)
        return report.fired, harness.finals()

    def warm_up(self) -> None:
        name, pattern = self.inputs.programs[0]
        machine = self.inputs.named[name]
        self.run_vm(name, pattern, alphabet(machine)[:1])
        self.run_fleet(alphabet(machine)[:1])

    def close(self) -> None:
        pass



def vm_keys(inputs: Inputs) -> List[Tuple[str, str, int]]:
    """Every (machine, pattern, scenario) once, machines interleaved."""
    return [(name, pattern, i)
            for i in range(SCENARIOS_PER_MACHINE)
            for name, pattern in inputs.programs]


def rounds(system: System) -> Iterator[List[Op]]:
    """Rounds of every VM scenario once and every fleet slice once, the
    slices spread evenly between the VM runs."""
    inputs = system.inputs
    keys = vm_keys(inputs)
    ops: List[Op] = []
    for n, (name, pattern, i) in enumerate(keys):
        events = inputs.scenarios[name][i]
        ops.append(Op(PRIMARY, f"vm {name} {pattern} #{i}",
                      lambda key=(name, pattern, i), events=events:
                      (key, system.run_vm(key[0], key[1], events))))
        for s in range(n * SLICES // len(keys),
                       (n + 1) * SLICES // len(keys)):
            ops.append(Op(SECONDARY, f"fleet slice {s}",
                          lambda s=s: (s, system.run_fleet(inputs.slices[s]))))
    while True:
        yield ops


def check_fleet_slice(system: System, s: int, fired: int, finals: int
                      ) -> List[str]:
    """Replay slice *s* on one plain ``Fleet`` per table and compare
    sampled lanes with the interpreter."""
    inputs = system.inputs
    failures = []
    fired_here = expected_finals = 0
    for name, table in zip(inputs.fleet_machines, system.tables):
        fleet = Fleet(table, LANES, step_budget=None).start()
        for event in inputs.slices[s]:
            fleet.dispatch_all(event)
        fired_here += fleet.stats.fired
        states, attributes, in_final = inputs.expected_fleet[(s, name)]
        expected_finals += LANES if in_final else 0
        for lane in inputs.lane_sample:
            if fleet.active_states(lane) != states or \
                    fleet.attributes_of(lane) != attributes:
                failures.append(f"fleet slice {s} {name} lane {lane}: "
                                f"{fleet.active_states(lane)} "
                                f"{fleet.attributes_of(lane)} != "
                                f"{states} {attributes}")
                break
    if fired != fired_here:
        failures.append(f"fleet slice {s}: harness fired {fired} "
                        f"transitions, plain fleets {fired_here}")
    if finals != expected_finals:
        failures.append(f"fleet slice {s}: {finals} final lanes, "
                        f"interpreter predicts {expected_finals}")
    return failures


def finish(system: System, loop) -> Tuple[int, float, List[str], int]:
    """Every VM trace against the interpreter's, every distinct harness
    outcome of a slice against plain fleets and the interpreter; then
    the deterministic metrics over one pass of the VM scenarios."""
    inputs = system.inputs
    failures: List[str] = []
    checks = 0
    costs: Dict[Tuple[str, str, int], Tuple[int, int]] = {}
    fleet_runs: Dict[int, set] = {}
    for op, (key, value) in loop.done:
        checks += 1
        if op.cls == PRIMARY:
            payloads, in_final, metrics = value
            if (payloads, in_final) != inputs.expected_vm[(key[0], key[2])]:
                failures.append(f"{op.label}: VM trace differs from the "
                                "interpreter")
            costs.setdefault(key, (metrics.cycles - metrics.init_cycles,
                                   metrics.events_dispatched))
        else:
            fleet_runs.setdefault(key, set()).add(value)
    for s, outcomes in sorted(fleet_runs.items()):
        for fired, finals in sorted(outcomes):
            checks += 1
            failures.extend(check_fleet_slice(system, s, fired, finals))
    for key in vm_keys(inputs):
        if key not in costs:
            _, _, metrics = system.run_vm(
                key[0], key[1], inputs.scenarios[key[0]][key[2]])
            costs[key] = (metrics.cycles - metrics.init_cycles,
                          metrics.events_dispatched)
    per_program: Dict[Tuple[str, str], List[int]] = {}
    for (name, pattern, _), (c, e) in costs.items():
        totals = per_program.setdefault((name, pattern), [0, 0])
        totals[0] += c
        totals[1] += e
    code_bytes = sum(m.total_size for m in system.modules.values())
    return code_bytes, geomean([c / e for c, e in per_program.values()]), \
        failures, checks


def overhead_pairs(system: System, rng: random.Random
                   ) -> Iterator[Tuple[object, object]]:
    """The same VM scenario twice: each run boots a fresh instance."""
    inputs = system.inputs
    keys = vm_keys(inputs)
    rng.shuffle(keys)
    while True:
        for name, pattern, i in keys:
            def call(name=name, pattern=pattern, i=i):
                return system.run_vm(name, pattern,
                                     inputs.scenarios[name][i])
            yield call, call
