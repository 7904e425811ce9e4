"""``paper-grid``: the paper's experiment at scale — the cold-compile
path.

A pass first optimizes every machine of the seeded corpus at the model
level (secondary op: ``optimize_model`` plus ``equivalence``), then
compiles each optimized model cold for every pattern x level cell at
one target, rt32 and rt16 alternating over the corpus (primary op: one
``compile_machine``).  Every op gets a fresh
``ExperimentEngine(jobs=1)``, so no compile reuses another's units (the
cells of one machine could not share any: units are keyed by pattern,
level and target) and no engine outlives its op: a pass that kept one
engine per machine alive would hold every module of the pass, and the
collector's full sweeps of that heap added pauses of up to 0.2 s to
random ops.  The loop runs pass after pass, each pass one round over
every model step and every cell, in a seeded order reshuffled per pass;
every pass is finished, so each input is timed as often as every other.
An op counts at its fastest run, so the more passes a run makes, the
less the host's slow spells move the figures: compiling each machine
for one target only keeps a pass to about 3 s on a 2.1 GHz Xeon core,
so a 22 s run times every input about seven times.

After the loop: every model step must have been judged equivalent,
``code_bytes`` sums ``total_size`` over one compile of every cell, and
one cell per (machine, pattern) runs VM conformance against the
interpreter, which is also where ``sim_cycles_per_event`` comes from
(the geometric mean of the sampled cells' cycles/event).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.optim import optimize
from repro.vm import check_vm_conformance
from repro.vm.conformance import conformance_scenarios

from .common import PRIMARY, SECONDARY, Op, geomean
from .corpus import LEVELS, PATTERNS, TARGETS, Cell, by_name, grid_cells, \
    log_dropped, model_corpus

MIN_SECONDARY = 10


class Inputs:
    """The corpus and its screened grid.  A set-up probe needs only the
    first machine, which its warm-up compiles."""

    def __init__(self, seed: int, work=None, probe: bool = False,
                 seconds: float = 22.0) -> None:
        self.seed = seed
        self.machines = model_corpus(seed, slots=1) if probe \
            else model_corpus(seed)
        self.named = by_name(self.machines)
        # Cells are screened on the optimized model, the one compiled.
        optimized = [optimize(m).optimized for m in self.machines]
        cells, rejected = grid_cells(optimized)
        target = {m.name: TARGETS[i % len(TARGETS)]
                  for i, m in enumerate(self.machines)}
        cells = [c for c in cells if c.target == target[c.machine]]
        if not probe:
            for name, pattern, reason in rejected:
                log_dropped(name, {pattern: reason})
        self.cells: Dict[str, List[Cell]] = {m.name: [] for m in
                                             self.machines}
        for cell in cells:
            self.cells[cell.machine].append(cell)


def model_step(engine: ExperimentEngine, machine):
    report = engine.optimize_model(machine)
    verdict = engine.equivalence(machine, report.optimized)
    return report, verdict


def compile_cell(engine: ExperimentEngine, machine, cell: Cell):
    return engine.compile_machine(machine, pattern=cell.pattern,
                                  level=cell.level, target=cell.target)


class System:
    """Nothing persists between ops: each builds its own engine.  Set-up
    is the import plus the warm-up of both op classes."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs

    def warm_up(self) -> None:
        machine = self.inputs.machines[0]
        engine = ExperimentEngine(jobs=1)
        report, _ = model_step(engine, machine)
        compile_cell(engine, report.optimized,
                     self.inputs.cells[machine.name][0])

    def close(self) -> None:
        pass


def passes(inputs: Inputs, rng: random.Random) -> Iterator[List[Op]]:
    """The ops of one pass over the corpus, pass after pass: first the
    model step of every machine, then every cell of the grid, each in a
    seeded order reshuffled per pass."""
    while True:
        order = list(inputs.machines)
        rng.shuffle(order)
        #: machine -> its optimized model, from this pass's model step
        optimized: Dict[str, object] = {}

        def step(machine):
            report, verdict = model_step(ExperimentEngine(jobs=1), machine)
            optimized[machine.name] = report.optimized
            return report, verdict

        def compile_op(cell: Cell):
            engine = ExperimentEngine(jobs=1)
            return cell, compile_cell(engine, optimized[cell.machine],
                                      cell).total_size

        cells = [cell for m in order for cell in inputs.cells[m.name]]
        rng.shuffle(cells)
        yield [Op(SECONDARY, f"model {m.name}",
                  lambda m=m: step(m)) for m in order] + \
            [Op(PRIMARY, f"compile {cell}", lambda cell=cell: compile_op(cell))
             for cell in cells]


def rounds(system: System) -> Iterator[List[Op]]:
    return passes(system.inputs, random.Random(system.inputs.seed ^ 0x5EED))


def conformance_sample(inputs: Inputs) -> List[Tuple[str, str, OptLevel,
                                                      str]]:
    """One (machine, pattern, level, target) per (machine, pattern).
    Levels x targets are dealt round-robin over each pattern's machines
    in corpus order, so every seed checks the same mix on the same
    slots; the seed picks the scenarios."""
    combos = [(level, target) for level in LEVELS for target in TARGETS]
    sample = []
    for p, pattern in enumerate(PATTERNS):
        names = [m.name for m in inputs.machines
                 if any(c.pattern == pattern
                        for c in inputs.cells[m.name])]
        for i, name in enumerate(names):
            level, target = combos[(p + i) % len(combos)]
            sample.append((name, pattern, level, target))
    return sample


def finish(system: System, loop) -> Tuple[int, float, List[str], int]:
    """Checks and deterministic metrics: (code_bytes,
    sim_cycles_per_event, failures, checks attempted)."""
    inputs = system.inputs
    failures: List[str] = []
    checks = 0
    sizes: Dict[Cell, int] = {}
    optimized: Dict[str, object] = {}
    for op, value in loop.done:
        if op.cls == SECONDARY:
            report, verdict = value
            checks += 1
            if not verdict.equivalent:
                failures.append(f"{op.label}: {verdict.summary()}")
            optimized.setdefault(report.machine_name, report.optimized)
        else:
            cell, size = value
            sizes.setdefault(cell, size)
    for machine in inputs.machines:
        if machine.name not in optimized:
            optimized[machine.name] = optimize(machine).optimized
        for cell in inputs.cells[machine.name]:
            if cell not in sizes:
                sizes[cell] = compile_cell(ExperimentEngine(jobs=1),
                                           optimized[machine.name],
                                           cell).total_size
    per_cell = []
    for name, pattern, level, target in conformance_sample(inputs):
        checks += 1
        scenarios = conformance_scenarios(
            inputs.named[name], exhaustive_depth=1, n_random=6,
            random_length=12, seed=inputs.seed)
        report = check_vm_conformance(optimized[name], pattern=pattern,
                                      level=level, target=target,
                                      scenarios=scenarios)
        if not report.conformant:
            failures.append(f"vm conformance {name} {pattern} "
                            f"{level.value} {target}: {report.summary()}")
        per_cell.append((report.cycles - report.init_cycles)
                        / report.events_dispatched)
    return sum(sizes.values()), geomean(per_cell), failures, checks


def overhead_pairs(system: System, rng: random.Random
                   ) -> Iterator[Tuple[object, object]]:
    """Pairs of equivalent primary ops for the tracing-overhead
    comparison: the same cell compiled cold twice, each time on a fresh
    engine."""
    inputs = system.inputs
    order = list(inputs.machines)
    rng.shuffle(order)
    for machine in order:
        optimized = optimize(machine).optimized
        for cell in inputs.cells[machine.name]:
            def call(optimized=optimized, cell=cell):
                return compile_cell(ExperimentEngine(jobs=1), optimized,
                                    cell)
            yield call, call
