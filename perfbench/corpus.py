"""The seeded model corpus shared by the workloads.

Every seed yields the same *slots*: the two Fig. 1 models, then four
``WorkloadSpec`` families of fixed size and four ``random_machine`` fuzz
shapes held to a fixed state count, alphabet, optimized-model size,
generated-code size and set of rejecting patterns.  The seed only
changes what is inside each slot (chord targets, guards, fuzz
structure).  Fixing the slots keeps per-seed figures comparable:
compile time, equivalence time (which grows with the cube of the
alphabet) and code size all depend mostly on machine size, which does
not move with the seed.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.codegen import CodegenError, generator_by_name
from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.fuzz.generate import DEFAULT_PROFILES, random_machine
from repro.optim import optimize
from repro.uml.serialize import machine_to_dict
from repro.uml.statemachine import StateMachine

PATTERNS: Tuple[str, ...] = ("state-table", "nested-switch",
                             "state-pattern", "flat-switch")
LEVELS: Tuple[OptLevel, ...] = (OptLevel.O0, OptLevel.O2, OptLevel.OS)
TARGETS: Tuple[str, ...] = ("rt32", "rt16")

#: WorkloadSpec families: dead states, shadowed composites and guards
#: (the paper's two pathologies, scaled).  Alphabets are held to 7-8
#: events: the model step's equivalence check replays every event
#: sequence up to length 3, so its cost grows with the alphabet's cube.
SPEC_SLOTS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(n_live=4, n_dead=2, events_per_state=1,
                 guarded_fraction=0.25),
    WorkloadSpec(n_live=5, n_dead=1, events_per_state=1,
                 guarded_fraction=0.5),
    WorkloadSpec(n_live=2, n_shadowed_composites=1, composite_width=2,
                 events_per_state=1, guarded_fraction=0.5),
    WorkloadSpec(n_live=2, n_shadowed_composites=1, composite_width=2,
                 events_per_state=1, guarded_fraction=0.25),
)


@dataclass(frozen=True)
class FuzzSlot:
    """A fuzz shape.  A drawn machine is kept only when its state count
    and alphabet match exactly, its model-optimized form serializes to
    within ``SIZE_SLACK`` of *size* characters, compiles to within
    ``SIZE_SLACK`` of *code* bytes (``REFERENCE_CELL``) and exactly the
    *rejected_by* patterns refuse it; that holds a slot's generated code
    size, compile time and share of the grid steady from seed to seed
    (the serialized size alone let a slot's code size vary by 2x)."""

    profile: str
    states: int
    alphabet: int
    size: int
    code: int
    rejected_by: FrozenSet[str] = frozenset()


#: Alphabets are held to 6-7 events, for the reason given above.
FUZZ_SLOTS: Tuple[FuzzSlot, ...] = (
    FuzzSlot("flat", 5, 7, 5050, 1164),
    FuzzSlot("guard-heavy", 4, 6, 5700, 1502),
    FuzzSlot("dead-structure", 7, 7, 4150, 1174),
    # Cross-region transitions: nested-switch and state-pattern reject
    # them, which keeps the documented CodegenError path in every
    # seed's grid.
    FuzzSlot("hierarchical", 6, 7, 4650, 1422,
             frozenset({"nested-switch", "state-pattern"})),
)
SIZE_SLACK = 0.05
#: The (pattern, level, target) whose module size a fuzz slot holds.
REFERENCE_CELL = ("flat-switch", OptLevel.O2, "rt32")

_PROFILES = {p.name: p for p in DEFAULT_PROFILES}


class CorpusError(RuntimeError):
    """The generator could not fill a corpus slot."""


def alphabet_size(machine: StateMachine) -> int:
    return len({e.name for e in machine.events.values()})


def state_count(machine: StateMachine) -> int:
    return sum(1 for _ in machine.all_states())


def _serialized_size(machine: StateMachine) -> int:
    return len(json.dumps(machine_to_dict(machine)))


def rejecting_patterns(machine: StateMachine) -> Dict[str, str]:
    """Pattern -> reason, for each generator that refuses *machine* with
    its documented :class:`CodegenError`."""
    rejected: Dict[str, str] = {}
    for pattern in PATTERNS:
        try:
            generator_by_name(pattern).generate(machine)
        except CodegenError as exc:
            rejected[pattern] = str(exc)
    return rejected


def _code_size(machine: StateMachine) -> int:
    pattern, level, target = REFERENCE_CELL
    return ExperimentEngine(jobs=1).compile_machine(
        machine, pattern=pattern, level=level, target=target).total_size


def fuzz_slot(rng: random.Random, slot: FuzzSlot, name: str,
              tries: int = 100000) -> StateMachine:
    """Draw ``random_machine`` shapes until one fits *slot* (rejection
    sampling; the cheap filters run first, so few draws pay for an
    optimization)."""
    profile = _PROFILES[slot.profile]
    for _ in range(tries):
        machine, _, _ = random_machine(rng, profile, name=name)
        # Model optimization only removes elements, so a machine smaller
        # than the window cannot land in it.
        if state_count(machine) != slot.states or \
                alphabet_size(machine) != slot.alphabet or \
                _serialized_size(machine) < (1 - SIZE_SLACK) * slot.size:
            continue
        optimized = optimize(machine).optimized
        if abs(_serialized_size(optimized) - slot.size) \
                <= SIZE_SLACK * slot.size and \
                set(rejecting_patterns(optimized)) == slot.rejected_by and \
                abs(_code_size(optimized) - slot.code) \
                <= SIZE_SLACK * slot.code:
            return machine
    raise CorpusError(f"no machine fits {slot} in {tries} draws")


FULL_CORPUS = 2 + len(SPEC_SLOTS) + len(FUZZ_SLOTS)


def model_corpus(seed: int, slots: int = FULL_CORPUS) -> List[StateMachine]:
    """The corpus of *seed* (names are unique), or its first *slots*
    machines: the two Fig. 1 models, then one machine of each
    WorkloadSpec slot and of each fuzz slot."""
    rng = random.Random(seed)
    machines = [flat_machine_with_unreachable_state(),
                hierarchical_machine_with_shadowed_composite()]
    for i, spec in enumerate(SPEC_SLOTS):
        machines.append(generate_machine(WorkloadSpec(
            **{**spec.__dict__, "seed": rng.getrandbits(32),
               "name": f"W{i}"})))
    for i, slot in enumerate(FUZZ_SLOTS):
        if len(machines) >= slots:
            break
        machines.append(fuzz_slot(rng, slot, name=f"F{i}"))
    return machines[:slots]


@dataclass(frozen=True)
class Cell:
    """One compile of the paper grid."""

    machine: str
    pattern: str
    level: OptLevel
    target: str


def grid_cells(machines: Sequence[StateMachine]
               ) -> Tuple[List[Cell], List[Tuple[str, str, str]]]:
    """Every pattern x level x target cell of *machines*, minus the
    (machine, pattern) pairs a generator rejects with its documented
    :class:`CodegenError`; those come back as ``(machine, pattern,
    reason)`` so the run can list them."""
    cells: List[Cell] = []
    rejected: List[Tuple[str, str, str]] = []
    for machine in machines:
        refused = rejecting_patterns(machine)
        rejected.extend((machine.name, pattern, reason)
                        for pattern, reason in refused.items())
        cells.extend(Cell(machine.name, pattern, level, target)
                     for pattern in PATTERNS if pattern not in refused
                     for level in LEVELS for target in TARGETS)
    return cells, rejected


def log_dropped(machine: str, refused: Dict[str, str]) -> None:
    """List on stderr what a workload drops from its inputs, and why."""
    for what, reason in refused.items():
        print(f"[perfbench] dropped {machine} x {what}: {reason}",
              file=sys.stderr)


def by_name(machines: Sequence[StateMachine]) -> Dict[str, StateMachine]:
    return {m.name: m for m in machines}
