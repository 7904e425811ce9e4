"""``edit-serve``: the served, warm path.

An in-process ``ServiceThread(workers=0)`` fronts one engine over a
tiered (memory over disk) store.  Before anything is timed, a separate
*previous session* process compiles a set of jobs into that store, as a
user's earlier run would have:

* the base machine of every edit chain (nested-switch -Os, both
  targets), so this session's edits find their units on disk;
* state-table -O0 edit chains of the same machines, which this session
  later replays.

The client is one connection in the workload process, in a closed loop
of rounds.  Each round is one session: a new service over a fresh copy
of the previous session's store (made untimed, with one warm-up
request), through which every edit chain runs in turn, a replay after
every fourth edit.  Every round thus serves the same requests from the
same store state, so each request is timed once per round and counts at
its fastest run, like the inputs of the other workloads.  The two op
classes:

* **primary** — a ``compile`` request for the next ``mutate_one_transition``
  edit of a chain (nested-switch -Os): a module miss where most units
  are reused, written back to the store;
* **secondary** — a ``compile`` request replaying a previous-session job
  not yet requested in this session: served from disk.

After the loop every served payload must equal, byte for byte, the
in-process ``compile_result_payload`` of the same job (replays: as the
previous session rendered it; edits: compiled again here on a private
engine), and the last edit of every chain must pass VM conformance.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.workload import WorkloadSpec, generate_machine, \
    mutate_one_transition
from repro.service import ServiceThread, compile_params, \
    compile_result_payload, job_from_params
from repro.vm import check_vm_conformance
from repro.vm.conformance import conformance_scenarios

from .common import PRIMARY, ROOT, SECONDARY, BenchError, Op, geomean

MIN_SECONDARY = 10

BASE_SPEC = WorkloadSpec(n_live=8, n_dead=2, n_shadowed_composites=1,
                         composite_width=2, events_per_state=2,
                         guarded_fraction=0.25)
EDIT_PATTERN, EDIT_LEVEL = "nested-switch", OptLevel.OS
REPLAY_PATTERN, REPLAY_LEVEL = "state-table", OptLevel.O0
TARGETS = ("rt32", "rt16")
#: Edits per chain; BASE_SPEC machines have 24 eligible transitions.
CHAIN_LENGTH = 24
#: Previous-session jobs per base machine.
REPLAYS_PER_BASE = 12
#: Base machines: two chains each (one per target), 144 distinct edits,
#: enough for a p90 over distinct inputs; a session takes about 7 s on a
#: 2.1 GHz Xeon core.
BASES = 3
#: A chain's edits per replay: 6 replays per chain, 12 per base, as many
#: as the previous session compiled.
EDITS_PER_REPLAY = 4


def canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True)


def edit_chain(base, length: int) -> List:
    """*length* cumulative one-transition edits of *base*."""
    chain, machine = [], base
    for index in range(length):
        machine = mutate_one_transition(machine, index=index)
        chain.append(machine)
    return chain


class Inputs:
    """Edit chains, the previous session's jobs and, once that session
    has run, its payloads.  A set-up probe reads only the warm-up job
    the workload process left in *work*."""

    def __init__(self, seed: int, work: Path, probe: bool = False,
                 seconds: float = 22.0) -> None:
        self.seed = seed
        self.work = Path(work)
        self.store = self.work / "store"
        if probe:
            with open(self.work / "warmup.json") as fh:
                self.warmup = json.load(fh)
            return
        rng = random.Random(seed)
        bases = [generate_machine(WorkloadSpec(
            **{**BASE_SPEC.__dict__, "seed": rng.getrandbits(32),
               "name": f"B{i}"})) for i in range(BASES)]
        #: chain -> [(machine, params)] for this session's edits.
        self.chains: List[List[Tuple[object, Dict]]] = []
        replay_chains = []
        for base in bases:
            edits = edit_chain(base, CHAIN_LENGTH)
            for target in TARGETS:
                self.chains.append([
                    (m, compile_params(m, EDIT_PATTERN, EDIT_LEVEL, target))
                    for m in edits])
            replay_chains.append([
                compile_params(m, REPLAY_PATTERN, REPLAY_LEVEL, "rt32")
                for m in edits[:REPLAYS_PER_BASE]])
        self.roots = [compile_params(base, EDIT_PATTERN, EDIT_LEVEL, target)
                      for base in bases for target in TARGETS]
        # Replays alternate between chains, one job of each in turn.
        self.replays = [job for group in zip(*replay_chains)
                        for job in group]
        self.warmup = self.replays.pop()
        self.expected = previous_session(
            self.work, self.roots + self.replays + [self.warmup])


def previous_session(work: Path, jobs: List[Dict]) -> Dict[str, str]:
    """Compile *jobs* into ``work/store`` in a separate process (the
    user's earlier session) and return its payloads keyed by job
    fingerprint, as canonical JSON."""
    with open(work / "session.json", "w") as fh:
        fh.write(json.dumps(jobs))
    with open(work / "warmup.json", "w") as fh:
        fh.write(json.dumps(jobs[-1]))
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.edit_serve", str(work)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
        env=env)
    if done.returncode != 0:
        raise BenchError(f"previous session failed: {done.stderr[-2000:]}")
    with open(work / "payloads.json") as fh:
        return json.load(fh)


def run_previous_session(work: Path) -> None:
    with open(work / "session.json") as fh:
        jobs = json.load(fh)
    engine = ExperimentEngine(cache_dir=str(work / "store"))
    payloads = {}
    for params in jobs:
        job = job_from_params(params)
        result = engine.compile_machine(
            job.machine, pattern=job.pattern, level=job.level,
            target=job.target, semantics=job.semantics)
        payloads[job.fingerprint()] = canonical(
            compile_result_payload(job, result))
    with open(work / "payloads.json", "w") as fh:
        fh.write(json.dumps(payloads))


class System:
    """One session: the service on its own thread, over its own copy of
    the previous session's store, and the one client connection of the
    loop."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.sessions = 0
        self.service = None
        self.new_session()

    def new_session(self) -> None:
        """Close the current session and start the next one over a fresh
        copy of the previous session's store."""
        self.close()
        self.sessions += 1
        tag = f"{os.getpid()}-{self.sessions}"
        self.store = self.inputs.work / f"store-{tag}"
        shutil.copytree(self.inputs.store, self.store)
        self.service = ServiceThread(
            cache_dir=str(self.store),
            socket_path=str(self.inputs.work / f"{tag}.sock")).start()
        self.client = self.service.client()

    def compile(self, params: Dict) -> Dict:
        return self.client.request("compile", **params)

    def warm_up(self) -> None:
        self.compile(self.inputs.warmup)

    def close(self) -> None:
        if self.service is None:
            return
        try:
            self.client.close()
        finally:
            self.service.stop()
            self.service = None
            shutil.rmtree(self.store, ignore_errors=True)


def edit_order(inputs: Inputs) -> Iterator[Tuple[int, int]]:
    """(chain, position) of every edit, one chain after another."""
    for chain in range(len(inputs.chains)):
        for position in range(CHAIN_LENGTH):
            yield chain, position


def rounds(system: System) -> Iterator[List[Op]]:
    """One session per round: every chain's edits, in order, with a
    replay after every EDITS_PER_REPLAY of them.  Each chain's first edit
    reads its units from disk; finishing chains keeps those edits to one
    in CHAIN_LENGTH, well clear of the p90.  The session of the first
    round is the one set-up started and warmed."""
    inputs = system.inputs
    replays = iter(enumerate(inputs.replays))
    ops: List[Op] = []
    for chain, edits in enumerate(inputs.chains):
        for position, (_, params) in enumerate(edits):
            ops.append(Op(PRIMARY, f"edit {chain}/{position}",
                          lambda params=params, key=(chain, position):
                          (key, system.compile(params))))
            if position % EDITS_PER_REPLAY == EDITS_PER_REPLAY - 1:
                n, params = next(replays, (None, None))
                if params is not None:
                    ops.append(Op(SECONDARY, f"replay {n}",
                                  lambda params=params:
                                  (None, system.compile(params))))
    yield ops
    while True:
        system.new_session()
        system.warm_up()
        yield ops


def finish(system: System, loop) -> Tuple[int, float, List[str], int]:
    """Byte-identity of every served payload and VM conformance of every
    chain's last served edit.  code_bytes sums the previous session's
    modules and every chain's first edit, and cycles/event is the
    geometric mean over the first edits of the rt32 chains: both are
    fixed sets."""
    inputs = system.inputs
    failures: List[str] = []
    checks = 0
    served: List[Tuple[Tuple[int, int], Dict]] = []
    for op, (key, payload) in loop.done:
        if key is None:
            checks += 1
            if canonical(payload) != \
                    inputs.expected.get(payload["fingerprint"]):
                failures.append(f"replay {payload['machine']}: served "
                                "payload differs from the previous "
                                "session's")
        else:
            served.append((key, payload))
    edits = {key for key, _ in served}
    reference = ExperimentEngine()
    firsts = {(chain, 0) for chain in range(len(inputs.chains))}
    local: Dict[Tuple[int, int], Dict] = {}
    for chain, position in sorted(edits | firsts):
        job = job_from_params(inputs.chains[chain][position][1])
        local[(chain, position)] = compile_result_payload(
            job, reference.compile_machine(
                job.machine, pattern=job.pattern, level=job.level,
                target=job.target, semantics=job.semantics))
    for key, payload in served:
        checks += 1
        if canonical(payload) != canonical(local[key]):
            failures.append(f"edit {key}: served payload differs from "
                            "the in-process compile")
    code_bytes = sum(json.loads(p)["total_size"]
                     for p in inputs.expected.values())
    code_bytes += sum(local[key]["total_size"] for key in firsts)
    per_edit = []
    for chain, edits in enumerate(inputs.chains):
        positions = {p for c, p in edits if c == chain}
        positions = {max(positions)} if positions else set()
        if edits[0][1]["target"] == TARGETS[0]:
            positions.add(0)
        for position in sorted(positions):
            machine, params = edits[position]
            checks += 1
            report = check_vm_conformance(
                machine, pattern=EDIT_PATTERN, level=EDIT_LEVEL,
                target=params["target"],
                scenarios=conformance_scenarios(
                    machine, exhaustive_depth=1, n_random=4,
                    random_length=10, seed=inputs.seed))
            if not report.conformant:
                failures.append(f"edit {chain}/{position} vm conformance: "
                                f"{report.summary()}")
            if position == 0:
                per_edit.append((report.cycles - report.init_cycles)
                                / report.events_dispatched)
    return code_bytes, geomean(per_edit), failures, checks


def overhead_pairs(system: System, rng: random.Random
                   ) -> Iterator[Tuple[object, object]]:
    """Consecutive edits of the edit order, two at a time (an edit
    cannot be served twice without turning into a cache hit)."""
    inputs = system.inputs
    order = iter(edit_order(inputs))
    for first, second in zip(order, order):
        yield tuple(
            (lambda params=inputs.chains[c][p][1]: system.compile(params))
            for c, p in (first, second))


if __name__ == "__main__":
    run_previous_session(Path(sys.argv[1]))
