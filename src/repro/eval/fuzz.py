"""Progen fuzz harness: parse → partition → verify → differential.

``run_fuzz`` drives randomly generated PPS-C programs
(:mod:`repro.testing.progen`) through the whole contract the paper
makes: the program must compile, partition at the chosen degree, pass
the independent post-partition verifier, and execute pipelined with
observations bit-identical to the sequential oracle.  Any failure is
recorded with its phase (``frontend`` / ``partition`` / ``verify`` /
``execution``) and automatically *shrunk*: a brace-aware delta-debugging
pass removes statements and whole nested regions while the failure
signature (phase + exception type) reproduces, so the artifact a CI
failure uploads is close to minimal.

``self_test`` closes the loop on the verifier itself: it corrupts a
known-good partition four ways — drop a transmitted live variable, flip
a cut edge backwards, unbalance a stage, break the control-object
dispatch — and checks the verifier rejects every seeded defect.  A
verifier that silently passes a corrupted partition is worse than none.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial

from repro.errors import ReproError
from repro.eval.sweep import SweepTask, run_sweep
from repro.ir.inline import inline_module
from repro.ir.lowering import lower_program
from repro.ir.optimize import optimize_module
from repro.lang import compile_source
from repro.pipeline.transform import pipeline_pps
from repro.pipeline.verify import verify_partition
from repro.runtime.equivalence import assert_equivalent, observe
from repro.runtime.scheduler import run_pipeline, run_sequential
from repro.runtime.state import MachineState
from repro.testing.progen import random_pps_source

#: Pipeline phases a fuzz case can fail in, in execution order.
PHASES = ("frontend", "partition", "verify", "execution")


class CheckFailure(ReproError):
    """One fuzz case broke the pipeline contract in ``phase``."""

    def __init__(self, phase: str, cause: BaseException):
        super().__init__(f"{phase}: {type(cause).__name__}: {cause}")
        self.phase = phase
        self.cause = cause

    @property
    def signature(self) -> tuple[str, str]:
        """What shrinking must preserve: the phase and exception type."""
        return (self.phase, type(self.cause).__name__)


def compile_progen(source: str):
    """Compile generated PPS-C text the way the CLI compiles files."""
    module = lower_program(compile_source(source, "<fuzz>"), "<fuzz>")
    inline_module(module)
    optimize_module(module)
    return module


def fuzz_state(module, seed: int, packets: int) -> MachineState:
    """A deterministic machine state for one fuzz case."""
    state = MachineState(module)
    for name, words in state.regions.items():
        if name.startswith("tab"):
            state.load_region(name, [((i * 13 + seed) % 97)
                                     for i in range(len(words))])
    state.feed_pipe("in_q", [((i * 31 + seed) % 251) for i in range(packets)])
    return state


def check_program(source: str, degree: int, *, packets: int = 24,
                  seed: int = 0) -> None:
    """Run one program through the whole contract; raise CheckFailure."""
    try:
        module = compile_progen(source)
    except Exception as exc:
        raise CheckFailure("frontend", exc) from exc
    pps_name = next(iter(module.ppses))
    try:
        result = pipeline_pps(module, pps_name, degree)
    except Exception as exc:
        raise CheckFailure("partition", exc) from exc
    try:
        verify_partition(result).raise_if_rejected()
    except Exception as exc:
        raise CheckFailure("verify", exc) from exc
    try:
        baseline_state = fuzz_state(module, seed, packets)
        run_sequential(module.pps(pps_name), baseline_state,
                       iterations=packets)
        baseline = observe(baseline_state)
        state = fuzz_state(module, seed, packets)
        run_pipeline(result.stages, state, iterations=packets)
        assert_equivalent(baseline, observe(state))
    except Exception as exc:
        raise CheckFailure("execution", exc) from exc


# -- shrinking ---------------------------------------------------------------

#: Lines the shrinker must never remove: the program scaffold.
_SCAFFOLD_MARKERS = ("pps ", "for (;;)", "pipe_recv(in_q)", "pipe_send(out_q",
                     "pipe in_q", "pipe out_q")


def _removable_regions(lines: list[str]) -> list[tuple[int, int]]:
    """Brace-balanced candidate regions, largest first.

    A line that net-opens braces owns the region down to its matching
    close (removing the whole region keeps the program balanced); a
    brace-neutral line is its own region.  Scaffold lines and bare
    closers are never candidates.
    """
    regions: list[tuple[int, int]] = []
    for index, line in enumerate(lines):
        text = line.strip()
        if not text or any(marker in text for marker in _SCAFFOLD_MARKERS):
            continue
        net = line.count("{") - line.count("}")
        if net < 0:
            continue  # a bare closer belongs to some opener's region
        if net == 0:
            regions.append((index, index))
            continue
        depth = net
        end = None
        for j in range(index + 1, len(lines)):
            depth += lines[j].count("{") - lines[j].count("}")
            if depth <= 0:
                end = j
                break
        if end is not None and not any(
                marker in lines[j]
                for j in range(index, end + 1)
                for marker in _SCAFFOLD_MARKERS):
            regions.append((index, end))
    return sorted(regions, key=lambda span: span[0] - span[1])


def shrink_source(source: str, still_fails, *,
                  max_tests: int = 200) -> tuple[str, int]:
    """Greedy delta-debugging over brace-balanced line regions.

    ``still_fails(text)`` must return True when ``text`` reproduces the
    original failure.  Returns the shrunk source and how many candidate
    programs were tested (bounded by ``max_tests``).
    """
    lines = source.splitlines()
    tests = 0
    progress = True
    while progress and tests < max_tests:
        progress = False
        for start, end in _removable_regions(lines):
            if tests >= max_tests:
                break
            candidate = lines[:start] + lines[end + 1:]
            tests += 1
            if still_fails("\n".join(candidate)):
                lines = candidate
                progress = True
                break  # regions shifted: recompute
    return "\n".join(lines), tests


# -- the fuzz loop -----------------------------------------------------------


@dataclass
class FuzzFailure:
    """One fuzz case that broke the contract."""

    seed: int
    degree: int
    phase: str
    error: str
    source: str
    shrunk_source: str | None = None
    shrink_tests: int = 0

    def artifact(self) -> str:
        """The program to ship (shrunk when shrinking succeeded)."""
        return self.shrunk_source or self.source

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "degree": self.degree,
            "phase": self.phase,
            "error": self.error,
            "source_lines": len(self.source.splitlines()),
            "shrunk_lines": (len(self.shrunk_source.splitlines())
                             if self.shrunk_source else None),
            "shrink_tests": self.shrink_tests,
        }


@dataclass
class FuzzReport:
    """Outcome of one ``run_fuzz`` campaign."""

    seeds: int
    start_seed: int
    degrees: tuple
    packets: int
    cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"fuzz: {self.cases} programs "
                 f"(seeds {self.start_seed}.."
                 f"{self.start_seed + self.seeds - 1}, "
                 f"degrees {','.join(map(str, self.degrees))}, "
                 f"{self.packets} packets): "
                 f"{'ok' if self.ok else 'FAIL'}"]
        for failure in self.failures:
            shrunk = (f", shrunk {len(failure.source.splitlines())} -> "
                      f"{len(failure.shrunk_source.splitlines())} lines "
                      f"in {failure.shrink_tests} tests"
                      if failure.shrunk_source else "")
            lines.append(f"  seed {failure.seed} D={failure.degree} "
                         f"[{failure.phase}] {failure.error}{shrunk}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "start_seed": self.start_seed,
            "degrees": list(self.degrees),
            "packets": self.packets,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [failure.as_dict() for failure in self.failures],
        }


def _fuzz_case(task, *, shrink: bool,
               max_shrink_tests: int) -> FuzzFailure | None:
    """Run (and, on failure, shrink) the case of one ``fuzz`` sweep task.

    Fully determined by the task, so any sweep worker produces the same
    answer for the same seed.
    """
    [degree] = task.degrees
    seed, packets = task.seed, task.packets
    source = random_pps_source(seed)
    try:
        check_program(source, degree, packets=packets, seed=seed)
        return None
    except CheckFailure as exc:
        failure = FuzzFailure(seed=seed, degree=degree, phase=exc.phase,
                              error=str(exc.cause), source=source)
        if shrink:
            signature = exc.signature

            def still_fails(text: str) -> bool:
                try:
                    check_program(text, degree, packets=packets, seed=seed)
                except CheckFailure as candidate:
                    return candidate.signature == signature
                except Exception:
                    return False
                return False

            shrunk, tests = shrink_source(source, still_fails,
                                          max_tests=max_shrink_tests)
            failure.shrink_tests = tests
            if shrunk != source:
                failure.shrunk_source = shrunk
        return failure


def run_fuzz(seeds: int = 50, *, start_seed: int = 0,
             degrees: tuple = (2, 3, 4), packets: int = 24,
             shrink: bool = True, max_shrink_tests: int = 200,
             jobs: int = 1) -> FuzzReport:
    """Fuzz ``seeds`` generated programs through the whole contract.

    Every case gets a deterministic degree from ``degrees`` (round
    robin) and a deterministic input stream, so a failing seed printed
    by CI reproduces locally with the same flags.

    The cases run through :func:`repro.eval.sweep.run_sweep`, one task
    per seed, on ``jobs`` worker processes (``repro fuzz -j``).  Each
    case is a pure function of its seed and results merge in seed
    order, so the report is identical at any parallelism level.  A
    worker that dies raises :class:`~repro.eval.sweep.SweepError`
    naming its seed and a ``repro fuzz --seeds 1`` one-liner.
    """
    report = FuzzReport(seeds=seeds, start_seed=start_seed,
                        degrees=tuple(degrees), packets=packets)
    degrees = report.degrees
    tasks = [SweepTask(kind="fuzz", app="progen",
                       degrees=(degrees[index % len(degrees)],),
                       packets=packets, seed=start_seed + index)
             for index in range(seeds)]
    worker = partial(_fuzz_case, shrink=shrink,
                     max_shrink_tests=max_shrink_tests)
    outcomes = run_sweep(tasks, jobs=jobs, worker=worker)
    report.cases = len(outcomes)
    report.failures = [failure for failure in outcomes
                       if failure is not None]
    return report


# -- verifier self-test: seeded defects --------------------------------------

#: A fixed, hand-written PPS with branches, table state, and live values
#: crossing every cut — the substrate the mutation self-tests corrupt.
SELF_TEST_PPS = """
pipe in_q;
pipe out_q;
readonly memory tbl[16];

pps selfcheck {
    for (;;) {
        int x = pipe_recv(in_q);
        int a = (x * 7) & 255;
        int b = mem_read(tbl, x & 15);
        int c = 0;
        if (a > b) {
            c = (a - b) & 255;
            trace(1, c);
        }
        else {
            c = (a + b) & 255;
            trace(2, c);
        }
        int d = ((c ^ b) + a) & 1023;
        trace(3, d & 7);
        pipe_send(out_q, d);
    }
}
"""


def _mutate_drop_live_var(result):
    """Omit one transmitted variable from a cut's live set."""
    mutated = copy.deepcopy(result)
    for layout in mutated.layouts:
        if not layout.variables:
            continue
        victim = layout.variables[0]
        layout.variables = [reg for reg in layout.variables
                            if reg is not victim]
        layout.live_sets = {target: [reg for reg in regs
                                     if reg is not victim]
                            for target, regs in layout.live_sets.items()}
        layout.slot_of = {reg: slot for reg, slot in layout.slot_of.items()
                          if reg is not victim}
        return mutated
    return None


def _mutate_flip_cut_edge(result):
    """Swap stages 1 and 2 so cut-1 dependences flow backwards."""
    if result.degree < 2:
        return None
    mutated = copy.deepcopy(result)
    flip = {1: 2, 2: 1}
    assignment = mutated.assignment
    assignment.block_stage = {name: flip.get(stage, stage)
                              for name, stage in
                              assignment.block_stage.items()}
    assignment.unit_stage = {unit: flip.get(stage, stage)
                             for unit, stage in
                             assignment.unit_stage.items()}
    return mutated


def _mutate_unbalance_stage(result):
    """Move the heaviest movable unit one stage later and claim every
    cut balanced — a >ε imbalance hiding behind a clean diagnostic."""
    mutated = copy.deepcopy(result)
    model = mutated.model
    assignment = mutated.assignment
    # Unit successors under both dependence and CFG constraints.
    succs: dict[int, set[int]] = {unit: set()
                                  for unit in assignment.unit_stage}
    for edge in model.unit_edges():
        succs[edge.src].add(edge.dst)
    for src_node, dst_node in model.sgraph.edges():
        src_unit = model.unit_of_node(src_node)
        dst_unit = model.unit_of_node(dst_node)
        if src_unit != dst_unit:
            succs[src_unit].add(dst_unit)
    candidates = []
    for unit, stage in assignment.unit_stage.items():
        if stage >= assignment.degree or unit == model.header_unit:
            continue
        if all(assignment.unit_stage[succ] > stage
               for succ in succs[unit] if succ != unit):
            candidates.append((model.unit_weight(unit), unit, stage))
    if not candidates:
        return None
    _, unit, stage = max(candidates)
    assignment.unit_stage[unit] = stage + 1
    for block_name in model.unit_blocks(unit):
        assignment.block_stage[block_name] = stage + 1
    for diag in assignment.diagnostics:
        diag.balanced = True
    return mutated


def _mutate_break_control(result):
    """Point one control-word dispatch case at the wrong block."""
    mutated = copy.deepcopy(result)
    from repro.ir.instructions import SwitchTerm

    for stage in mutated.stages:
        if stage.index == 1 or "stage_recv" not in stage.function.blocks:
            continue
        term = stage.function.block("stage_recv").terminator
        if isinstance(term, SwitchTerm) and term.cases:
            case = min(term.cases)
            original = term.cases[case]
            wrong = next((name for name in stage.function.block_order
                          if name != original), None)
            if wrong is not None:
                term.cases[case] = wrong
                return mutated
    return None


#: The seeded-defect catalogue: name -> mutator(result) -> mutated | None.
DEFECT_MUTATORS = {
    "drop-live-var": _mutate_drop_live_var,
    "flip-cut-edge": _mutate_flip_cut_edge,
    "unbalance-stage": _mutate_unbalance_stage,
    "break-control-object": _mutate_break_control,
}


def seeded_defects(result):
    """Yield (defect name, corrupted deep copy) for each applicable
    mutation; the original ``result`` is never touched."""
    for name, mutate in DEFECT_MUTATORS.items():
        mutated = mutate(result)
        if mutated is not None:
            yield name, mutated


def self_test(degree: int = 3) -> dict:
    """Corrupt a known-good partition each way; the verifier must catch
    every defect.  Returns ``{"missed": [...], "caught": {name: checks}}``.
    """
    module = compile_progen(SELF_TEST_PPS)
    result = pipeline_pps(module, "selfcheck", degree)
    verify_partition(result).raise_if_rejected()  # precondition: clean
    caught: dict[str, list[str]] = {}
    missed: list[str] = []
    applied = 0
    for name, mutated in seeded_defects(result):
        applied += 1
        verdict = verify_partition(mutated)
        if verdict.ok:
            missed.append(name)
        else:
            caught[name] = sorted({finding.check
                                   for finding in verdict.findings})
    if applied < len(DEFECT_MUTATORS):
        skipped = [name for name in DEFECT_MUTATORS
                   if name not in caught and name not in missed]
        missed.extend(skipped)
    return {"missed": missed, "caught": caught}
