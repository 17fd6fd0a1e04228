"""Architectural fault-injection campaigns (extension C in DESIGN.md).

Runs a program repeatedly on the *functional emulator* while injecting
single-bit faults, and classifies each run's architectural outcome —
the classic dependability-benchmarking taxonomy:

=========  =============================================================
masked      a fault struck but the program's outputs and memory match
            the golden run (the error was logically masked);
sdc         silent data corruption: outputs or final memory differ;
crash       the corrupted value caused an architectural exception
            (misaligned access, wild jump) — a detected-by-accident
            failure;
hang        the program exceeded its instruction budget;
clean       no fault struck this run.
=========  =============================================================

This is the "machine without REESE" side of the reproduction's fault
study; the timing-level REESE campaign (detection/recovery) lives in
the pipeline itself via :class:`repro.reese.faults.FaultModel`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import AnalysisResult, CLASS_DEAD, CLASSES, analyze_program
from ..arch.emulator import EmulatorError, emulate
from ..arch.memory import MisalignedAccessError
from ..isa.program import Program
from ..reese.faults import corrupt_value, make_emulator_injector
from .parallel import parallel_map

#: Outcome labels in severity order.
OUTCOMES = ("clean", "masked", "sdc", "crash", "hang")

#: Outcomes that count as architecturally visible corruption.
VISIBLE_OUTCOMES = ("sdc", "crash", "hang")


@dataclass
class CampaignResult:
    """Aggregated outcome counts of an injection campaign."""

    program_name: str
    runs: int
    rate: float
    outcomes: Counter = field(default_factory=Counter)
    injections: int = 0

    @property
    def sdc_fraction(self) -> float:
        struck = self.runs - self.outcomes["clean"]
        return self.outcomes["sdc"] / struck if struck else 0.0

    def report(self) -> str:
        lines = [
            f"fault campaign on {self.program_name!r}: "
            f"{self.runs} runs, per-instruction rate {self.rate:g}, "
            f"{self.injections} total injections",
        ]
        for outcome in OUTCOMES:
            count = self.outcomes.get(outcome, 0)
            lines.append(f"  {outcome:7s} {count:5d} ({count / self.runs:.0%})")
        return "\n".join(lines)


def _classify(program: Program, hook, log: List, max_instructions: int,
              golden_state: Tuple) -> str:
    """Outcome label of one injected emulation.

    ``hook`` is the emulator ``inject`` callback and ``log`` the list it
    appends one record to per injection it performs.
    """
    try:
        run = emulate(program, max_instructions=max_instructions,
                      collect_trace=False, inject=hook)
    except (MisalignedAccessError, EmulatorError):
        return "crash"
    if not log:
        return "clean"
    if not run.halted:
        return "hang"
    if (run.output, run.memory.snapshot()) == golden_state:
        return "masked"
    return "sdc"


def _golden_state(program: Program, max_instructions: int,
                  inject=None) -> Tuple:
    """The ``(output, memory snapshot)`` pair of the fault-free run.

    Raises:
        ValueError: when the golden run does not halt in budget.
    """
    golden = emulate(program, max_instructions=max_instructions,
                     collect_trace=False, inject=inject)
    if not golden.halted:
        raise ValueError("golden run did not halt; raise max_instructions")
    return golden.output, golden.memory.snapshot()


def _campaign_chunk(payload) -> Tuple[Counter, int]:
    """Pool worker: classify a contiguous chunk of run indices.

    Each run's RNG seed is ``seed + run_index`` — a function of the
    run's identity alone — so the aggregate is independent of how the
    index space is chunked or which worker draws which chunk.
    """
    program, rate, seed, max_instructions, golden_state, indices = payload
    outcomes: Counter = Counter()
    injections = 0
    for run_index in indices:
        hook, log = make_emulator_injector(rate=rate, seed=seed + run_index)
        outcomes[_classify(program, hook, log, max_instructions,
                           golden_state)] += 1
        injections += len(log)
    return outcomes, injections


def run_campaign(
    program: Program,
    runs: int = 50,
    rate: float = 1e-3,
    seed: int = 0,
    max_instructions: int = 200_000,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Inject faults over ``runs`` emulations and classify outcomes.

    Args:
        program: the workload (must normally halt within the budget).
        runs: number of injected runs.
        rate: per-instruction bit-flip probability.
        seed: base RNG seed; run ``i`` uses ``seed + i``.
        max_instructions: hang-detection budget.
        jobs: worker processes (``None``/``1`` = sequential).  Outcome
            counts are identical for any value.
    """
    golden_state = _golden_state(program, max_instructions)
    result = CampaignResult(program.name, runs, rate)
    chunks = _chunk_indices(runs, jobs or 1)
    payloads = [
        (program, rate, seed, max_instructions, golden_state, chunk)
        for chunk in chunks
    ]
    for outcomes, injections in parallel_map(_campaign_chunk, payloads, jobs):
        result.outcomes.update(outcomes)
        result.injections += injections
    return result


# ---------------------------------------------------------------------------
# Site-level campaigns: stratified sampling and the static-analysis oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteSample:
    """One planned injection at a classified fault site.

    ``occurrence`` selects which dynamic execution of the static
    instruction is corrupted (0 = the first), ``bit`` which result bit
    flips.  Samples are drawn once, up front, from the run seed — so
    campaign outcomes are independent of worker count and chunking.
    """

    index: int        # static instruction index
    reg: int          # destination register (unified index)
    klass: str        # static prediction: dead / live / control
    occurrence: int
    bit: int


@dataclass(frozen=True)
class MismatchRecord:
    """A dynamic outcome that contradicts the static prediction."""

    program_name: str
    index: int
    reg: int
    klass: str
    occurrence: int
    bit: int
    outcome: str
    instruction: str

    def render(self) -> str:
        return (
            f"{self.program_name}@{self.index} ({self.instruction}): "
            f"{self.klass}-classified site produced {self.outcome!r} "
            f"(occurrence {self.occurrence}, bit {self.bit})"
        )


class OracleMismatch(Exception):
    """A ``dead``-classified fault site produced visible corruption.

    Either the static analysis or the simulator is wrong; the records
    name the exact injections so the disagreement is reproducible.
    """

    def __init__(self, mismatches: Sequence[MismatchRecord]) -> None:
        self.mismatches = list(mismatches)
        lines = [f"{len(self.mismatches)} static-oracle mismatch(es):"]
        lines += [f"  {record.render()}" for record in self.mismatches]
        super().__init__("\n".join(lines))


def make_site_injector(index: int, occurrence: int, bit: int):
    """An ``inject`` hook corrupting one specific dynamic execution.

    Flips ``bit`` of the result of the ``occurrence``-th execution of
    static instruction ``index``.  Returns ``(hook, log)``; ``log``
    records the single injection as ``(seq, op_name, bit)``, matching
    :func:`repro.reese.faults.make_emulator_injector`.
    """
    state = {"seen": 0}
    log: List[Tuple[int, str, int]] = []

    def hook(dyn) -> None:
        if dyn.static_index != index:
            return
        seen = state["seen"]
        state["seen"] = seen + 1
        if seen != occurrence or dyn.result is None:
            return
        dyn.result = corrupt_value(dyn.result, bit)
        log.append((dyn.seq, dyn.op.name, bit))

    return hook, log


def count_site_executions(
    program: Program, max_instructions: int = 200_000
) -> Tuple[Tuple, Counter]:
    """Golden run plus per-static-instruction execution counts.

    Returns ``(golden_state, counts)`` where ``golden_state`` is the
    ``(output, memory snapshot)`` pair campaigns compare against.

    Raises:
        ValueError: when the golden run does not halt in budget.
    """
    counts: Counter = Counter()

    def counting_hook(dyn) -> None:
        counts[dyn.static_index] += 1

    return _golden_state(program, max_instructions, counting_hook), counts


def sample_sites(
    analysis: AnalysisResult,
    exec_counts: Counter,
    runs: int,
    seed: int = 0,
    classes: Optional[Sequence[str]] = None,
) -> List[SiteSample]:
    """Draw a stratified plan of ``runs`` injections.

    The run budget is split across the predicted classes proportionally
    to each class's share of *executed* fault sites (largest-remainder
    rounding; every non-empty class gets at least one sample when the
    budget allows), then sites, occurrences and bits are drawn uniformly
    within each class.  Purely a function of ``(analysis, exec_counts,
    runs, seed)`` — never of worker count.
    """
    wanted = tuple(classes) if classes else CLASSES
    pools: Dict[str, List[Tuple[int, int]]] = {}
    for klass in wanted:
        pool = [
            (index, reg)
            for index, reg in analysis.sites_of(klass)
            if exec_counts.get(index, 0) > 0
        ]
        if pool:
            pools[klass] = pool
    if not pools or runs <= 0:
        return []

    total_sites = sum(len(pool) for pool in pools.values())
    quotas: Dict[str, int] = {}
    remainders: List[Tuple[float, str]] = []
    assigned = 0
    for klass in sorted(pools):
        exact = runs * len(pools[klass]) / total_sites
        quotas[klass] = int(exact)
        assigned += quotas[klass]
        remainders.append((exact - quotas[klass], klass))
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, klass in remainders:
        if assigned >= runs:
            break
        quotas[klass] += 1
        assigned += 1
    if runs >= len(pools):
        for klass in sorted(pools):
            if quotas[klass] == 0:
                donor = max(sorted(quotas), key=lambda k: quotas[k])
                if quotas[donor] > 1:
                    quotas[donor] -= 1
                    quotas[klass] = 1

    rng = random.Random(seed)
    samples: List[SiteSample] = []
    for klass in sorted(pools):
        pool = pools[klass]
        for _ in range(quotas[klass]):
            index, reg = pool[rng.randrange(len(pool))]
            occurrence = rng.randrange(exec_counts[index])
            bit = rng.randrange(32)
            samples.append(SiteSample(index, reg, klass, occurrence, bit))
    return samples


@dataclass
class SiteCampaignResult:
    """Aggregated outcome of a site-level (oracle) campaign."""

    program_name: str
    runs: int
    seed: int
    #: static prediction -> Counter of dynamic outcomes.
    by_class: Dict[str, Counter] = field(default_factory=dict)
    #: executable fault sites per class (the sampling pool).
    site_pool: Counter = field(default_factory=Counter)
    mismatches: List[MismatchRecord] = field(default_factory=list)
    #: ``dead`` samples settled statically (``skip_dead``), no emulation.
    skipped_dead: int = 0
    #: injected emulations actually performed.
    emulations: int = 0
    analysis_from_cache: bool = False

    @property
    def outcomes(self) -> Counter:
        total: Counter = Counter()
        for counter in self.by_class.values():
            total.update(counter)
        return total

    def visible(self, klass: str) -> int:
        """Architecturally visible corruptions among one class."""
        counter = self.by_class.get(klass, Counter())
        return sum(counter[outcome] for outcome in VISIBLE_OUTCOMES)

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            raise OracleMismatch(self.mismatches)

    def report(self) -> str:
        lines = [
            f"site campaign on {self.program_name!r}: {self.runs} "
            f"stratified injections, seed {self.seed} "
            f"({self.emulations} emulations, {self.skipped_dead} dead "
            f"sites settled statically; analysis "
            f"{'cached' if self.analysis_from_cache else 'fresh'})",
            f"  site pool: " + ", ".join(
                f"{klass}={self.site_pool.get(klass, 0)}"
                for klass in CLASSES
            ),
        ]
        header = ["class"] + list(OUTCOMES[1:]) + ["visible"]
        lines.append("  " + "  ".join(f"{cell:>7s}" for cell in header))
        for klass in CLASSES:
            counter = self.by_class.get(klass, Counter())
            row = [klass] + [
                str(counter.get(outcome, 0)) for outcome in OUTCOMES[1:]
            ] + [str(self.visible(klass))]
            lines.append("  " + "  ".join(f"{cell:>7s}" for cell in row))
        if self.mismatches:
            lines.append(f"  ORACLE MISMATCHES: {len(self.mismatches)}")
            lines += [f"    {r.render()}" for r in self.mismatches]
        else:
            lines.append("  oracle: 0 mismatches (every dead-classified "
                         "injection was masked)")
        return "\n".join(lines)


def _site_chunk(payload) -> List[Tuple[int, str]]:
    """Pool worker: classify a chunk of planned site injections."""
    program, max_instructions, golden_state, samples, indices = payload
    out: List[Tuple[int, str]] = []
    for sample_index in indices:
        sample = samples[sample_index]
        hook, log = make_site_injector(sample.index, sample.occurrence,
                                       sample.bit)
        # An empty log ("clean") is defensive: occurrence beyond the
        # execution count.
        out.append((sample_index, _classify(
            program, hook, log, max_instructions, golden_state)))
    return out


def run_site_campaign(
    program: Program,
    runs: int = 60,
    seed: int = 0,
    max_instructions: int = 200_000,
    jobs: Optional[int] = None,
    classes: Optional[Sequence[str]] = None,
    skip_dead: bool = False,
    use_analysis_cache: bool = True,
    analysis_cache_dir: Optional[str] = None,
    strict: bool = False,
) -> SiteCampaignResult:
    """Stratified fault-site campaign cross-checked against the analyzer.

    Each run corrupts one specific ``(instruction, destination
    register)`` site at one dynamic occurrence and classifies the
    architectural outcome; the site's static masking class
    (:func:`repro.analysis.analyze_program`) predicts what is allowed.
    A ``dead``-classified site producing visible corruption is recorded
    as a :class:`MismatchRecord` (and raised as :class:`OracleMismatch`
    when ``strict``).

    Args:
        program: the workload (must halt within ``max_instructions``).
        runs: number of planned injections.
        seed: sampling seed (outcomes are a function of it alone).
        jobs: worker processes; outcomes are worker-count invariant.
        classes: restrict sampling to these classes (default: all).
        skip_dead: settle ``dead`` samples statically as ``masked``
            without emulating them — the campaign-speedup mode (the
            oracle is vacuous for skipped samples).
        use_analysis_cache / analysis_cache_dir: forwarded to
            :func:`analyze_program`.
        strict: raise :class:`OracleMismatch` instead of returning
            mismatches in the result.
    """
    analysis = analyze_program(program, use_cache=use_analysis_cache,
                               cache_dir=analysis_cache_dir)
    golden_state, exec_counts = count_site_executions(
        program, max_instructions
    )
    samples = sample_sites(analysis, exec_counts, runs, seed,
                           classes=classes)

    result = SiteCampaignResult(
        program_name=program.name,
        runs=len(samples),
        seed=seed,
        analysis_from_cache=analysis.from_cache,
    )
    for klass in CLASSES:
        executable = sum(
            1 for index, _reg in analysis.sites_of(klass)
            if exec_counts.get(index, 0) > 0
        )
        if executable:
            result.site_pool[klass] = executable
        result.by_class[klass] = Counter()

    pending: List[int] = []
    for sample_index, sample in enumerate(samples):
        if skip_dead and sample.klass == CLASS_DEAD:
            result.by_class[CLASS_DEAD]["masked"] += 1
            result.skipped_dead += 1
        else:
            pending.append(sample_index)

    chunks = _chunk_indices(len(pending), jobs or 1)
    payloads = [
        (program, max_instructions, golden_state, samples,
         [pending[i] for i in chunk])
        for chunk in chunks
    ]
    for chunk_result in parallel_map(_site_chunk, payloads, jobs):
        for sample_index, outcome in chunk_result:
            sample = samples[sample_index]
            result.by_class[sample.klass][outcome] += 1
            result.emulations += 1
            if sample.klass == CLASS_DEAD and outcome in VISIBLE_OUTCOMES:
                result.mismatches.append(MismatchRecord(
                    program_name=program.name,
                    index=sample.index,
                    reg=sample.reg,
                    klass=sample.klass,
                    occurrence=sample.occurrence,
                    bit=sample.bit,
                    outcome=outcome,
                    instruction=str(program.code[sample.index]),
                ))
    if strict:
        result.raise_on_mismatch()
    return result


def _chunk_indices(runs: int, jobs: int) -> List[Sequence[int]]:
    """Split ``range(runs)`` into at most ``4 * jobs`` contiguous chunks.

    Over-decomposing (4x) keeps the pool load-balanced when run times
    vary (hangs cost the full instruction budget; crashes return early).
    """
    if runs <= 0:
        return []
    target = max(1, min(runs, 4 * max(1, jobs)))
    size, remainder = divmod(runs, target)
    chunks: List[Sequence[int]] = []
    start = 0
    for index in range(target):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(range(start, stop))
        start = stop
    return chunks
