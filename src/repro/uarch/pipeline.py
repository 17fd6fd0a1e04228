"""Cycle-level out-of-order superscalar core with optional REESE.

The model mirrors SimpleScalar 2.0's ``sim-outorder`` organisation
(paper §5.1): a fetch queue feeds dispatch/rename into a **Register
Update Unit** — a circular queue combining reservation stations and a
reorder buffer — with a parallel **load/store queue**; instructions
issue out of order to functional-unit pools and commit in order from
the RUU head.  Stage processing runs in reverse pipeline order each
cycle (commit, writeback, issue, dispatch, fetch), as in sim-outorder.

Execution is driven by the functional emulator's dynamic trace along
the correct path; mispredicted branches switch fetch onto the *static*
program's wrong path, whose instructions occupy the fetch queue, RUU,
LSQ and functional units until the branch resolves at writeback and
squashes them.

With ``config.reese.enabled`` the commit stage implements the REESE
protocol (paper §4):

1. completed P-stream instructions leave the RUU into the
   **R-stream Queue** (freeing their RUU/LSQ entries) instead of
   committing — from the head in program order, or from anywhere in the
   window when ``early_remove`` is on;
2. R-stream instructions issue from the queue into functional-unit
   slots left idle by the P stream (P has priority; a high-water mark
   forces R priority to avoid overflow livelock);
3. when an entry's R execution completes, the commit stage compares the
   P and R results in program order and only then updates architectural
   state (stores write the D-cache here);
4. a mismatch flushes the pipeline *and* the R-stream Queue and
   refetches from the faulting instruction; an instruction that keeps
   failing stops the machine (:class:`~repro.reese.recovery.UnrecoverableFaultError`).

Soft errors are injected by a :class:`~repro.reese.faults.FaultModel`
that corrupts execution results at completion time; in the baseline
model corrupted results commit silently (counted as SDC), while REESE
detects any P/R mismatch.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional

from ..arch.trace import DynInst, Trace
from ..bpred import BTB, ReturnAddressStack, make_predictor
from ..isa.instructions import FUClass, Op, OPINFO
from ..isa.program import Program, TEXT_BASE
from ..isa.registers import REG_RA
from ..isa.instructions import INST_SIZE
from ..memhier.hierarchy import MemoryHierarchy
from ..reese.comparator import p_value as reese_p_value
from ..reese.comparator import reexecute as reese_reexecute
from ..reese.comparator import values_equal
from ..reese.faults import FaultModel, NoFaults, corrupt_value
from ..reese.recovery import RetryTracker, UnrecoverableFaultError
from ..reese.rqueue import R_DONE, R_WAITING, REntry, RStreamQueue
from .config import MachineConfig
from .funits import FUPool
from .stats import Stats


class SimulationDeadlockError(Exception):
    """The pipeline made no commit progress for an implausible interval."""


class SimulationTimeoutError(Exception):
    """The cycle cap expired before every trace instruction committed.

    Carries the partial :class:`~repro.uarch.stats.Stats` as
    :attr:`stats` for diagnosis; the harness must never cache or report
    such a truncated result as if the run had finished.
    """

    def __init__(self, cap: int, committed: int, total: int, stats) -> None:
        self.cap = cap
        self.committed = committed
        self.total = total
        self.stats = stats
        super().__init__(
            f"cycle cap {cap} exhausted with {committed}/{total} "
            f"instructions committed"
        )

    def __reduce__(self):
        # Pickle by constructor arguments, so the error crosses a
        # worker-pool boundary (the default replays the message alone).
        return (type(self), (self.cap, self.committed, self.total, self.stats))


def warm_caches_over(mem: MemoryHierarchy, trace, line_shift: int) -> None:
    """Architecturally touch every I-line, data address and TLB page.

    One functional pass over ``trace`` (any iterable of
    :class:`~repro.arch.trace.DynInst`): instruction lines are fetched
    once per line run, loads/stores touch the data side.  The warm
    pass of :class:`repro.uarch.sampling.WarmState`, which full runs
    and sampled intervals start from, and its fast-forward between
    measurement intervals are both this pass.  The caller resets cache
    statistics afterwards when the pass is warm-up rather than
    measurement.
    """
    # Hoisted bound methods: this loop is the sampled engine's
    # fast-forward path, run over most of the trace per sampled run.
    ifetch = mem.ifetch
    daccess = mem.daccess
    last_line = -1
    for dyn in trace:
        pc = dyn.pc
        line = pc >> line_shift
        if line != last_line:
            ifetch(pc)
            last_line = line
        ea = dyn.ea
        if ea is not None:
            daccess(ea, is_write=dyn.is_store)


def warm_predictor_over(predictor, trace) -> None:
    """Pre-train the direction predictor on a branch stream.

    The counterpart of :func:`warm_caches_over` for the predictor: one
    predict/update pass over every conditional branch in ``trace``.
    The caller zeroes ``predictor.lookups``/``correct`` afterwards when
    the pass is warm-up rather than measurement.
    """
    predict = predictor.predict
    update = predictor.update
    for dyn in trace:
        if dyn.is_cond_branch:
            pc = dyn.pc
            predict(pc)
            update(pc, dyn.taken)


def predict_next(dyn: DynInst, code, predictor, btb: BTB,
                 ras: ReturnAddressStack) -> int:
    """Fetch-time prediction of the static index after branch ``dyn``.

    The one definition of the front end's control-flow policy, shared
    by fetch, :func:`repro.uarch.sampling.mispredict_profile` and the
    warm sweep (:meth:`repro.uarch.sampling.WarmState.advance`).  The
    direction predictor handles conditional branches, direct jumps
    take the target from the instruction word, calls push the RAS,
    ``jr ra`` pops it and other indirect jumps consult the BTB.  Every
    structure trains on the trace's ground truth here, at fetch
    (oracle update timing, DESIGN.md §5), so the sequence of
    predictions is a pure property of the trace.  ``-1`` means no
    target is known (wrong-path fetch stalls).
    """
    fallthrough = dyn.static_index + 1
    if dyn.is_cond_branch:
        taken = predictor.predict_and_update(dyn.pc, dyn.taken)
        return dyn.target_index if taken else fallthrough
    op = dyn.op
    if op is Op.J:
        return dyn.target_index  # direct: target in the instruction word
    if op is Op.JAL:
        ras.push(fallthrough)
        return dyn.target_index
    if op is Op.JR:
        if code[dyn.static_index].rs1 == REG_RA:
            predicted = ras.pop()
        else:
            predicted = btb.lookup(dyn.pc)
        btb.update(dyn.pc, dyn.target_index)
        return predicted if predicted is not None else -1
    if op is Op.JALR:
        ras.push(fallthrough)
        predicted = btb.lookup(dyn.pc)
        btb.update(dyn.pc, dyn.target_index)
        return predicted if predicted is not None else -1
    raise AssertionError(f"not a branch: {op}")


class _Entry:
    """One in-flight instruction (fetch queue / RUU / LSQ resident)."""

    __slots__ = (
        "seq",            # dispatch-order id, unique across refetches
        "dyn",            # DynInst for correct-path, None for wrong path
        "trace_seq",      # dyn.seq, or -1 for wrong path
        "static_index",
        "op",
        "fu",
        "is_load",
        "is_store",
        "is_mem",
        "is_branch",
        "is_halt",
        "wrong_path",
        "srcs",
        "dst",
        "deps",
        "consumers",
        "issued",
        "completed",
        "squashed",
        "mispredicted",
        "recover_cursor",  # trace cursor to resume at after recovery
        "skip_r",          # REESE: this instruction is not re-executed
        "p_fault_bit",     # fault bit flipped in the P result, or None
        "is_shadow",       # dispatch-dup: the duplicate copy
        "shadow",          # dispatch-dup: original -> its duplicate
    )

    def __init__(self) -> None:
        self.seq = 0
        self.dyn: Optional[DynInst] = None
        self.trace_seq = -1
        self.static_index = 0
        self.op = Op.NOP
        self.fu = FUClass.NONE
        self.is_load = False
        self.is_store = False
        self.is_mem = False
        self.is_branch = False
        self.is_halt = False
        self.wrong_path = False
        self.srcs = ()
        self.dst = -1
        self.deps = 0
        self.consumers: List["_Entry"] = []
        self.issued = False
        self.completed = False
        self.squashed = False
        self.mispredicted = False
        self.recover_cursor = -1
        self.skip_r = False
        self.p_fault_bit: Optional[int] = None
        self.is_shadow = False
        self.shadow: Optional["_Entry"] = None


class Pipeline:
    """One simulated machine executing one program trace."""

    #: Cycles without a commit before declaring deadlock.
    DEADLOCK_WINDOW = 20_000

    def __init__(
        self,
        program: Program,
        trace: Trace,
        config: MachineConfig,
        fault_model: Optional[FaultModel] = None,
        probe=None,
        warm_state=None,
        measure_from: Optional[int] = None,
        stop_after: Optional[int] = None,
    ) -> None:
        """
        Args:
            program: the static program (wrong-path fetch walks it).
            trace: dynamic trace from the functional emulator.
            config: machine configuration (Table 1 preset or variant).
            fault_model: optional soft-error injector.
            probe: optional instrumentation probe (the cycle-accounting
                profiler, stage metrics, invariant checker, event
                tracer, or a :class:`repro.uarch.observe.ProbeSet` of
                several; see docs/INTERNALS.md §8).  The pipeline calls
                ``bind(pipeline)`` once constructed, ``notify(event,
                cycle, entry=None, **info)`` at every stage event,
                ``on_cycle(pipeline)`` at the end of every cycle,
                ``reset()`` when the ``measure_from`` window opens and
                ``finalize(stats)`` after the run.  ``None`` (the
                default) keeps the instrumentation-free fast path:
                every hook site is a single ``is not None`` test.
            warm_state: optional pre-warmed architectural state (an
                object with ``mem``, ``predictor``, ``btb`` and ``ras``
                attributes, e.g. :class:`repro.uarch.sampling.WarmState`).
                When given, the pipeline adopts those structures instead
                of building cold ones; without it the machine starts
                cold.  The paper simulates 100 M instructions per
                benchmark, so its caches and predictors run warm; our
                runs are 10⁴-10⁵ instructions and would otherwise be
                dominated by compulsory misses.  Full runs take the
                state at trace position 0 (``run_model(warm=True)``:
                one pass touching every I-line, data address and TLB
                page and training the direction predictor, statistics
                zeroed); the sampled engine hands every measurement
                interval the same state functionally fast-forwarded to
                the interval start.
            measure_from: trace seq whose commit opens the measurement
                window — all statistics (including cache/predictor/FU
                counters) are reset the moment it reaches commit, so
                the returned Stats cover only instructions from this
                seq on.  The sampled engine uses it to run detailed
                warm-up instructions ahead of a measurement interval
                without polluting its numbers.  ``None`` measures the
                whole run.
            stop_after: trace seq whose commit ends the run — younger
                trace instructions are fetched/executed (keeping the
                machine realistically busy behind the measured window)
                but never commit.  The sampled engine's drain padding:
                without it a measurement interval's tail could not
                overlap with successor work the way it does in a full
                run.  ``None`` runs the trace to completion.
        """
        self.program = program
        self.trace = trace
        self.config = config
        self.fault_model = fault_model or NoFaults()
        self.probe = probe
        self.stats = Stats()

        self.fupool = FUPool(config)
        if warm_state is not None:
            self.mem = warm_state.mem
            self.predictor = warm_state.predictor
            self.btb = warm_state.btb
            self.ras = warm_state.ras
        else:
            self.mem = MemoryHierarchy(config.mem)
            self.predictor = make_predictor(
                config.predictor, **config.predictor_kwargs
            )
            self.btb = BTB(config.btb_entries)
            self.ras = ReturnAddressStack(config.ras_depth)

        self.cycle = 0
        self._done = False
        self._next_seq = 0
        self._event_tie = 0
        self._measure_from = measure_from
        self._stop_after = stop_after

        # Front end.
        self.ifq: Deque[_Entry] = deque()
        self.fetch_cursor = 0          # next trace index to fetch
        self.wp_active = False
        self.wp_index = -1             # static index for wrong-path fetch
        self.fetch_blocked_until = 0
        self._last_fetch_line = -1
        self._line_shift = config.mem.l1i.line_size.bit_length() - 1
        self._l1i_hit = config.mem.l1i.hit_latency
        self._l1d_hit = config.mem.l1d.hit_latency

        # Window.
        self.ruu: List[_Entry] = []
        self.lsq: List[_Entry] = []
        self.ready: List[_Entry] = []
        self.create: Dict[int, _Entry] = {}

        # Completion events: (cycle, tie, kind, payload, epoch)
        self._events: List = []

        # Architectural progress.
        self.commit_seq = 0            # next trace seq expected to commit

        # REESE.  Zero-valued knobs are "auto": the R-stream Queue scales
        # with the RUU (paper §7 sizes it at "slightly more area than the
        # RUU") and R dispatch is bound by issue slots / functional units
        # rather than dedicated dequeue ports.
        reese = config.reese
        self.reese_on = reese.enabled
        rqueue_size = reese.rqueue_size or max(32, config.ruu_size)
        self.rqueue = RStreamQueue(rqueue_size) if self.reese_on else None
        self.rq_epoch = 0
        self.retry = RetryTracker(reese.max_retry)
        self._r_high_water = rqueue_size - min(
            reese.high_water_margin, rqueue_size - 1
        )
        self._r_issue_width = reese.r_issue_width or config.issue_width

        # Dispatch-duplication comparison scheme (related work, §3).
        self.dup_on = config.dispatch_dup
        # Duty cycle: re-execute one instruction in every _duty_period.
        self._duty_period = max(1, round(1.0 / reese.r_duty_cycle))
        if probe is not None:
            probe.bind(self)

    # ==================================================================
    # driver
    # ==================================================================

    def run(self, max_cycles: Optional[int] = None) -> Stats:
        """Simulate until every trace instruction has committed.

        Args:
            max_cycles: optional hard cap (for tests); the default cap
                scales with trace length as a runaway backstop.

        Returns:
            The populated :class:`~repro.uarch.stats.Stats`.

        Raises:
            SimulationDeadlockError: if no instruction commits for
                :data:`DEADLOCK_WINDOW` cycles.
            SimulationTimeoutError: the cycle cap ran out before every
                trace instruction committed.  Truncated runs used to
                return partial Stats silently, so a too-small cap
                quietly produced figures computed over a prefix of the
                workload; exhaustion is now an explicit error carrying
                the partial Stats.
            UnrecoverableFaultError: REESE retry budget exhausted.
        """
        total = len(self.trace)
        if total == 0:
            return self._finalize()
        cap = max_cycles if max_cycles is not None else 400 * total + 100_000
        last_commit_cycle = 0
        last_committed = 0
        probe = self.probe  # hoisted: fixed for the whole run

        while not self._done and self.cycle < cap:
            self._commit()
            self._writeback()
            self._issue()
            self._dispatch()
            self._fetch()
            if probe is not None:
                probe.on_cycle(self)  # end-of-cycle state, pre-increment
            self.cycle += 1
            self.stats.cycles += 1
            if self.reese_on:
                occ = len(self.rqueue)
                self.stats.rqueue_occ_sum += occ
                if occ > self.stats.rqueue_occ_max:
                    self.stats.rqueue_occ_max = occ
            if not self.ifq and not self.ruu:
                if self.commit_seq >= total:
                    self._done = True
            if self.stats.committed != last_committed:
                last_committed = self.stats.committed
                last_commit_cycle = self.cycle
            elif self.cycle - last_commit_cycle > self.DEADLOCK_WINDOW:
                raise SimulationDeadlockError(
                    f"no commit for {self.DEADLOCK_WINDOW} cycles at cycle "
                    f"{self.cycle} (commit_seq={self.commit_seq}/{total}, "
                    f"ruu={len(self.ruu)}, ifq={len(self.ifq)}, "
                    f"rqueue={len(self.rqueue) if self.rqueue else 0})"
                )
        if not self._done:
            raise SimulationTimeoutError(
                cap, self.stats.committed, total, self._finalize()
            )
        return self._finalize()

    def _begin_measurement(self) -> None:
        """Open the measurement window: zero every statistic in place.

        Fires once, when the ``measure_from`` instruction reaches
        commit.  Machine state (caches, predictor, queues, in-flight
        work) is untouched — only counters reset, so the Stats this run
        returns describe the measured window of a machine that was
        already realistically busy.
        """
        self._measure_from = None
        stats = self.stats
        for name in Stats._SUM_FIELDS:
            setattr(stats, name, 0)
        for name in Stats._MAX_FIELDS:
            setattr(stats, name, 0)
        self.mem.reset_stats()
        self.predictor.lookups = 0
        self.predictor.correct = 0
        for key in self.fupool.issues:
            self.fupool.issues[key] = 0
        for key in self.fupool.issues_r:
            self.fupool.issues_r[key] = 0
        if self.probe is not None:
            self.probe.reset()

    def _finalize(self) -> Stats:
        stats = self.stats
        stats.halted = self._done
        stats.bpred_accuracy = self.predictor.accuracy
        stats.fu_issues = dict(self.fupool.issues)
        stats.cache_stats = self.mem.stat_dict()
        if self.probe is not None:
            self.probe.finalize(stats)
        return stats

    # ==================================================================
    # commit
    # ==================================================================

    def _commit(self) -> None:
        if self.reese_on:
            self._commit_reese()
        elif self.dup_on:
            self._commit_dup()
        else:
            self._commit_baseline()

    def _commit_baseline(self) -> None:
        budget = self.config.commit_width
        ruu = self.ruu
        while budget and ruu:
            head = ruu[0]
            if head.wrong_path or not head.completed:
                break
            if head.is_store and not self._write_store(head.dyn.ea):
                break
            if head.trace_seq == self._measure_from:
                self._begin_measurement()
            done = self._retire(head.dyn, entry=head)
            if head.p_fault_bit is not None:
                # No comparator: the corrupted result commits silently.
                self.stats.sdc_commits += 1
            ruu.pop(0)
            if head.is_mem:
                self._lsq_remove(head)
            if done:
                return
            budget -= 1

    def _commit_dup(self) -> None:
        """Commit for the dispatch-duplication scheme.

        The RUU head holds the original; its duplicate sits right
        behind it.  Both must have completed; their (possibly
        fault-corrupted) results are compared and the instruction
        retires once.  A mismatch triggers the same flush-and-refetch
        recovery as REESE.
        """
        budget = self.config.commit_width
        ruu = self.ruu
        while budget and ruu:
            head = ruu[0]
            if head.wrong_path or not head.completed:
                break
            shadow = head.shadow
            if shadow is not None and not shadow.completed:
                break
            if head.trace_seq == self._measure_from:
                self._begin_measurement()
            if shadow is not None:
                p_val = reese_p_value(head.dyn)
                if head.p_fault_bit is not None:
                    p_val = corrupt_value(p_val, head.p_fault_bit)
                r_val = reese_reexecute(head.dyn)
                if shadow.p_fault_bit is not None:
                    r_val = corrupt_value(r_val, shadow.p_fault_bit)
                if not self._compare(head.trace_seq, p_val, head.p_fault_bit,
                                     r_val, shadow.p_fault_bit, entry=head):
                    return
            if head.is_store and not self._write_store(head.dyn.ea):
                break
            done = self._retire(head.dyn, entry=head)
            ruu.pop(0)
            if head.is_mem:
                self._lsq_remove(head)
            if shadow is not None:
                # The duplicate is adjacent: remove it too.
                if ruu and ruu[0] is shadow:
                    ruu.pop(0)
                else:  # pragma: no cover - defensive
                    ruu.remove(shadow)
                if shadow.is_mem:
                    self._lsq_remove(shadow)
            if done:
                return
            budget -= 1

    def _commit_reese(self) -> None:
        # Phase 1: final commit — compare and retire from the R-stream
        # Queue in program order (frees queue slots for phase 2).
        budget = self.config.commit_width
        rqueue = self.rqueue
        probe = self.probe
        while budget:
            rentry = rqueue.committable(self.commit_seq)
            if rentry is None:
                break
            dyn = rentry.dyn
            if rentry.seq == self._measure_from:
                self._begin_measurement()
            if not rentry.skip_r:
                if not self._compare(rentry.seq, rentry.p_value,
                                     rentry.p_fault_bit, rentry.r_value,
                                     rentry.r_fault_bit, rentry=rentry):
                    return
            elif rentry.p_fault_bit is not None:
                # Re-execution skipped (duty cycle): corruption escapes.
                self.stats.sdc_commits += 1
            if dyn.is_store:
                if not self._write_store(dyn.ea):
                    break
                if rentry.lsq_entry is not None:
                    self._lsq_remove(rentry.lsq_entry)
            rqueue.pop(rentry.seq)
            if self._retire(dyn, rentry=rentry):
                return
            budget -= 1

        # Phase 2: move completed P instructions from the RUU into the
        # R-stream Queue (program order; early_remove allows skipping
        # over incomplete older entries).  An early move must leave
        # enough free queue slots for every *older* unmoved instruction
        # — entries drain from the queue strictly in program order, so
        # filling it with younger entries would deadlock the oldest.
        moves = self.config.commit_width
        early = self.config.reese.early_remove
        ruu = self.ruu
        index = 0
        older_unmoved = 0
        while moves and index < len(ruu):
            entry = ruu[index]
            if entry.wrong_path:
                break
            if not entry.completed:
                if early:
                    older_unmoved += 1
                    index += 1
                    continue
                break
            if rqueue.free_slots <= older_unmoved:
                self.stats.rqueue_full_events += 1
                if probe is not None:
                    probe.notify("rqueue_full", self.cycle, entry)
                break
            self._move_to_rqueue(entry)
            ruu.pop(index)
            if entry.is_load:
                self._lsq_remove(entry)
            # Stores keep their LSQ slot until the post-comparison commit:
            # the LSQ entry is the store buffer, and memory must not be
            # written before the R-stream verification passes (§4.3).
            moves -= 1

    def _move_to_rqueue(self, entry: _Entry) -> None:
        dyn = entry.dyn
        skip_r = entry.skip_r
        p_val = reese_p_value(dyn)
        if entry.p_fault_bit is not None:
            p_val = corrupt_value(p_val, entry.p_fault_bit)
        rentry = REntry(
            seq=entry.trace_seq,
            dyn=dyn,
            p_value=p_val,
            fu=self._r_fu_class(entry),
            inserted_cycle=self.cycle,
            skip_r=skip_r,
        )
        rentry.p_fault_bit = entry.p_fault_bit
        if entry.is_store:
            rentry.lsq_entry = entry
        self.rqueue.push(rentry)
        if self.probe is not None:
            self.probe.notify("rqueue", self.cycle, entry)
        self.stats.rqueue_moves += 1

    @staticmethod
    def _r_fu_class(entry: _Entry) -> FUClass:
        """Functional-unit class used by the redundant execution."""
        if entry.is_load:
            return FUClass.MEM_PORT
        if entry.is_store or entry.is_branch:
            # Address / direction recomputation runs on an integer ALU.
            return FUClass.INT_ALU
        if entry.fu is FUClass.NONE:
            return FUClass.INT_ALU
        return entry.fu

    def _compare(self, trace_seq: int, p_val, p_bit: Optional[int], r_val,
                 r_bit: Optional[int], entry: Optional[_Entry] = None,
                 rentry: Optional[REntry] = None) -> bool:
        """The commit-time P/R comparison of REESE and dispatch-dup.

        ``p_val``/``r_val`` are the (possibly corrupted) results and
        ``p_bit``/``r_bit`` the fault bits that corrupted them.  A
        mismatch is a detected error: the machine flushes and refetches
        from ``trace_seq`` (or stops once its retries run out) and the
        caller must stop committing this cycle (False).
        """
        self.stats.comparisons += 1
        match = values_equal(p_val, r_val)
        if self.probe is not None:
            self.probe.notify("compare", self.cycle, entry, rentry=rentry,
                              match=match)
        if not match:
            self.stats.errors_detected += 1
            self.stats.recoveries += 1
            if self.retry.record_failure(trace_seq):
                self.stats.unrecoverable = True
                raise UnrecoverableFaultError(trace_seq, self.retry.failures)
            self._flush_all(refetch_cursor=trace_seq)
            return False
        if p_bit is not None and r_bit is not None:
            # Both corrupted identically inside one environmental
            # event: comparison passes, the error escapes.
            self.stats.errors_undetected_same_event += 1
        return True

    def _retire(self, dyn: DynInst, entry: Optional[_Entry] = None,
                rentry: Optional[REntry] = None) -> bool:
        """Architectural retirement of ``dyn`` on every commit path.

        ``entry`` is the retiring RUU entry (baseline, dispatch-dup) or
        ``rentry`` the R-stream Queue entry (REESE).  Returns True when
        this commit ends the run (a halt, or the ``stop_after`` seq).
        """
        seq = dyn.seq
        self.retry.record_success(seq)
        if self.probe is not None:
            self.probe.notify("commit", self.cycle, entry, trace_seq=seq,
                              rentry=rentry)
        self.stats.committed += 1
        self.commit_seq = seq + 1
        if dyn.op is Op.HALT or seq == self._stop_after:
            self._done = True
        return self._done

    def _write_store(self, ea: int) -> bool:
        """Commit a store's D-cache write through a memory port.

        Returns False, writing nothing, when no port is free this cycle.
        """
        if self.fupool.acquire(FUClass.MEM_PORT, self.cycle) is None:
            return False
        self.mem.daccess(ea, is_write=True)
        return True

    def _flush_all(self, refetch_cursor: int) -> None:
        """Full pipeline + R-stream Queue flush (REESE error recovery)."""
        self.stats.squashed += len(self.ifq) + len(self.ruu)
        self.ifq.clear()
        for entry in self.ruu:
            entry.squashed = True
        self.ruu.clear()
        self.lsq.clear()
        self.ready.clear()
        self.create.clear()
        self.rq_epoch += 1
        if self.rqueue is not None:
            self.rqueue.clear()
        self.wp_active = False
        self.wp_index = -1
        self.fetch_cursor = refetch_cursor
        self.fetch_blocked_until = self.cycle + 1
        self._last_fetch_line = -1
        # Notify last, with the machine already clean: probes (the
        # invariant checker in particular) see the post-flush state.
        if self.probe is not None:
            self.probe.notify("recover", self.cycle)

    # ==================================================================
    # writeback
    # ==================================================================

    def _writeback(self) -> None:
        events = self._events
        cycle = self.cycle
        while events and events[0][0] <= cycle:
            _, _, kind, payload, epoch = heapq.heappop(events)
            if kind == 0:
                self._complete_p(payload)
            else:
                if epoch == self.rq_epoch:
                    self._complete_r(payload)

    def _complete_p(self, entry: _Entry) -> None:
        if entry.squashed:
            return
        entry.completed = True
        if self.probe is not None:
            self.probe.notify("complete", self.cycle, entry)
        if not entry.wrong_path and entry.dyn is not None:
            bit = self.fault_model.sample(self.cycle)
            if bit is not None and reese_p_value(entry.dyn) is not None:
                entry.p_fault_bit = bit
        for consumer in entry.consumers:
            if consumer.squashed or consumer.issued:
                continue
            consumer.deps -= 1
            if consumer.deps == 0:
                self.ready.append(consumer)
        entry.consumers = []
        if entry.mispredicted and not entry.squashed:
            self._recover_mispredict(entry)

    def _complete_r(self, rentry: REntry) -> None:
        separation = self.cycle - rentry.inserted_cycle
        self.stats.pr_separation_sum += separation
        self.stats.pr_separation_count += 1
        if separation > self.stats.pr_separation_max:
            self.stats.pr_separation_max = separation
        r_val = reese_reexecute(rentry.dyn)
        bit = self.fault_model.sample(self.cycle)
        if bit is not None and r_val is not None:
            r_val = corrupt_value(r_val, bit)
            rentry.r_fault_bit = bit
        rentry.r_value = r_val
        rentry.state = R_DONE
        if self.probe is not None:
            self.probe.notify(
                "r_complete", self.cycle, trace_seq=rentry.seq,
                rentry=rentry,
            )

    def _recover_mispredict(self, branch: _Entry) -> None:
        """Squash everything younger than a resolved mispredicted branch."""
        seq = branch.seq
        squashed = len(self.ifq)
        self.ifq.clear()
        survivors: List[_Entry] = []
        # The branch's own duplicate (dispatch-dup scheme) is younger by
        # one sequence number but belongs to the branch: keep it.
        keep = branch.shadow
        probe = self.probe
        for entry in self.ruu:
            if entry.seq > seq and entry is not keep:
                entry.squashed = True
                squashed += 1
                if probe is not None:
                    probe.notify("squash", self.cycle, entry)
            else:
                survivors.append(entry)
        self.ruu = survivors
        self.lsq = [
            entry for entry in self.lsq
            if entry.seq <= seq or entry is keep
        ]
        self.ready = [
            entry for entry in self.ready
            if entry.seq <= seq or entry is keep
        ]
        # Rebuild the create vector from surviving in-flight producers.
        self.create.clear()
        for entry in self.ruu:
            if entry.dst >= 0 and not entry.completed:
                self.create[entry.dst] = entry
        self.stats.squashed += squashed
        # Redirect fetch to the correct path.
        self.wp_active = False
        self.wp_index = -1
        self.fetch_cursor = branch.recover_cursor
        self.fetch_blocked_until = max(self.fetch_blocked_until, self.cycle + 1)
        self._last_fetch_line = -1
        branch.mispredicted = False
        if probe is not None:
            probe.notify("mispredict", self.cycle, branch)

    # ==================================================================
    # issue
    # ==================================================================

    def _issue(self) -> None:
        budget = self.config.issue_width
        r_budget = self._r_issue_width if self.reese_on else 0
        if self.reese_on and len(self.rqueue) >= self._r_high_water:
            before = min(budget, r_budget)
            left = self._issue_r(before)
            issued = before - left
            budget -= issued
            r_budget -= issued
        budget = self._issue_p(budget)
        if self.reese_on and budget and r_budget:
            self._issue_r(min(budget, r_budget))

    def _issue_p(self, budget: int) -> int:
        if not budget or not self.ready:
            return budget
        self.ready.sort(key=lambda entry: entry.seq)
        leftover: List[_Entry] = []
        cycle = self.cycle
        probe = self.probe
        for entry in self.ready:
            if entry.squashed or entry.issued:
                continue
            if not budget:
                leftover.append(entry)
                continue
            latency = self._try_issue_entry(entry, cycle)
            if latency is None:
                leftover.append(entry)
                continue
            entry.issued = True
            self._schedule_p(entry, cycle + latency)
            if probe is not None:
                probe.notify("issue", cycle, entry)
            self.stats.issued += 1
            if entry.wrong_path:
                self.stats.issued_wrong_path += 1
            if entry.is_shadow:
                self.stats.issued_r += 1  # redundant copy (dispatch dup)
            budget -= 1
        self.ready = leftover
        return budget

    def _try_issue_entry(self, entry: _Entry, cycle: int) -> Optional[int]:
        """Attempt to issue one P-stream entry; returns latency or None."""
        if entry.is_store:
            # Stores need no FU: address+data merge into the LSQ entry.
            return 1
        if entry.is_load:
            return self._try_issue_load(entry, cycle)
        grant = self._acquire_p(entry, entry.fu, cycle)
        return None if grant is None else max(1, grant)

    def _try_issue_load(self, entry: _Entry, cycle: int) -> Optional[int]:
        ea = entry.dyn.ea if entry.dyn is not None else None
        forward = False
        for older in self.lsq:
            if older is entry:
                break
            if not older.is_store:
                continue
            if not older.completed:
                return None  # older store address unknown: block the load
            if (
                ea is not None
                and older.dyn is not None
                and older.dyn.ea is not None
                and (older.dyn.ea & ~3) == (ea & ~3)
            ):
                forward = True  # youngest older match wins; keep scanning
        if forward:
            self.stats.load_forwards += 1
            return 1  # store-to-load forwarding inside the LSQ
        if self._acquire_p(entry, FUClass.MEM_PORT, cycle) is None:
            return None
        if entry.wrong_path or ea is None:
            return self._l1d_hit  # wrong path: no cache state pollution
        return max(1, self.mem.daccess(ea, is_write=False))

    def _acquire_p(self, entry: _Entry, fu: FUClass,
                   cycle: int) -> Optional[int]:
        """Acquire a unit of ``fu`` for P entry ``entry``, or raise
        ``fu_block``; returns the grant (None when every unit is busy)."""
        grant = self.fupool.acquire(fu, cycle, entry.is_shadow)
        if grant is None:
            if self.probe is not None:
                self.probe.notify("fu_block", cycle, entry, fu=fu)
        return grant

    def _issue_r(self, budget: int) -> int:
        cycle = self.cycle
        rqueue = self.rqueue
        probe = self.probe
        acquire = self.fupool.acquire
        # FU classes already found busy this cycle: nothing frees a unit
        # within the call, so a second acquire would fail too.
        full = []
        for rentry in rqueue.waiting_entries():
            if not budget:
                break
            fu = rentry.fu
            grant = None
            if fu not in full:
                grant = acquire(fu, cycle, True)
                if grant is None:
                    full.append(fu)
            if grant is None:
                if probe is not None:
                    probe.notify("fu_block", cycle, rentry=rentry)
                continue  # FU busy: skip — R entries are independent
            if fu is FUClass.MEM_PORT:
                latency = self._l1d_hit  # R loads always hit in L1 (§4.4)
            else:
                latency = max(1, grant)
            rqueue.mark_issued(rentry)
            self._schedule_r(rentry, cycle + latency)
            if probe is not None:
                probe.notify(
                    "r_issue", cycle, trace_seq=rentry.seq, rentry=rentry
                )
            self.stats.issued_r += 1
            budget -= 1
        return budget

    def _schedule_p(self, entry: _Entry, finish: int) -> None:
        self._event_tie += 1
        heapq.heappush(self._events, (finish, self._event_tie, 0, entry, 0))

    def _schedule_r(self, rentry: REntry, finish: int) -> None:
        self._event_tie += 1
        heapq.heappush(
            self._events, (finish, self._event_tie, 1, rentry, self.rq_epoch)
        )

    # ==================================================================
    # dispatch
    # ==================================================================

    def _dispatch(self) -> None:
        budget = self.config.decode_width
        ruu_size = self.config.ruu_size
        lsq_size = self.config.lsq_size
        ifq = self.ifq
        probe = self.probe
        while budget and ifq:
            entry = ifq[0]
            duplicate = (
                self.dup_on
                and not entry.wrong_path
                and entry.fu is not FUClass.NONE
                and not entry.is_halt
            )
            slots_needed = 2 if duplicate else 1
            if len(self.ruu) > ruu_size - slots_needed:
                self.stats.ruu_full_events += 1
                if probe is not None:
                    probe.notify("dispatch_block", self.cycle, entry,
                                 structure="ruu")
                break
            if entry.is_mem and len(self.lsq) > lsq_size - slots_needed:
                self.stats.lsq_full_events += 1
                if probe is not None:
                    probe.notify("dispatch_block", self.cycle, entry,
                                 structure="lsq")
                break
            if duplicate and budget < 2:
                break  # original and duplicate dispatch together
            ifq.popleft()
            self._dispatch_one(entry)
            budget -= 1
            if duplicate:
                shadow = self._make_shadow(entry)
                entry.shadow = shadow
                self._dispatch_one(shadow)
                budget -= 1

    def _dispatch_one(self, entry: _Entry) -> None:
        if self.probe is not None:
            self.probe.notify("dispatch", self.cycle, entry)
        self._rename(entry)
        self.ruu.append(entry)
        if entry.is_mem:
            self.lsq.append(entry)
        self.stats.dispatched += 1
        if entry.wrong_path:
            self.stats.dispatched_wrong_path += 1
        if entry.fu is FUClass.NONE:
            # nop/halt: no execution; completes next cycle.
            entry.issued = True
            self._schedule_p(entry, self.cycle + 1)
        elif entry.deps == 0:
            self.ready.append(entry)

    def _make_shadow(self, original: _Entry) -> _Entry:
        """The duplicate copy for the dispatch-duplication scheme."""
        shadow = _Entry()
        # The duplicate shares its original's age: squash decisions and
        # issue-priority ordering must treat the pair as one instruction.
        shadow.seq = original.seq
        shadow.dyn = original.dyn
        shadow.trace_seq = original.trace_seq
        shadow.static_index = original.static_index
        shadow.op = original.op
        shadow.fu = original.fu
        shadow.is_load = original.is_load
        shadow.is_store = original.is_store
        shadow.is_branch = original.is_branch
        shadow.is_mem = original.is_mem
        shadow.is_halt = original.is_halt
        shadow.srcs = original.srcs
        shadow.dst = -1  # the duplicate produces nothing architectural
        shadow.is_shadow = True
        return shadow

    def _rename(self, entry: _Entry) -> None:
        deps = 0
        create = self.create
        for src in entry.srcs:
            producer = create.get(src)
            if (
                producer is not None
                and not producer.completed
                and not producer.squashed
            ):
                deps += 1
                producer.consumers.append(entry)
        entry.deps = deps
        if entry.dst >= 0:
            create[entry.dst] = entry

    # ==================================================================
    # fetch
    # ==================================================================

    def _fetch(self) -> None:
        if self.fetch_blocked_until > self.cycle:
            return
        budget = self.config.fetch_width
        ifq_cap = self.config.fetch_queue_size
        trace = self.trace
        ifq = self.ifq
        probe = self.probe
        fetched_any = False
        while budget and len(ifq) < ifq_cap:
            if self.wp_active:
                entry = self._fetch_wrong_path()
            elif self.fetch_cursor < len(trace):
                entry = self._fetch_correct_path(trace[self.fetch_cursor])
            else:
                break
            if entry is None:
                break
            ifq.append(entry)
            if probe is not None:
                probe.notify("fetch", self.cycle, entry)
            fetched_any = True
            budget -= 1
        if not fetched_any and not ifq:
            self.stats.ifq_empty_cycles += 1

    def _fetch_correct_path(self, dyn: DynInst) -> Optional[_Entry]:
        """Fetch trace instruction ``dyn``: its new entry, or None when
        an I-cache miss stalls fetch."""
        # Instruction-cache probe (one access per line).
        line = dyn.pc >> self._line_shift
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            latency = self.mem.ifetch(dyn.pc)
            if latency > self._l1i_hit:
                # Miss: fetch stalls for the extra cycles.
                self.fetch_blocked_until = self.cycle + (latency - self._l1i_hit)
                return None

        entry = self._make_entry(dyn=dyn, static_index=dyn.static_index)
        self.stats.fetched += 1
        if dyn.is_load:
            self.stats.loads += 1
        elif dyn.is_store:
            self.stats.stores += 1
        if self.reese_on:
            entry.skip_r = (
                entry.fu is FUClass.NONE
                or entry.is_halt
                or (dyn.seq % self._duty_period) != 0
            )
            if entry.skip_r and entry.fu is not FUClass.NONE and not entry.is_halt:
                self.stats.r_skipped_duty += 1

        if dyn.is_branch:
            self.stats.branches += 1
            if dyn.is_cond_branch:
                self.stats.cond_branches += 1
            predicted = predict_next(dyn, self.program.code, self.predictor,
                                     self.btb, self.ras)
            if predicted == dyn.next_index:
                self.fetch_cursor += 1
            else:
                self.stats.mispredictions += 1
                entry.mispredicted = True
                entry.recover_cursor = self.fetch_cursor + 1
                self.wp_active = True
                self.wp_index = predicted  # -1 stalls wrong-path fetch
                self._last_fetch_line = -1
        else:
            self.fetch_cursor += 1
        return entry

    def _fetch_wrong_path(self) -> Optional[_Entry]:
        """Fetch the next wrong-path instruction: its new entry, or None
        when wrong-path fetch has nowhere to go (a stall)."""
        index = self.wp_index
        code = self.program.code
        if index < 0 or index >= len(code):
            return None
        inst = code[index]
        info = OPINFO[inst.op]
        entry = self._make_entry(dyn=None, static_index=index, inst=inst)
        entry.wrong_path = True
        self.stats.fetched_wrong_path += 1

        # Walk the wrong path by predictor direction / direct targets.
        op = inst.op
        if info.is_halt:
            self.wp_index = -1
        elif info.is_cond_branch:
            pc = TEXT_BASE + index * INST_SIZE
            taken = self.predictor.predict(pc)  # consult, never train
            self.wp_index = inst.imm if taken else index + 1
        elif op in (Op.J, Op.JAL):
            self.wp_index = inst.imm
        elif op in (Op.JR, Op.JALR):
            self.wp_index = -1  # indirect target unknown on the wrong path
        else:
            self.wp_index = index + 1
        return entry

    def _make_entry(
        self,
        dyn: Optional[DynInst],
        static_index: int,
        inst=None,
    ) -> _Entry:
        entry = _Entry()
        entry.seq = self._next_seq
        self._next_seq += 1
        entry.static_index = static_index
        if dyn is not None:
            entry.dyn = dyn
            entry.trace_seq = dyn.seq
            entry.op = dyn.op
            entry.fu = dyn.fu
            entry.is_load = dyn.is_load
            entry.is_store = dyn.is_store
            entry.is_branch = dyn.is_branch
            entry.srcs = dyn.srcs
            entry.dst = dyn.dst
            entry.is_halt = dyn.op is Op.HALT
        else:
            info = OPINFO[inst.op]
            entry.op = inst.op
            entry.fu = info.fu
            entry.is_load = info.is_load
            entry.is_store = info.is_store
            entry.is_branch = info.is_branch
            entry.srcs = inst.srcs()
            entry.dst = inst.dst()
            entry.is_halt = info.is_halt
        entry.is_mem = entry.is_load or entry.is_store
        return entry

    # ==================================================================
    # helpers
    # ==================================================================

    def _lsq_remove(self, entry: _Entry) -> None:
        try:
            self.lsq.remove(entry)
        except ValueError:  # pragma: no cover - defensive
            pass
