"""Pipeline probes: event tracing, stage metrics, invariants.

The timing core (:mod:`repro.uarch.pipeline`) exposes only end-of-run
aggregates through :class:`~repro.uarch.stats.Stats`; this module is
the instrumentation layer that makes cycle-level micro-behaviour —
R-stream instructions slotting into idle functional units, the
R-stream Queue draining before commit, P/R results meeting at the
comparator — visible and checkable.  Every piece is a **probe**: an
object with the five hooks of :class:`Probe` that the pipeline calls
through its single ``probe`` argument, **zero-overhead when off** (an
uninstrumented pipeline takes exactly one ``probe is not None`` branch
per hook site).  Besides the cycle-accounting profiler
(:class:`repro.uarch.accounting.CycleAccountant`), the probes are:

* :class:`EventTracer` — a structured **event trace**.  Every stage
  event (fetch/dispatch/issue/writeback/commit/flush/R-issue/compare,
  plus squash and R-queue insertion) becomes a :class:`TraceEvent`
  carrying cycle, stream tag (``P``/``R``), pipeline and trace sequence
  numbers, opcode and functional-unit class, emitted through a
  pluggable sink: :class:`RingBufferSink` (bounded, in-memory),
  :class:`JSONLSink` (deterministic, byte-stable JSON lines — the
  golden-file oracle for regression tests) or :class:`CallbackSink`.
  :class:`Timeline` renders collected events as a SimpleScalar
  ``ptrace``-style per-instruction stage table.

* :class:`StageMetrics` — a **per-stage metrics registry**: per-cycle
  occupancy histograms for the fetch queue, RUU, LSQ and R-stream
  Queue, functional-unit issue counts split by P vs R stream, and
  stall-reason counters.  The registry folds into
  ``Stats.stage_metrics`` (hence ``Stats.state_dict()``), so the
  on-disk result cache and the reporting layer carry it for free.

* :class:`InvariantChecker` — a **runtime invariant checker** that,
  when enabled, validates pipeline legality as the simulation runs and
  raises a structured :class:`InvariantViolation` naming the invariant,
  cycle and instruction.  The catalogue (see :data:`INVARIANTS`)
  includes: commit order equals program order; a committed result must
  match its ISA re-execution oracle (this is what turns a silently
  committed corrupted value — an SDC — into a loud failure); the
  R stream never issues before its P result exists; R-stream Queue
  entries carry operands/results matching the P writeback; a flush
  leaves no stale entries anywhere; and structural capacity/ordering
  limits on the RUU, LSQ, ready list and R-stream Queue.

:class:`ProbeSet` fans the hooks out to several probes, and an
:class:`Instrumentation` value says which probes a run gets.  The
harness carries one ``Instrumentation`` per :class:`SimJob`, set from
``--observe``, ``--check-invariants``, ``--profile`` and ``--trace``
(CLI); ``REPRO_CHECK_INVARIANTS=1`` turns the checker on for every
unfaulted harness run (the tier-1 smoke configuration).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..reese.comparator import describe_mismatch, p_value, reexecute, values_equal
from ..reese.faults import corrupt_value
from .accounting import CycleAccountant

#: Bump when TraceEvent field names / semantics change (golden traces).
EVENT_SCHEMA_VERSION = 1

#: Event kinds a tracer can emit, in pipeline-stage order.
EVENT_KINDS = (
    "fetch",
    "dispatch",
    "issue",
    "writeback",
    "rqueue_insert",
    "compare",
    "commit",
    "squash",
    "flush",
)

#: The invariant catalogue: name -> what must hold (documentation and
#: the closed set of values ``InvariantViolation.invariant`` can take).
INVARIANTS: Dict[str, str] = {
    "commit-order": "instructions commit in program order, exactly once",
    "commit-oracle": "a committed result equals its ISA re-execution",
    "r-before-p": "an R-stream instruction only issues after its P "
                  "result exists (and while it is queue-resident)",
    "rqueue-fidelity": "an R-stream Queue entry carries the operands "
                       "and result of the matching P writeback",
    "flush-residue": "a full flush leaves no stale entry in any "
                     "pipeline structure or the R-stream Queue",
    "structural": "occupancy never exceeds configured capacity and "
                  "window ordering/readiness bookkeeping stays legal",
}


class Probe:
    """The pipeline probe protocol; every hook defaults to a no-op.

    ``bind(pipe)`` runs once the pipeline is built,
    ``notify(event, cycle, entry=None, **info)`` at every stage event
    (see the event table in docs/INTERNALS.md §8; probes ignore kinds
    they do not know), ``on_cycle(pipe)`` at the end of every simulated
    cycle, ``reset()`` when the ``measure_from`` window opens and
    ``finalize(stats)`` after the run.
    """

    def bind(self, pipe) -> None:
        pass

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        pass

    def on_cycle(self, pipe) -> None:
        pass

    def reset(self) -> None:
        pass

    def finalize(self, stats) -> None:
        pass


class TraceEvent:
    """One structured pipeline event.

    ``seq`` is the pipeline-assigned dispatch id (unique across
    refetches; ``None`` for events raised after the instruction left
    the RUU), ``iseq`` the dynamic-trace sequence number (``None`` on
    the wrong path), ``stream`` is ``"P"`` or ``"R"``.
    """

    __slots__ = ("cycle", "kind", "stream", "seq", "iseq", "op", "fu",
                 "extra")

    def __init__(
        self,
        cycle: int,
        kind: str,
        stream: str,
        seq: Optional[int] = None,
        iseq: Optional[int] = None,
        op: Optional[str] = None,
        fu: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.cycle = cycle
        self.kind = kind
        self.stream = stream
        self.seq = seq
        self.iseq = iseq
        self.op = op
        self.fu = fu
        self.extra = extra

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict with ``None`` fields omitted (stable golden form)."""
        out: Dict[str, Any] = {
            "cycle": self.cycle,
            "kind": self.kind,
            "stream": self.stream,
        }
        for name in ("seq", "iseq", "op", "fu"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.extra:
            out.update(self.extra)
        return out

    def to_json(self) -> str:
        """Canonical one-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:
        return f"<TraceEvent {self.to_json()}>"


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------


class EventSink:
    """Where a tracer delivers events.  Subclasses override both hooks."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called once at the end of a run."""


class RingBufferSink(EventSink):
    """Keep the most recent ``capacity`` events in memory.

    Overflow is not silent: every overwritten event increments
    :attr:`dropped`, which :class:`EventTracer` surfaces as
    ``stage_metrics["dropped_events"]`` (hence ``Stats.state_dict()``)
    and the metrics report turns into an explicit warning — a
    truncated event window must never masquerade as a complete one.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: List[TraceEvent] = []
        self._cursor = 0
        self.total = 0
        #: Events overwritten (lost) to capacity overflow.
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        self.total += 1
        if len(self._buffer) < self.capacity:
            self._buffer.append(event)
        else:
            self._buffer[self._cursor] = event
            self._cursor = (self._cursor + 1) % self.capacity
            self.dropped += 1

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return self._buffer[self._cursor:] + self._buffer[: self._cursor]


class JSONLSink(EventSink):
    """Write one canonical JSON line per event, atomically.

    Output is deterministic (sorted keys, no floats, no timestamps), so
    two runs of the same simulation produce byte-identical files — the
    property the golden-trace regression tests pin.

    The file appears atomically: lines stream to ``<path>.tmp`` and
    only a successful :meth:`close` flushes, fsyncs and renames it to
    ``path``.  A worker killed mid-run leaves at most a stale ``.tmp``
    behind — never a truncated half-line file at the final path that a
    later golden-trace comparison would read as a real (and baffling)
    mismatch.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._tmp_path = f"{path}.tmp"
        self._file = open(self._tmp_path, "w", encoding="utf-8",
                          newline="\n")
        self.lines = 0

    def emit(self, event: TraceEvent) -> None:
        self._file.write(event.to_json())
        self._file.write("\n")
        self.lines += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            os.replace(self._tmp_path, self.path)


class CallbackSink(EventSink):
    """Deliver each event to an arbitrary callable."""

    def __init__(self, callback: Callable[[TraceEvent], None]) -> None:
        self.callback = callback

    def emit(self, event: TraceEvent) -> None:
        self.callback(event)


# ----------------------------------------------------------------------
# event tracer
# ----------------------------------------------------------------------

#: pipeline notify() event -> (TraceEvent kind, default stream)
_NOTIFY_KINDS = {
    "fetch": ("fetch", "P"),
    "dispatch": ("dispatch", "P"),
    "issue": ("issue", "P"),
    "complete": ("writeback", "P"),
    "commit": ("commit", "P"),
    "squash": ("squash", "P"),
    "rqueue": ("rqueue_insert", "R"),
    "r_issue": ("issue", "R"),
    "r_complete": ("writeback", "R"),
    "compare": ("compare", "R"),
    "recover": ("flush", "P"),
}


class EventTracer(Probe):
    """Probe translating pipeline stage events into TraceEvents."""

    def __init__(self, sink: EventSink) -> None:
        self.sink = sink
        self.emitted = 0

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        mapped = _NOTIFY_KINDS.get(event)
        if mapped is None:
            return
        kind, stream = mapped
        seq = iseq = op = fu = None
        extra: Optional[Dict[str, Any]] = None
        if entry is not None:
            seq = entry.seq
            iseq = entry.trace_seq if entry.trace_seq >= 0 else None
            op = entry.op.name.lower()
            fu = entry.fu.name
            if entry.is_shadow:
                stream = "R"  # dispatch-duplication redundant copy
            if entry.wrong_path:
                extra = {"wp": True}
        else:
            rentry = info.get("rentry")
            if rentry is not None:
                iseq = rentry.seq
                op = rentry.dyn.op.name.lower()
                fu = rentry.fu.name
            else:
                iseq = info.get("trace_seq")
        if event == "compare":
            extra = dict(extra or ())
            extra["match"] = bool(info.get("match"))
        self.sink.emit(TraceEvent(cycle, kind, stream, seq, iseq, op, fu,
                                  extra))
        self.emitted += 1

    def finalize(self, stats) -> None:
        if isinstance(self.sink, RingBufferSink):
            # Surface ring-buffer overflow in the Stats payload even
            # when the metrics registry is off: dropped events are a
            # property of the run, not of the registry.
            metrics = dict(stats.stage_metrics or {})
            metrics["dropped_events"] = (
                metrics.get("dropped_events", 0) + self.sink.dropped
            )
            stats.stage_metrics = metrics
        self.sink.close()


class _Row:
    __slots__ = ("seq", "iseq", "op", "pc", "wrong_path", "stages",
                 "squashed")


class Timeline:
    """SimpleScalar-``ptrace``-style stage timelines from TraceEvents.

    One row per pipeline ``seq`` (the first ``max_records`` seen), with
    the cycle of each stage: ``F`` fetch, ``D`` dispatch, ``I`` issue,
    ``X`` writeback, ``Q`` R-stream Queue insert, ``R`` redundant issue
    and ``C`` commit.  R-stream events, raised after the instruction
    left the RUU, attach to the latest row of that dynamic instruction.
    ``trace`` is the one the pipeline ran: it supplies each row's
    ``pc``.  Collect the events with
    ``EventTracer(CallbackSink(events.append))``.
    """

    STAGES = ("F", "D", "I", "X", "Q", "R", "C")
    _ENTRY_STAGES = {"fetch": "F", "dispatch": "D", "issue": "I",
                     "writeback": "X", "rqueue_insert": "Q", "commit": "C"}

    def __init__(self, events, trace, max_records: int = 256) -> None:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.rows: Dict[int, _Row] = {}
        self.recoveries: List[int] = []
        latest: Dict[int, _Row] = {}
        for event in events:
            kind = event.kind
            if kind == "flush":
                self.recoveries.append(event.cycle)
                continue
            if event.seq is None:  # R-stream event, keyed by trace seq
                row = latest.get(event.iseq)
                stage = {"issue": "R", "commit": "C"}.get(kind)
            else:
                row = self.rows.get(event.seq)
                if row is None and len(self.rows) < max_records:
                    row = self.rows[event.seq] = _Row()
                    row.seq, row.iseq, row.op = event.seq, event.iseq, event.op
                    row.pc = 0  # wrong path: no dynamic instruction
                    if event.iseq is not None:
                        row.pc = trace[event.iseq].pc
                        latest[event.iseq] = row
                    row.wrong_path = bool(event.extra and event.extra.get("wp"))
                    row.stages, row.squashed = {}, False
                stage = self._ENTRY_STAGES.get(kind)
            if row is None:
                continue
            if stage is not None and stage not in row.stages:
                row.stages[stage] = event.cycle
            if kind == "squash":
                row.squashed = True

    def render(self, limit: Optional[int] = None) -> str:
        """Text table of the first ``limit`` rows (all by default)."""
        header = (
            f"{'seq':>5s} {'dyn':>5s} {'op':<8s} {'pc':>10s} "
            + " ".join(f"{stage:>6s}" for stage in self.STAGES)
            + "  notes"
        )
        lines = [header, "-" * len(header)]
        for row in list(self.rows.values())[: limit or len(self.rows)]:
            notes = ["wrong-path"] if row.wrong_path else []
            if row.squashed:
                notes.append("squashed")
            cells = " ".join(
                f"{row.stages.get(stage, ''):>6}" for stage in self.STAGES
            )
            dyn_col = row.iseq if row.iseq is not None else "-"
            lines.append(
                f"{row.seq:>5d} {dyn_col!s:>5s} {row.op:<8s} "
                f"{row.pc:#010x} {cells}  {' '.join(notes)}"
            )
        if self.recoveries:
            lines.append(f"recoveries at cycles: {self.recoveries}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-stage metrics registry
# ----------------------------------------------------------------------


class StageMetrics(Probe):
    """Per-cycle occupancy histograms, FU split and stall counters.

    Sampled once per simulated cycle via the probe's ``on_cycle``
    hook; folded into ``Stats.stage_metrics`` at finalisation.
    Histogram bins are stored with **string keys** so the registry
    round-trips unchanged through the JSON result cache.
    """

    STRUCTURES = ("ifq", "ruu", "lsq", "rqueue")
    STALLS = ("fetch_blocked", "rqueue_full", "empty_window", "no_commit")

    def __init__(self) -> None:
        self._pipe = None
        self.reset()

    def bind(self, pipe) -> None:
        self._pipe = pipe

    def reset(self) -> None:
        """Zero the registry (the ``measure_from`` window opens), so it
        covers the same cycles as the run's Stats."""
        self.cycles_sampled = 0
        self.occupancy: Dict[str, Dict[int, int]] = {
            key: {} for key in self.STRUCTURES
        }
        self.stalls: Dict[str, int] = {key: 0 for key in self.STALLS}
        self._last_committed = 0

    def finalize(self, stats) -> None:
        stats.stage_metrics = self.state_dict(self._pipe)

    def on_cycle(self, pipe) -> None:
        self.cycles_sampled += 1
        rqueue = pipe.rqueue
        for key, occ in (
            ("ifq", len(pipe.ifq)),
            ("ruu", len(pipe.ruu)),
            ("lsq", len(pipe.lsq)),
            ("rqueue", len(rqueue) if rqueue is not None else 0),
        ):
            hist = self.occupancy[key]
            hist[occ] = hist.get(occ, 0) + 1
        stalls = self.stalls
        if pipe.fetch_blocked_until > pipe.cycle:
            stalls["fetch_blocked"] += 1
        if rqueue is not None and rqueue.full:
            stalls["rqueue_full"] += 1
        if not pipe.ruu and not pipe.ifq:
            stalls["empty_window"] += 1
        committed = pipe.stats.committed
        if committed == self._last_committed:
            stalls["no_commit"] += 1
        else:
            self._last_committed = committed

    def state_dict(self, pipe=None) -> Dict[str, Any]:
        """JSON-serialisable registry (the ``Stats.stage_metrics`` value)."""
        out: Dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "cycles_sampled": self.cycles_sampled,
            "occupancy": {
                key: {str(occ): count for occ, count in sorted(hist.items())}
                for key, hist in self.occupancy.items()
            },
            "stalls": dict(self.stalls),
        }
        if pipe is not None:
            total = pipe.fupool.issues
            r_only = pipe.fupool.issues_r
            out["fu_issued"] = {
                "P": {k: total[k] - r_only.get(k, 0) for k in sorted(total)},
                "R": {k: r_only[k] for k in sorted(r_only)},
            }
        return out


def occupancy_mean(hist: Dict[str, int]) -> float:
    """Mean occupancy of one ``state_dict`` histogram (string bins)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    return sum(int(occ) * count for occ, count in hist.items()) / total


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------


class InvariantViolation(Exception):
    """A pipeline-legality invariant failed.

    Attributes:
        invariant: key into :data:`INVARIANTS`.
        cycle: simulation cycle at which the violation was detected.
        trace_seq: dynamic-instruction sequence number, or ``None``.
        detail: human-readable specifics (values, occupancies, ...).
    """

    def __init__(
        self,
        invariant: str,
        cycle: int,
        trace_seq: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.invariant = invariant
        self.cycle = cycle
        self.trace_seq = trace_seq
        self.detail = detail
        where = f"cycle {cycle}"
        if trace_seq is not None:
            where += f", instruction {trace_seq}"
        message = f"[{invariant}] at {where}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the constructor arguments: the default pickling
        # replays ``args`` (the message alone) and fails to unpickle,
        # which kills a worker pool's result handler.
        return (type(self),
                (self.invariant, self.cycle, self.trace_seq, self.detail))


class InvariantChecker(Probe):
    """Validate pipeline legality while the simulation runs.

    Event-driven checks fire from the probe's ``notify`` hook;
    structural sweeps run once per cycle from ``on_cycle``.  By default
    the first violation raises; with ``collect=True`` violations accrue
    in :attr:`violations` instead (for tests that expect several).
    """

    def __init__(self, collect: bool = False) -> None:
        self.collect = collect
        self.violations: List[InvariantViolation] = []
        self.checks = 0
        self._pipe = None
        self._completed: set = set()
        self._next_commit = 0

    def bind(self, pipe) -> None:
        self._pipe = pipe

    def _fail(
        self,
        invariant: str,
        cycle: int,
        trace_seq: Optional[int],
        detail: str,
    ) -> None:
        violation = InvariantViolation(invariant, cycle, trace_seq, detail)
        self.violations.append(violation)
        if not self.collect:
            raise violation

    # -- event-driven checks ---------------------------------------------

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        self.checks += 1
        if event == "complete":
            if entry is not None and entry.trace_seq >= 0:
                self._completed.add(entry.trace_seq)
        elif event == "commit":
            self._check_commit(cycle, entry, info)
        elif event == "r_issue":
            self._check_r_issue(cycle, info)
        elif event == "rqueue":
            self._check_rqueue_insert(cycle, entry)
        elif event == "recover":
            self._check_flush(cycle)

    def _check_commit(self, cycle: int, entry, info) -> None:
        rentry = info.get("rentry")
        if rentry is not None:
            trace_seq = rentry.seq
            dyn = rentry.dyn
            actual = rentry.p_value
        else:
            if entry is None or entry.dyn is None:
                return
            trace_seq = entry.trace_seq
            dyn = entry.dyn
            actual = p_value(dyn)
            if entry.p_fault_bit is not None:
                actual = corrupt_value(actual, entry.p_fault_bit)
        if trace_seq != self._next_commit:
            self._fail(
                "commit-order", cycle, trace_seq,
                f"expected instruction {self._next_commit} to commit next",
            )
        self._next_commit = trace_seq + 1
        oracle = reexecute(dyn)
        if not values_equal(actual, oracle):
            self._fail(
                "commit-oracle", cycle, trace_seq,
                f"{dyn.op.name.lower()} committed a result that fails "
                f"re-execution: {describe_mismatch(actual, oracle)}",
            )

    def _check_r_issue(self, cycle: int, info) -> None:
        rentry = info.get("rentry")
        trace_seq = rentry.seq if rentry is not None else info.get("trace_seq")
        if trace_seq is None:
            return
        if trace_seq not in self._completed:
            self._fail(
                "r-before-p", cycle, trace_seq,
                "R-stream issue before the P result was written back",
            )
        pipe = self._pipe
        if pipe is not None and pipe.rqueue is not None:
            if not pipe.rqueue.contains(trace_seq):
                self._fail(
                    "r-before-p", cycle, trace_seq,
                    "R-stream issue for an instruction that is not "
                    "R-stream Queue resident",
                )

    def _check_rqueue_insert(self, cycle: int, entry) -> None:
        pipe = self._pipe
        if entry is None or pipe is None or pipe.rqueue is None:
            return
        rentry = pipe.rqueue.get(entry.trace_seq)
        if rentry is None:
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "insertion event for an instruction the queue does not hold",
            )
            return
        expected = p_value(entry.dyn)
        if entry.p_fault_bit is not None:
            expected = corrupt_value(expected, entry.p_fault_bit)
        if not values_equal(rentry.p_value, expected):
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "queued P value does not match the P writeback: "
                + describe_mismatch(rentry.p_value, expected),
            )
        if rentry.skip_r != entry.skip_r:
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                f"skip_r flag diverged (queue {rentry.skip_r}, "
                f"pipeline {entry.skip_r})",
            )

    def _check_flush(self, cycle: int) -> None:
        pipe = self._pipe
        if pipe is None:
            return
        residues = [
            name
            for name, structure in (
                ("ifq", pipe.ifq),
                ("ruu", pipe.ruu),
                ("lsq", pipe.lsq),
                ("ready", pipe.ready),
                ("create", pipe.create),
                ("rqueue", pipe.rqueue if pipe.rqueue is not None else ()),
            )
            if len(structure)
        ]
        if residues:
            self._fail(
                "flush-residue", cycle, None,
                f"stale entries survived the flush in: {', '.join(residues)}",
            )

    # -- per-cycle structural sweep --------------------------------------

    def on_cycle(self, pipe) -> None:
        self.checks += 1
        cycle = pipe.cycle
        config = pipe.config
        if len(pipe.ruu) > config.ruu_size:
            self._fail(
                "structural", cycle, None,
                f"RUU occupancy {len(pipe.ruu)} > size {config.ruu_size}",
            )
        if len(pipe.lsq) > config.lsq_size:
            self._fail(
                "structural", cycle, None,
                f"LSQ occupancy {len(pipe.lsq)} > size {config.lsq_size}",
            )
        rqueue = pipe.rqueue
        if rqueue is not None:
            if len(rqueue) > rqueue.capacity:
                self._fail(
                    "structural", cycle, None,
                    f"R-stream Queue occupancy {len(rqueue)} > capacity "
                    f"{rqueue.capacity}",
                )
            problems = rqueue.validate()
            if problems:
                self._fail(
                    "structural", cycle, None,
                    "R-stream Queue inconsistency: " + "; ".join(problems),
                )
        previous = None
        for entry in pipe.ruu:
            if entry.squashed:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    "squashed entry still RUU-resident",
                )
            if previous is not None and entry.seq < previous:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    "RUU entries out of dispatch order",
                )
            previous = entry.seq
        for entry in pipe.ready:
            if entry.issued or entry.deps != 0 or entry.squashed:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    f"illegal ready-list entry (issued={entry.issued}, "
                    f"deps={entry.deps}, squashed={entry.squashed})",
                )
        if pipe.commit_seq != self._next_commit:
            self._fail(
                "commit-order", cycle, None,
                f"pipeline commit cursor {pipe.commit_seq} diverged from "
                f"observed commits ({self._next_commit})",
            )


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------


class ProbeSet(Probe):
    """Fan every hook out to several probes, in list order."""

    def __init__(self, probes: List[Any]) -> None:
        self.probes = list(probes)

    def bind(self, pipe) -> None:
        for probe in self.probes:
            probe.bind(pipe)

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        for probe in self.probes:
            probe.notify(event, cycle, entry, **info)

    def on_cycle(self, pipe) -> None:
        for probe in self.probes:
            probe.on_cycle(pipe)

    def reset(self) -> None:
        for probe in self.probes:
            probe.reset()

    def finalize(self, stats) -> None:
        for probe in self.probes:
            probe.finalize(stats)


@dataclass(frozen=True)
class Instrumentation:
    """Which probes to attach to a run.

    Picklable and scalar-only, so the parallel layer ships it to worker
    processes inside :class:`repro.harness.parallel.SimJob`.
    """

    #: Collect the per-stage metrics registry into ``Stats.stage_metrics``.
    metrics: bool = False
    #: Attach the runtime invariant checker (raises InvariantViolation).
    check_invariants: bool = False
    #: Attach the cycle-accounting profiler (``Stats.accounting``).
    profile: bool = False
    #: Write a JSONL event trace to this path.
    trace_path: Optional[str] = None

    def probe(self):
        """Fresh probes for one pipeline run (``None`` when all are off).

        The order is the hook order: metrics sample the cycle before the
        checker sweeps it, and the checker sees each event before the
        tracer serialises it (the trace written so far is the
        diagnostic of a violation).
        """
        probes: List[Any] = []
        if self.metrics:
            probes.append(StageMetrics())
        if self.check_invariants:
            probes.append(InvariantChecker())
        if self.trace_path:
            probes.append(EventTracer(JSONLSink(self.trace_path)))
        if self.profile:
            probes.append(CycleAccountant())
        if len(probes) > 1:
            return ProbeSet(probes)
        return probes[0] if probes else None
