"""Unit tests for the probe layer (repro.uarch.observe)."""

import json
from types import SimpleNamespace

import pytest

from repro.arch import emulate
from repro.isa.instructions import FUClass
from repro.reese.comparator import p_value
from repro.reese.faults import corrupt_value
from repro.reese.rqueue import REntry
from repro.uarch import Pipeline, starting_config
from repro.uarch.accounting import CycleAccountant
from repro.uarch.observe import (
    EVENT_KINDS,
    INVARIANTS,
    CallbackSink,
    EventTracer,
    Instrumentation,
    InvariantChecker,
    InvariantViolation,
    JSONLSink,
    ProbeSet,
    RingBufferSink,
    StageMetrics,
    TraceEvent,
    occupancy_mean,
)
from repro.uarch.stats import Stats


class TestTraceEvent:
    def test_to_dict_omits_none_fields(self):
        event = TraceEvent(7, "fetch", "P", seq=3)
        assert event.to_dict() == {
            "cycle": 7, "kind": "fetch", "stream": "P", "seq": 3
        }

    def test_to_json_is_canonical(self):
        event = TraceEvent(1, "commit", "P", seq=2, iseq=2, op="add",
                           fu="IALU")
        line = event.to_json()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        # Sorted keys and no whitespace: byte-stable across runs.
        assert " " not in line

    def test_extra_fields_are_flattened(self):
        event = TraceEvent(1, "compare", "R", extra={"match": False})
        assert event.to_dict()["match"] is False


class TestSinks:
    def test_ring_buffer_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for cycle in range(5):
            sink.emit(TraceEvent(cycle, "fetch", "P"))
        assert sink.total == 5
        assert [e.cycle for e in sink.events()] == [2, 3, 4]

    def test_ring_buffer_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_sink_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        sink.emit(TraceEvent(1, "fetch", "P", seq=0))
        sink.emit(TraceEvent(2, "commit", "P", seq=0))
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.lines == 2
        assert [json.loads(line)["kind"] for line in lines] == [
            "fetch", "commit"
        ]

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JSONLSink(tmp_path / "events.jsonl")
        sink.close()
        sink.close()

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        event = TraceEvent(0, "fetch", "P")
        sink.emit(event)
        assert seen == [event]


class TestEventTracer:
    def _traced_run(self, program, trace, config):
        sink = RingBufferSink(capacity=100_000)
        pipe = Pipeline(program, trace, config, probe=EventTracer(sink))
        stats = pipe.run()
        return stats, sink.events()

    def test_all_kinds_are_catalogued(self, loop_trace, cfg):
        program, trace = loop_trace
        _, events = self._traced_run(program, trace, cfg.with_reese())
        assert {e.kind for e in events} <= set(EVENT_KINDS)

    def test_commit_events_match_commit_count(self, loop_trace, cfg):
        program, trace = loop_trace
        stats, events = self._traced_run(program, trace, cfg)
        commits = [e for e in events if e.kind == "commit"]
        assert len(commits) == stats.committed == len(trace)

    def test_reese_run_emits_r_stream_events(self, mixed_trace, cfg):
        program, trace = mixed_trace
        stats, events = self._traced_run(program, trace, cfg.with_reese())
        by_kind_stream = {(e.kind, e.stream) for e in events}
        assert ("rqueue_insert", "R") in by_kind_stream
        assert ("issue", "R") in by_kind_stream
        assert ("writeback", "R") in by_kind_stream
        assert ("compare", "R") in by_kind_stream
        compares = [e for e in events if e.kind == "compare"]
        assert all(e.extra["match"] for e in compares)
        assert len(compares) == stats.comparisons

    def test_baseline_run_has_no_r_stream(self, loop_trace, cfg):
        program, trace = loop_trace
        _, events = self._traced_run(program, trace, cfg)
        assert all(e.stream == "P" for e in events)


class TestStageMetrics:
    def test_histograms_sum_to_cycles(self, mixed_trace, cfg):
        program, trace = mixed_trace
        # A whole run, and one whose measurement window opens mid-trace:
        # the registry must reset with the rest of the Stats.
        for measure_from in (None, len(trace) // 2):
            stats = Pipeline(program, trace, cfg.with_reese(),
                             probe=StageMetrics(),
                             measure_from=measure_from).run()
            registry = stats.stage_metrics
            assert registry["cycles_sampled"] == stats.cycles
            for key in StageMetrics.STRUCTURES:
                hist = registry["occupancy"][key]
                assert sum(hist.values()) == stats.cycles
                # String bins (JSON cache round-trip safe).
                assert all(isinstance(bin_, str) for bin_ in hist)
            stalls = registry["stalls"]
            assert all(0 <= count <= stats.cycles for count in stalls.values())

    def test_fu_split_accounts_r_stream(self, mixed_trace, cfg):
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, cfg.with_reese(),
            probe=StageMetrics(),
        ).run()
        fu = stats.stage_metrics["fu_issued"]
        assert sum(fu["R"].values()) == stats.issued_r
        assert all(count >= 0 for count in fu["P"].values())

    def test_stall_counters_present(self, loop_trace, cfg):
        program, trace = loop_trace
        stats = Pipeline(program, trace, cfg, probe=StageMetrics()).run()
        stalls = stats.stage_metrics["stalls"]
        assert set(stalls) == set(StageMetrics.STALLS)
        assert all(0 <= count <= stats.cycles for count in stalls.values())

    def test_occupancy_mean(self):
        assert occupancy_mean({"0": 2, "4": 2}) == pytest.approx(2.0)
        assert occupancy_mean({}) == 0.0


def _rentry_for(dyn, seq=None):
    return REntry(
        seq=dyn.seq if seq is None else seq,
        dyn=dyn,
        p_value=p_value(dyn),
        fu=FUClass.INT_ALU,
        inserted_cycle=0,
    )


class TestInvariantChecker:
    def test_clean_runs_pass(self, mixed_trace, cfg):
        program, trace = mixed_trace
        for config in (cfg, cfg.with_reese(), cfg.with_dispatch_dup()):
            checker = InvariantChecker()
            stats = Pipeline(program, trace, config, probe=checker).run()
            assert stats.committed == len(trace)
            assert checker.violations == []
            assert checker.checks > 0

    def test_commit_order_violation(self, loop_trace):
        program, _ = loop_trace
        dyn = emulate(program).trace[5]
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.notify("commit", 10, rentry=_rentry_for(dyn))
        assert excinfo.value.invariant == "commit-order"
        assert excinfo.value.cycle == 10
        assert excinfo.value.trace_seq == 5

    def test_commit_oracle_catches_corrupted_value(self, loop_trace):
        program, _ = loop_trace
        trace = emulate(program).trace
        checker = InvariantChecker(collect=True)
        rentry = _rentry_for(trace[0])
        rentry.p_value = corrupt_value(rentry.p_value, 3)
        checker.notify("commit", 1, rentry=rentry)
        assert [v.invariant for v in checker.violations] == ["commit-oracle"]

    def test_r_issue_before_p_writeback(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.notify("r_issue", 4, trace_seq=7)
        assert excinfo.value.invariant == "r-before-p"

    def test_flush_residue(self):
        checker = InvariantChecker()
        checker.bind(SimpleNamespace(ifq=[object()], ruu=[], lsq=[],
                                     ready=[], create=[], rqueue=None))
        with pytest.raises(InvariantViolation) as excinfo:
            checker.notify("recover", 9)
        assert excinfo.value.invariant == "flush-residue"
        assert "ifq" in excinfo.value.detail

    def test_collect_mode_accumulates(self):
        checker = InvariantChecker(collect=True)
        checker.notify("r_issue", 1, trace_seq=1)
        checker.notify("r_issue", 2, trace_seq=2)
        assert len(checker.violations) == 2

    def test_violation_message_names_cycle_and_instruction(self):
        violation = InvariantViolation("commit-order", 42, 7, "details here")
        assert str(violation) == (
            "[commit-order] at cycle 42, instruction 7: details here"
        )
        assert violation.invariant in INVARIANTS


class TestObserveConfig:
    """The :class:`Instrumentation` value and the probes it builds."""

    def test_disabled_by_default(self):
        assert Instrumentation().probe() is None

    @pytest.mark.parametrize("kwargs", [
        dict(metrics=True),
        dict(check_invariants=True),
        dict(trace_path="x.jsonl"),
        dict(profile=True),
    ])
    def test_any_piece_enables(self, kwargs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        probe = Instrumentation(**kwargs).probe()
        assert probe is not None and not isinstance(probe, ProbeSet)
        probe.finalize(Stats())  # closes the trace file, if any

    def test_build_composes_requested_pieces(self, tmp_path):
        probe = Instrumentation(
            metrics=True,
            check_invariants=True,
            profile=True,
            trace_path=str(tmp_path / "t.jsonl"),
        ).probe()
        assert [type(p) for p in probe.probes] == [
            StageMetrics, InvariantChecker, EventTracer, CycleAccountant
        ]
        probe.probes[2].sink.close()

    def test_full_stack_end_to_end(self, mixed_trace, cfg, tmp_path):
        program, trace = mixed_trace
        path = tmp_path / "trace.jsonl"
        probe = Instrumentation(
            metrics=True, check_invariants=True, profile=True,
            trace_path=str(path),
        ).probe()
        stats = Pipeline(program, trace, cfg.with_reese(), probe=probe).run()
        assert stats.committed == len(trace)
        assert stats.stage_metrics["cycles_sampled"] == stats.cycles
        assert stats.accounting["cycles_total"] == stats.cycles
        lines = path.read_text().splitlines()
        assert lines, "trace file must not be empty"
        assert all(json.loads(line)["kind"] in EVENT_KINDS for line in lines)
