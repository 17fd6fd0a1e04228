"""Tests for the ptrace-style stage timelines (``observe.Timeline``)."""

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.uarch import (
    CallbackSink,
    EventTracer,
    Pipeline,
    Timeline,
    starting_config,
    warm_state_at,
)


def timeline_of(program, trace, config, max_records=256, **kwargs):
    """Run the pipeline with an event tracer; (Timeline, Stats, events)."""
    events = []
    stats = Pipeline(
        program, trace, config,
        probe=EventTracer(CallbackSink(events.append)), **kwargs
    ).run()
    return Timeline(events, trace, max_records=max_records), stats, events


@pytest.fixture
def traced_run(loop_trace):
    program, trace = loop_trace
    timeline, stats, events = timeline_of(
        program, trace, starting_config(), max_records=128
    )
    assert events
    return timeline, stats


class TestStageTimelines:
    def test_records_created(self, traced_run):
        timeline, _ = traced_run
        assert len(timeline.rows) > 0

    def test_stage_order_monotonic(self, traced_run):
        timeline, _ = traced_run
        for record in list(timeline.rows.values())[:50]:
            stages = record.stages
            order = ["F", "D", "I", "X", "C"]
            present = [stages[s] for s in order if s in stages]
            assert present == sorted(present), record.op

    def test_committed_instructions_reach_commit_stage(self, traced_run):
        timeline, _ = traced_run
        committed = [
            r for r in timeline.rows.values()
            if "C" in r.stages
        ]
        assert committed
        for record in committed:
            assert not record.wrong_path

    def test_render(self, traced_run):
        timeline, _ = traced_run
        text = timeline.render(limit=10)
        assert "seq" in text
        assert "addi" in text or "add" in text

    def test_max_records_bounds_memory(self, loop_trace):
        program, trace = loop_trace
        timeline, _, _ = timeline_of(
            program, trace, starting_config(), max_records=5
        )
        assert len(timeline.rows) == 5
        assert len(timeline.render().splitlines()) == 2 + 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline([], [], max_records=0)


class TestReeseEvents:
    def test_rqueue_and_r_issue_recorded(self, loop_trace):
        program, trace = loop_trace
        timeline, _, _ = timeline_of(
            program, trace, starting_config().with_reese()
        )
        with_queue = [
            r for r in timeline.rows.values() if "Q" in r.stages
        ]
        with_r = [r for r in timeline.rows.values() if "R" in r.stages]
        assert with_queue
        assert with_r
        for record in with_r:
            # Redundant issue strictly after queue insertion.
            assert record.stages["R"] >= record.stages["Q"]

    def test_recovery_events_recorded(self):
        from repro.reese import ScheduledFaultModel
        from repro.workloads.suite import trace_for
        program, trace = trace_for("vortex", scale=3000)
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 600, 50)])
        config = starting_config().with_reese()
        timeline, stats, _ = timeline_of(
            program, trace, config,
            fault_model=model,
            warm_state=warm_state_at(program, config, trace, 0),
        )
        assert len(timeline.recoveries) == stats.recoveries > 0
        assert "recoveries at cycles" in timeline.render(limit=1)


class TestWrongPathVisibility:
    def test_squashed_wrong_path_marked(self):
        source = """
        main:
            li   r1, 120
            li   r2, 99991
            li   r5, 1103515245
        loop:
            mul  r2, r2, r5
            addi r2, r2, 12345
            srli r3, r2, 9
            andi r3, r3, 1
            beqz r3, skip
            addi r6, r6, 1
        skip:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """
        program = assemble(source)
        trace = emulate(program).trace
        timeline, stats, _ = timeline_of(
            program, trace, starting_config(), max_records=2048
        )
        assert stats.mispredictions > 0
        wrong_path = [
            r for r in timeline.rows.values() if r.wrong_path
        ]
        assert wrong_path
        assert all(r.pc == 0 and r.iseq is None for r in wrong_path)
        rendered = timeline.render()
        assert "wrong-path" in rendered
