"""Byte-identity goldens for the probe layer.

The goldens under ``tests/goldens/`` were produced by the simulator
before its instrumentation moved behind the single pipeline probe
(the older ``observer``/``accountant`` hooks and the ``PipeTrace``
observer), so they pin that the move changed nothing a run computes:

* ``timeline_pipeline_visualizer.txt`` — stdout of
  ``examples/pipeline_visualizer.py``;
* ``timelines.json`` — rendered stage timelines of further runs
  (full tables, baseline, dispatch-dup, a faulted vortex run, a
  5-record cap);
* ``stats_payloads.json`` — ``Stats.state_dict()`` of small runs with
  stage metrics and the cycle accountant on (REESE, baseline,
  dispatch-dup, faulted REESE, a sampled interval and a whole sampled
  run).  Four more cases were produced before the three commit paths
  came to share one compare and one retire step: faulted dispatch-dup
  (detections and same-event escapes), faulted baseline (silent
  corruption) and sampled intervals on baseline and dispatch-dup
  (their measurement window opening);
* the ``job_fingerprint`` digests below.

A deliberate change to the timing model or to a payload layout must
regenerate them (and bump ``CACHE_VERSION`` for payload changes).
"""

import contextlib
import io
import json
import pathlib
import runpy

import pytest

from repro import assemble, emulate
from repro.harness.parallel import CACHE_VERSION, SimJob, job_fingerprint
from repro.harness.runner import run_benchmark
from repro.reese import EnvironmentalFaultModel, ScheduledFaultModel
from repro.uarch import (
    CallbackSink,
    EventTracer,
    Instrumentation,
    Pipeline,
    Timeline,
    starting_config,
    warm_state_at,
)
from repro.uarch.sampling import SamplingSpec, run_interval, run_sampled
from repro.workloads.suite import trace_for

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_DIR = ROOT / "tests" / "goldens"
VISUALIZER = ROOT / "examples" / "pipeline_visualizer.py"

BASE = starting_config()
SPEC = SamplingSpec(intervals=4, interval_length=120, warmup=40)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestVisualizerGolden:
    def test_example_output_matches_golden(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(VISUALIZER), run_name="__main__")
        golden = (GOLDEN_DIR / "timeline_pipeline_visualizer.txt").read_text()
        assert out.getvalue() == golden


def _timeline(program, trace, config, fault=None, max_records=96,
              warm=False) -> str:
    events = []
    state = warm_state_at(program, config, trace, 0) if warm else None
    Pipeline(program, trace, config, fault_model=fault,
             probe=EventTracer(CallbackSink(events.append)),
             warm_state=state).run()
    return Timeline(events, trace, max_records=max_records).render()


def _vis():
    source = runpy.run_path(str(VISUALIZER))["SOURCE"]
    program = assemble(source, name="vis")
    return program, emulate(program).trace


def _vis_faults():
    return ScheduledFaultModel([(c, 2, 5) for c in range(12, 60, 4)])


TIMELINES = {
    "vis_clean_full": lambda: _timeline(*_vis(), BASE.with_reese()),
    "vis_faulted_full": lambda: _timeline(*_vis(), BASE.with_reese(),
                                          _vis_faults()),
    "vis_baseline": lambda: _timeline(*_vis(), BASE),
    "vis_dispatch_dup": lambda: _timeline(*_vis(), BASE.with_dispatch_dup()),
    "vis_cap5": lambda: _timeline(*_vis(), BASE.with_reese(), max_records=5),
    "vortex_faulted_s3000": lambda: _timeline(
        *trace_for("vortex", 3000), BASE.with_reese(),
        ScheduledFaultModel([(c, 2, 9) for c in range(50, 600, 50)]),
        max_records=256, warm=True,
    ),
}


@pytest.mark.parametrize("case", sorted(TIMELINES))
def test_timeline_matches_golden(case):
    golden = json.loads((GOLDEN_DIR / "timelines.json").read_text())
    assert TIMELINES[case]() == golden[case]


_CHECKED = Instrumentation(metrics=True, check_invariants=True, profile=True)
_PROFILED = Instrumentation(metrics=True, profile=True)


def _sampled_interval(config, instrument):
    program, trace = trace_for("go", 2000)
    return run_interval(program, trace, config, SPEC, 2,
                        instrument=instrument)


def _sampled_whole():
    program, trace = trace_for("go", 2000)
    return run_sampled(program, trace, BASE.with_reese(), SPEC,
                       instrument=Instrumentation(profile=True)).stats


PAYLOADS = {
    "reese_gcc": lambda: run_benchmark(
        "gcc", BASE.with_reese(), scale=800, instrument=_CHECKED),
    "baseline_gcc": lambda: run_benchmark(
        "gcc", BASE, scale=800, instrument=_CHECKED),
    "dispatch_dup_li": lambda: run_benchmark(
        "li", BASE.with_dispatch_dup(), scale=800, instrument=_CHECKED),
    "faulted_reese_vortex": lambda: run_benchmark(
        "vortex", BASE.with_reese(), scale=800,
        fault_model=EnvironmentalFaultModel(rate=5e-3, duration=2, seed=11),
        instrument=_PROFILED),
    "faulted_dispatch_dup_li": lambda: run_benchmark(
        "li", BASE.with_dispatch_dup(), scale=800,
        fault_model=EnvironmentalFaultModel(rate=5e-3, duration=2, seed=11),
        instrument=_PROFILED),
    "faulted_baseline_vortex": lambda: run_benchmark(
        "vortex", BASE, scale=800,
        fault_model=EnvironmentalFaultModel(rate=5e-3, duration=2, seed=11),
        instrument=_PROFILED),
    "sampled_interval_go": lambda: _sampled_interval(
        BASE.with_reese(), _PROFILED),
    "sampled_interval_go_baseline": lambda: _sampled_interval(
        BASE, Instrumentation(profile=True)),
    "sampled_interval_go_dispatch_dup": lambda: _sampled_interval(
        BASE.with_dispatch_dup(), Instrumentation(profile=True)),
    "sampled_whole_go": _sampled_whole,
}


@pytest.mark.parametrize("case", sorted(PAYLOADS))
def test_stats_payload_matches_golden(case):
    golden = json.loads((GOLDEN_DIR / "stats_payloads.json").read_text())
    assert _canonical(PAYLOADS[case]().state_dict()) == _canonical(
        golden[case]
    )


#: name -> (job, digest) — literal digests, so any change to the key
#: layout or to how instrumentation enters it shows up here.
FINGERPRINTS = {
    "plain": (
        SimJob("go", BASE, 300),
        "975f2e6d021939369f9fb086da37958b6e6ccb9a734554762ba064690018bb54",
    ),
    "observed": (
        SimJob("go", BASE, 300, instrument=Instrumentation(metrics=True)),
        "c18653f336bb63acf55d8a6556617f8ff3d01f32ac97991c322950549a55808c",
    ),
    "checked": (
        SimJob("go", BASE, 300,
               instrument=Instrumentation(check_invariants=True)),
        "c9dab78ab26c47040feaf953d92b2a5d39b43fbc1c1651a7abef70d3e8095762",
    ),
    "profiled": (
        SimJob("go", BASE.with_reese(), 300,
               instrument=Instrumentation(profile=True)),
        "3048972b8c5dfdc91ed28e7952cbbd183cd8a38f064364b0752881d72024310c",
    ),
    "traced": (
        SimJob("go", BASE, 300,
               instrument=Instrumentation(trace_path="out.jsonl")),
        "975f2e6d021939369f9fb086da37958b6e6ccb9a734554762ba064690018bb54",
    ),
    "all": (
        SimJob("gcc", BASE.with_reese(), 300,
               instrument=Instrumentation(
                   metrics=True, check_invariants=True, profile=True,
                   trace_path="t.jsonl")),
        "cfa9aea649e8576c23eb7377b68e47a04af53ee637dca05adb998d49f24204ed",
    ),
    "sampled": (
        SimJob("li", BASE, 2000, sampling=SPEC,
               instrument=Instrumentation(profile=True)),
        "166ae2cd923383b6812b25ee5d195c4dcef9c5be49dff8d144049f58ef3ed426",
    ),
}


@pytest.mark.parametrize("case", sorted(FINGERPRINTS))
def test_fingerprint_digest_is_unchanged(case):
    job, digest = FINGERPRINTS[case]
    assert job_fingerprint(job) == digest


def test_cache_version_is_unchanged():
    assert CACHE_VERSION == 6
