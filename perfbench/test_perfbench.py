"""Self-tests of the host-time benchmark.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
They use the ``--tiny`` workload sizes, so they take about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import loads  # noqa: E402
import spans  # noqa: E402
from repro.harness.experiments import figure2_spec, run_figure  # noqa: E402
from repro.harness.parallel import ParallelRunner  # noqa: E402
from repro.uarch import pipeline  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str):
    return [metric["name"] for metric in SPEC[section]]


def test_metric_names_and_units_are_well_formed():
    every = names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    assert set(names("per_layer")) == set(spans.UNITS)
    for metric in SPEC["per_layer"]:
        assert spans.UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(loads.WORKLOADS)
    assert list(loads.TINY) == list(loads.WORKLOADS)


def test_same_seed_same_inputs():
    workload = loads.TINY["fig2_detailed"]
    first, again = workload.setup(5), workload.setup(5)
    assert (first.program_seed, first.trace_lengths) == (
        again.program_seed, again.trace_lengths)
    assert workload.setup(6).program_seed != first.program_seed


def test_corrupted_cell_counts_as_failed(tmp_path):
    workload = loads.TINY["fig2_detailed"]
    inputs = workload.setup(2)
    runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
    figure = run_figure(figure2_spec(), scale=workload.params.scale,
                        seed=inputs.program_seed, runner=runner)
    clean = workload.check(figure, inputs, runner.telemetry)
    assert clean.failed == 0 and clean.attempted == 30

    figure.cells["gcc"]["REESE"].committed -= 1
    corrupted = workload.check(figure, inputs, runner.telemetry)
    assert corrupted.failed == 1
    assert corrupted.failed / corrupted.attempted > 0


def test_spans_nest_with_nonnegative_self_time(tmp_path):
    workload = loads.TINY["fig2_sampled"]
    inputs = workload.setup(4)
    original = pipeline.Pipeline.run
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        with tracer.span("op.cold"):
            result = workload.operate(inputs, 1, str(tmp_path))
    finally:
        undo()
    assert pipeline.Pipeline.run is original
    assert result.failed == 0
    seen = {span.name for span in tracer.spans}
    assert {"pipeline.run", "sampling.warm", "sampling.profile",
            "parallel.cache_put", "stats.encode"} <= seen
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(tracer.self_times()) >= 0
    metrics = spans.layer_metrics(tracer, 0, result.trace_instructions)
    assert metrics["sampling.replay_per_trace"] > 1
    assert metrics["pipeline.cycles"] > 0


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(loads.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "fig2_detailed", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
