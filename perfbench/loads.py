"""The benchmark's workloads: inputs from a seed, one operation, its checks.

A workload has two halves.  ``setup(seed)`` builds every program and
emulates every trace the operation will use; the traces land in the
process-wide trace memo of :func:`repro.workloads.suite.trace_for`, so
the operation itself (and its forked workers) never pays for them.
``operate(inputs, jobs, cache_dir)`` runs the operation once against
the result cache and analysis cache rooted at ``cache_dir`` and checks
every output.  Calling it twice with the same ``cache_dir`` gives the
cold run and the rerun.

Every operation counts what it attempted and what failed.  The
operations are figure cells, sampled interval jobs and injected runs;
a failure is an exception or a failed check.  A campaign run that ends
as a classified crash, hang or SDC is an outcome, not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.arch.emulator import emulate
from repro.harness import campaign
from repro.harness.experiments import figure2_spec, run_figure
from repro.harness.parallel import (
    FaultSpec,
    ParallelRunner,
    RunTelemetry,
    SimJob,
    derive_seed,
)
from repro.uarch.config import starting_config
from repro.uarch.sampling import SamplingSpec
from repro.workloads.suite import BENCHMARK_ORDER, load, trace_for


@dataclass(frozen=True)
class Params:
    """The sizes of one workload."""

    #: Dynamic-instruction target of every simulated trace.
    scale: int
    #: Sampled engine spec (``None``: full detailed runs).
    sampling: Optional[SamplingSpec] = None
    #: Program scale of the functional campaigns (0: no campaigns).
    campaign_scale: int = 0
    #: Injections per program in each campaign.
    campaign_runs: int = 0


@dataclass
class Inputs:
    """What ``setup`` made: seeds, traces and campaign programs."""

    seed: int
    program_seed: int
    #: benchmark -> dynamic trace length of the simulated trace.
    trace_lengths: Dict[str, int]
    #: benchmark -> program the campaigns inject into.
    campaign_programs: Dict[str, Any] = field(default_factory=dict)
    #: benchmark -> hang budget (instructions) of its campaign runs.
    campaign_budgets: Dict[str, int] = field(default_factory=dict)


@dataclass
class OpResult:
    """One operation's outcome, checks and simulated results."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Canonical, JSON-able simulated results (hashed into the digest).
    results: Any = None
    #: Hits and lookups across the result and analysis caches.
    cache_hits: int = 0
    cache_lookups: int = 0
    #: Telemetry of the ParallelRunner call that ran the simulations.
    telemetry: Optional[RunTelemetry] = None
    #: Trace instructions summed over the simulated cells.
    trace_instructions: int = 0
    #: Instructions simulated in detail and measured, over all cells.
    measured_instructions: int = 0
    #: Mean over cells of 100 * ipc_ci / ipc (sampled cells only).
    ipc_ci_pct: float = 0.0
    #: Exact fault counts over the REESE runs.
    reese: Dict[str, int] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


#: REESE fault runs: a one-cycle environmental event every ~1 000 cycles
#: gives 6-13 detections and recoveries per run.  Longer events can hit
#: an instruction's retries too and stop the machine
#: (UnrecoverableFaultError), which a worker cannot send back to the
#: pool, so the run would hang.
FAULT_RATE = 1e-3
FAULT_DURATION = 1
#: Per-instruction bit-flip rate of the SDC campaign.
SDC_RATE = 1e-3
#: Hang budget of each campaign emulation, in golden-run lengths.
CAMPAIGN_BUDGET = 2


def _stats_record(stats) -> List[int]:
    return [
        stats.cycles,
        stats.committed,
        stats.errors_detected,
        stats.recoveries,
        stats.errors_undetected_same_event,
        stats.sdc_commits,
    ]


def check_full_cells(
    cells: Dict[str, Dict[str, Any]], trace_lengths: Dict[str, int]
) -> List[Tuple[str, str]]:
    """Full detailed cells that did not halt with every instruction.

    Returns ``(benchmark, series)`` for every cell whose Stats did not
    halt or whose ``committed`` differs from its trace length.
    """
    bad = []
    for bench, row in cells.items():
        for label, stats in row.items():
            if not stats.halted or stats.committed != trace_lengths[bench]:
                bad.append((bench, label))
    return bad


def check_sampled_cell(cell) -> int:
    """Intervals of one sampled cell that did not measure their window.

    An interval must halt at its stop point having committed exactly
    its measured instructions; the cell's estimate must be finite.
    """
    bad = sum(
        1
        for (_, start, end), stats in zip(cell.intervals, cell.interval_stats)
        if not stats.halted or stats.committed != end - start
    )
    if not (cell.ipc > 0 and math.isfinite(cell.ipc)
            and math.isfinite(cell.ipc_ci)):
        bad = len(cell.intervals)
    return bad


def runner_result(attempted: int, telemetry: RunTelemetry) -> OpResult:
    """An OpResult whose cache counts come from one runner call."""
    return OpResult(attempted=attempted, telemetry=telemetry,
                    cache_hits=telemetry.cache_hits,
                    cache_lookups=telemetry.jobs)


def add_full_cells(out: OpResult, cells: Dict[str, Dict[str, Any]],
                   trace_lengths: Dict[str, int]) -> None:
    """Check full detailed cells into ``out`` and count their work."""
    bad = check_full_cells(cells, trace_lengths)
    if bad:
        out.fail(len(bad), f"cells not run to completion: {bad}")
    for bench, row in cells.items():
        out.trace_instructions += trace_lengths[bench] * len(row)
        out.measured_instructions += sum(s.committed for s in row.values())


class Workload:
    """Base of the three workloads; subclasses define the operation."""

    name = ""
    why = ""

    def __init__(self, params: Params) -> None:
        self.params = params

    def setup(self, seed: int) -> Inputs:
        """Build every program and emulate every trace the op uses."""
        program_seed = derive_seed(seed, "program") % 1_000_000
        lengths = {}
        for bench in BENCHMARK_ORDER:
            _, trace = trace_for(bench, self.params.scale, program_seed)
            lengths[bench] = len(trace)
        return Inputs(seed, program_seed, lengths)

    def runner(self, jobs: int, cache_dir: str) -> ParallelRunner:
        # Every setting is explicit, so no REPRO_* variable can reach it.
        return ParallelRunner(
            jobs=jobs, use_cache=True, cache_dir=cache_dir, observe=False,
            check_invariants=False, profile=False, telemetry_path=None,
        )

    def planned(self, inputs: Inputs) -> int:
        """Operations one run attempts (all fail if it raises)."""
        raise NotImplementedError

    def operate(self, inputs: Inputs, jobs: int, cache_dir: str) -> OpResult:
        raise NotImplementedError


class Fig2Detailed(Workload):
    name = "fig2_detailed"
    why = ("cold Fig. 2 at the default scale: 30 large full-detail cells, "
           "so the pipeline (R-stream issue included) dominates")

    def planned(self, inputs: Inputs) -> int:
        return len(figure2_spec().series) * len(BENCHMARK_ORDER)

    def operate(self, inputs: Inputs, jobs: int, cache_dir: str) -> OpResult:
        runner = self.runner(jobs, cache_dir)
        figure = run_figure(figure2_spec(), scale=self.params.scale,
                            seed=inputs.program_seed, runner=runner)
        return self.check(figure, inputs, runner.telemetry)

    def check(self, figure, inputs: Inputs, telemetry) -> OpResult:
        """The OpResult of a finished figure (exposed for self-tests)."""
        cells = figure.cells
        out = runner_result(sum(len(row) for row in cells.values()),
                            telemetry)
        add_full_cells(out, cells, inputs.trace_lengths)
        out.results = {
            "rows": figure.rows(),
            "cells": [[bench, label] + _stats_record(stats)
                      for bench, row in cells.items()
                      for label, stats in row.items()],
        }
        return out


class Fig2Sampled(Workload):
    name = "fig2_sampled"
    why = ("Fig. 2 through the sampled engine: 600 small interval jobs, so "
           "sampling warm-up and per-job harness cost dominate")

    def planned(self, inputs: Inputs) -> int:
        return (len(figure2_spec().series) * len(BENCHMARK_ORDER)
                * self.params.sampling.intervals)

    def operate(self, inputs: Inputs, jobs: int, cache_dir: str) -> OpResult:
        runner = self.runner(jobs, cache_dir)
        figure = run_figure(figure2_spec(), scale=self.params.scale,
                            seed=inputs.program_seed, runner=runner,
                            sampling=self.params.sampling)
        cells = [cell for row in figure.cells.values() for cell in row.values()]
        out = runner_result(sum(len(cell.intervals) for cell in cells),
                            runner.telemetry)
        bad = sum(check_sampled_cell(cell) for cell in cells)
        if bad:
            out.fail(bad, f"{bad} interval(s) did not measure their window")
        out.results = {
            "rows": figure.rows(),
            "cells": [
                [bench, label, repr(cell.ipc), repr(cell.ipc_ci),
                 [list(bounds) for bounds in cell.intervals],
                 [[s.cycles, s.committed] for s in cell.interval_stats]]
                for bench, row in figure.cells.items()
                for label, cell in row.items()
            ],
        }
        out.trace_instructions = sum(c.total_instructions for c in cells)
        out.measured_instructions = sum(c.measured_instructions for c in cells)
        out.ipc_ci_pct = sum(
            100.0 * c.ipc_ci / c.ipc for c in cells
        ) / len(cells)
        return out


class FaultCampaign(Workload):
    name = "fault_campaign"
    why = ("faulted REESE and baseline runs plus site and SDC campaigns: "
           "the only load on the emulator, analysis and REESE recovery")

    def setup(self, seed: int) -> Inputs:
        inputs = super().setup(seed)
        for bench in BENCHMARK_ORDER:
            program = load(bench, self.params.campaign_scale,
                           inputs.program_seed)
            golden = emulate(program, collect_trace=False)
            inputs.campaign_programs[bench] = program
            # A hang costs its whole budget; a budget proportional to the
            # golden run keeps the cost of the few hangs a seed draws small.
            inputs.campaign_budgets[bench] = (
                CAMPAIGN_BUDGET * golden.instructions
            )
        return inputs

    def planned(self, inputs: Inputs) -> int:
        return len(BENCHMARK_ORDER) * (2 + 2 * self.params.campaign_runs)

    def fault_jobs(self, inputs: Inputs) -> List[SimJob]:
        base = starting_config()
        return [
            SimJob(
                bench, config, self.params.scale, seed=inputs.program_seed,
                fault=FaultSpec.make(
                    "environmental", rate=FAULT_RATE, duration=FAULT_DURATION,
                    seed=derive_seed(inputs.seed, "fault", bench),
                ),
            )
            for bench in BENCHMARK_ORDER
            for config in (base.with_reese(), base.without_reese())
        ]

    def operate(self, inputs: Inputs, jobs: int, cache_dir: str) -> OpResult:
        params = self.params
        runner = self.runner(jobs, cache_dir)
        sim_jobs = self.fault_jobs(inputs)
        # A run whose retries run out raises UnrecoverableFaultError rather
        # than returning Stats: with one worker the raise fails the whole
        # operation; with two the pool hangs until run.py's watchdog ends
        # the run without a result.
        all_stats = runner.run(sim_jobs)
        out = runner_result(len(sim_jobs), runner.telemetry)
        cells: Dict[str, Dict[str, Any]] = {}
        reese = {"detections": 0, "recoveries": 0, "escapes": 0}
        for job, stats in zip(sim_jobs, all_stats):
            kind = "reese" if job.config.reese.enabled else "baseline"
            cells.setdefault(job.benchmark, {})[kind] = stats
            if kind == "reese":
                reese["detections"] += stats.errors_detected
                reese["recoveries"] += stats.recoveries
                reese["escapes"] += (stats.errors_undetected_same_event
                                     + stats.sdc_commits)
        add_full_cells(out, cells, inputs.trace_lengths)
        out.reese = reese

        campaigns = []
        for bench in BENCHMARK_ORDER:
            program = inputs.campaign_programs[bench]
            site = campaign.run_site_campaign(
                program, runs=params.campaign_runs,
                seed=derive_seed(inputs.seed, "site", bench),
                max_instructions=inputs.campaign_budgets[bench], jobs=jobs,
                use_analysis_cache=True, analysis_cache_dir=cache_dir,
            )
            out.attempted += site.runs
            out.cache_lookups += 1
            out.cache_hits += int(site.analysis_from_cache)
            if sum(site.outcomes.values()) != site.runs:
                out.fail(site.runs, f"{bench}: site outcomes do not sum "
                                    f"to {site.runs} runs")
            if site.mismatches:
                out.fail(len(site.mismatches),
                         str(campaign.OracleMismatch(site.mismatches)))
            sdc = campaign.run_campaign(
                program, runs=params.campaign_runs, rate=SDC_RATE,
                seed=derive_seed(inputs.seed, "sdc", bench),
                max_instructions=inputs.campaign_budgets[bench], jobs=jobs,
            )
            out.attempted += sdc.runs
            if sum(sdc.outcomes.values()) != sdc.runs:
                out.fail(sdc.runs, f"{bench}: SDC outcomes do not sum "
                                   f"to {sdc.runs} runs")
            campaigns.append([
                bench,
                {k: sorted(v.items()) for k, v in sorted(site.by_class.items())},
                sorted(sdc.outcomes.items()), sdc.injections,
            ])
        out.results = {
            "runs": [[job.benchmark, job.config.name] + _stats_record(stats)
                     for job, stats in zip(sim_jobs, all_stats)],
            "campaigns": campaigns,
        }
        return out


def _make(cls, **params) -> Workload:
    return cls(Params(**params))


#: Full-size workloads, as the benchmark runs them.
WORKLOADS: Dict[str, Workload] = {
    "fig2_detailed": _make(Fig2Detailed, scale=20_000),
    # Scale 24 000 makes each trace 2-3.4x the 8 000 instructions that
    # SamplingSpec(20, 300) simulates in detail (the validated operating
    # point), while one cold run still fits the run budget.
    "fig2_sampled": _make(Fig2Sampled, scale=24_000,
                          sampling=SamplingSpec(20, 300)),
    "fault_campaign": _make(FaultCampaign, scale=20_000,
                            campaign_scale=4_000, campaign_runs=32),
}

#: The same workloads at a size that runs in seconds (self-tests).
TINY: Dict[str, Workload] = {
    "fig2_detailed": _make(Fig2Detailed, scale=600),
    "fig2_sampled": _make(Fig2Sampled, scale=3_000,
                          sampling=SamplingSpec(4, 200)),
    "fault_campaign": _make(FaultCampaign, scale=800, campaign_scale=600,
                            campaign_runs=4),
}
