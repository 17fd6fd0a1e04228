"""Parallel experiment execution: fan simulation jobs over worker processes.

Every experiment in the reproduction — the figure suites, the
spare-capacity sweep, the fault campaigns — decomposes into independent
``(benchmark, config, seed, fault model)`` simulation jobs.  This module
is the single execution layer they all route through:

* :class:`SimJob` describes one simulation; :func:`job_fingerprint`
  derives a stable content hash of everything that determines its
  result (benchmark, scale, resolved seed, the full
  :class:`~repro.uarch.config.MachineConfig` contents minus the cosmetic
  ``name``, and the fault-model parameters).
* :class:`ResultCache` persists :class:`~repro.uarch.stats.Stats` under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``) keyed by that
  fingerprint, so re-running a figure after an unrelated code change is
  a cache hit.
* :class:`ParallelRunner` executes a job list: cache lookups first, then
  the misses over a ``multiprocessing`` pool (in-process when one worker
  suffices).  Results come back in input order and are bit-identical
  regardless of worker count or scheduling, because each job is fully
  determined by its own fields — nothing is sampled from shared state.
* :class:`RunTelemetry` records per-job timing/outcome for
  :func:`repro.harness.reporting.telemetry_report`.
* Sampled simulation (:mod:`repro.uarch.sampling`) plugs in at two
  granularities.  A :class:`SimJob` whose ``sampling`` spec names a
  single interval (``spec.index`` set) simulates just that measurement
  window — a self-contained, cacheable unit.  :func:`run_sampled_jobs`
  expands whole sampled jobs into those interval jobs, runs them all in
  one flat batch (so every interval of every cell shares the pool), and
  merges each job's interval Stats back into a
  :class:`~repro.uarch.sampling.SampledResult`.

Worker lifecycle: each worker process keeps its own module-level
memoised trace cache (:func:`repro.workloads.suite.trace_for`), so a
worker pays trace generation once per ``(benchmark, scale, seed)`` and
amortises it across every config it simulates.  The cache is
LRU-bounded; long-lived workers that sweep many distinct workloads stay
within :data:`repro.workloads.suite.TRACE_CACHE_LIMIT` entries, and
:func:`repro.workloads.suite.clear_trace_cache` drops it entirely
between campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..jsonstore import JSONStore
from ..reese.faults import (
    BernoulliFaultModel,
    EnvironmentalFaultModel,
    FaultModel,
    ScheduledFaultModel,
)
from ..uarch.config import MachineConfig
from ..uarch.observe import Instrumentation
# mispredict_profile stays importable from here for existing callers.
from ..uarch.sampling import (  # noqa: F401
    SampledResult,
    SamplingSpec,
    mispredict_profile,
    profile_for,
    run_interval,
    run_sampled,
    select_intervals,
)
from ..uarch.stats import Stats
from ..workloads.suite import BENCHMARKS
from .runner import resolve_instrumentation, run_model
from .telemetry import write_job_telemetry

#: Bump to invalidate every on-disk cache entry after a model change.
#: v2: Stats gained ``stage_metrics`` and jobs gained observability
#: fields that change the payload (observed runs populate the registry).
#: v3: jobs gained the ``sampling`` spec (every field of which changes
#: which instructions are simulated), so sampled and full runs — and
#: sampled runs with different specs — never share an entry.
#: v4: Stats gained ``accounting`` and jobs gained the ``profile``
#: flag (profiled runs populate the attribution account).
#: v5: full warm runs start from the sampled engine's warm state, whose
#: snapshot zeroes the D-TLB counters too (the warm-up pass used to be
#: counted in ``cache_stats["dtlb"]``).
#: v6: ``stage_metrics`` of a run with a ``measure_from`` window (every
#: sampled interval) covers only the window; it used to count the
#: detailed warm-up cycles too.
CACHE_VERSION = 6

_T = TypeVar("_T")
_R = TypeVar("_R")

_FAULT_KINDS: Dict[str, Callable[..., FaultModel]] = {
    "environmental": EnvironmentalFaultModel,
    "bernoulli": BernoulliFaultModel,
    "scheduled": ScheduledFaultModel,
}


@dataclass(frozen=True)
class FaultSpec:
    """A picklable, fingerprintable description of a fault model.

    Fault models themselves carry live RNG state, so jobs ship this
    spec instead and each worker builds a fresh model — which is also
    what makes injected runs reproducible across worker counts.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(_FAULT_KINDS)}"
            )

    @classmethod
    def make(cls, kind: str, **params: Any) -> "FaultSpec":
        return cls(kind, tuple(sorted(params.items())))

    def build(self) -> FaultModel:
        return _FAULT_KINDS[self.kind](**dict(self.params))


@dataclass(frozen=True)
class SimJob:
    """One simulation: a benchmark on a machine config, optionally faulted."""

    benchmark: str
    config: MachineConfig
    scale: int
    seed: Optional[int] = None
    fault: Optional[FaultSpec] = None
    warm: bool = True
    #: Sampled simulation (``None`` = full detailed run).  With
    #: ``sampling.index`` set the job simulates that one measurement
    #: interval; with ``index=None`` it runs the whole sampled
    #: simulation in process and returns the merged interval Stats
    #: (use :func:`run_sampled_jobs` to fan intervals over workers and
    #: keep the :class:`~repro.uarch.sampling.SampledResult` estimate).
    sampling: Optional[SamplingSpec] = None
    #: Probes to attach: stage metrics (``Stats.stage_metrics``), the
    #: invariant checker, the cycle-accounting profiler
    #: (``Stats.accounting``; sampled jobs profile each interval and
    #: merge the accounts) and a JSONL event trace.  Trace files are a
    #: side effect the result cache cannot replay, so jobs with a trace
    #: path always simulate (no cache read).  A whole-run sampled job
    #: attaches only the checker and the profiler, one of each per
    #: interval.
    instrument: Instrumentation = Instrumentation()

    def resolved_seed(self) -> int:
        """The seed actually used (``None`` means the workload default)."""
        if self.seed is not None:
            return self.seed
        return BENCHMARKS[self.benchmark].default_seed


def derive_seed(base: int, *parts: Any) -> int:
    """Derive a per-job seed from a base seed and the job's identity.

    Stable across processes and Python versions (no ``hash()``), so a
    job's RNG stream depends only on what the job *is*, never on which
    worker runs it or in what order.
    """
    text = json.dumps([base, *[str(part) for part in parts]])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def job_fingerprint(job: SimJob) -> str:
    """Content hash of everything that determines a job's Stats.

    The config's cosmetic ``name`` is excluded: two configs that differ
    only in label simulate identically and share a cache entry.
    """
    config = dataclasses.asdict(job.config)
    config.pop("name", None)
    payload = {
        "version": CACHE_VERSION,
        "benchmark": job.benchmark,
        "scale": job.scale,
        "seed": job.resolved_seed(),
        "warm": job.warm,
        "config": config,
        "fault": (
            {"kind": job.fault.kind, "params": list(job.fault.params)}
            if job.fault
            else None
        ),
        # Probes change the Stats payload (stage_metrics, accounting)
        # but not the simulated outcome; they are part of the key so
        # instrumented and plain runs never serve each other's entries.
        # The trace path is a pure side-effect destination and is
        # excluded.
        "observe": job.instrument.metrics,
        "check_invariants": job.instrument.check_invariants,
        "sampling": (
            dataclasses.asdict(job.sampling) if job.sampling else None
        ),
        "profile": job.instrument.profile,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache(JSONStore):
    """On-disk Stats cache keyed by :func:`job_fingerprint`.

    A :class:`repro.jsonstore.JSONStore` at the cache root whose
    entries hold one ``stats`` payload; undecodable Stats are a miss.
    """

    version = CACHE_VERSION
    label = "result cache"

    def get(self, fingerprint: str) -> Optional[Stats]:
        data = super().get(fingerprint)
        if data is None:
            return None
        try:
            return Stats.from_dict(data["stats"])
        except (KeyError, TypeError):
            return None

    def put(self, fingerprint: str, stats: Stats) -> None:
        super().put(fingerprint, {"stats": stats.state_dict()})


@dataclass
class JobRecord:
    """Telemetry for one executed (or cache-served) job."""

    index: int
    benchmark: str
    config: str
    scale: int
    seed: int
    cached: bool
    elapsed: float
    worker: int
    #: Simulated cycles of the job's Stats (cache hits report the
    #: cached run's count).  Defaulted so older positional callers
    #: keep constructing records unchanged.
    cycles: int = 0


@dataclass
class RunTelemetry:
    """Aggregate outcome of one :meth:`ParallelRunner.run` call."""

    jobs: int
    workers: int
    cache_hits: int
    wall_seconds: float
    records: List[JobRecord] = field(default_factory=list)

    @property
    def simulated(self) -> int:
        return self.jobs - self.cache_hits

    def summary(self) -> str:
        sim_time = sum(r.elapsed for r in self.records if not r.cached)
        return (
            f"[parallel] {self.jobs} jobs ({self.cache_hits} cache hits, "
            f"{self.simulated} simulated) on {self.workers} worker(s); "
            f"wall {self.wall_seconds:.2f}s, sim {sim_time:.2f}s"
        )


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (workers inherit already-memoised traces for free)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def interval_fault_spec(fault: FaultSpec, index: int) -> FaultSpec:
    """The per-interval FaultSpec of a sampled fault-injection job.

    Fault models carry live RNG streams, so each measurement interval
    gets its own model seeded from ``(base seed, interval index)`` —
    a function of the interval's identity alone, which keeps interval
    jobs order-independent across workers and makes the in-process and
    fanned-out sampled paths draw identical fault sequences.  Specs
    without a ``seed`` parameter (e.g. ``scheduled``) pass through
    unchanged; their cycle offsets are relative to each interval's run.
    """
    params = dict(fault.params)
    if "seed" in params:
        params["seed"] = derive_seed(params["seed"], "interval", index)
    return FaultSpec.make(fault.kind, **params)


def _execute_job(job: SimJob) -> Tuple[Stats, float, int]:
    """Worker entry point: simulate one job, report timing and pid.

    The job's instrumentation is used as given: the runner resolved the
    environment gates into it before fingerprinting, so a worker-side
    env read would desynchronise payload and key.
    """
    from ..workloads.suite import trace_for

    start = time.perf_counter()
    program, trace = trace_for(job.benchmark, job.scale, job.seed)
    spec = job.sampling
    fault = job.fault.build() if job.fault else None
    if spec is None:
        stats = run_model(program, trace, job.config, fault_model=fault,
                          warm=job.warm, instrument=job.instrument)
    elif spec.index is not None:
        stats = run_interval(program, trace, job.config, spec, spec.index,
                             fault_model=fault, warm=job.warm,
                             instrument=job.instrument)
    else:
        factory = None
        if job.fault is not None:
            base = job.fault

            def factory(index: int):
                return interval_fault_spec(base, index).build()

        # Whole-run sampled jobs never collected stage metrics, so their
        # cache entries carry none; one trace file cannot hold every
        # interval.
        instrument = dataclasses.replace(
            job.instrument, metrics=False, trace_path=None
        )
        stats = run_sampled(program, trace, job.config, spec,
                            fault_factory=factory, warm=job.warm,
                            instrument=instrument).stats
    return stats, time.perf_counter() - start, os.getpid()


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Order-preserving pool map; runs in-process when one worker suffices.

    ``fn`` must be a picklable module-level callable.  Used by the
    fault-campaign driver; figure/sweep work should go through
    :class:`ParallelRunner` to get caching and telemetry.
    """
    items = list(items)
    workers = min(jobs or (os.cpu_count() or 1), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with _mp_context().Pool(workers) as pool:
        return pool.map(fn, items)


class ParallelRunner:
    """Execute SimJobs over a worker pool with an on-disk result cache.

    Args:
        jobs: worker-process count; ``None`` means all cores.
        use_cache: consult/populate the on-disk result cache.
        cache_dir: cache location (default ``REPRO_CACHE_DIR`` or
            ``.repro_cache``).
        observe: collect per-stage metrics for every job (applied on
            top of each job's own ``instrument``).
        check_invariants: run every job under the runtime invariant
            checker (likewise applied on top of per-job fields).
        profile: attach the cycle-accounting profiler to every job
            (applied on top of per-job fields).  The
            ``REPRO_PROFILE`` and ``REPRO_CHECK_INVARIANTS`` gates are
            folded into each job here, before fingerprinting, so cache
            keys always say which probes produced an entry.
        telemetry_path: after every :meth:`run`, write the per-job
            records as an atomic JSONL file at this path (see
            :mod:`repro.harness.telemetry`).

    After each :meth:`run`, :attr:`telemetry` holds the
    :class:`RunTelemetry` for that call.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        cache_dir: Optional[os.PathLike] = None,
        observe: bool = False,
        check_invariants: bool = False,
        profile: bool = False,
        telemetry_path: Optional[os.PathLike] = None,
    ) -> None:
        self.jobs = max(1, int(jobs)) if jobs else (os.cpu_count() or 1)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.observe = observe
        self.check_invariants = check_invariants
        self.profile = profile
        self.telemetry_path = telemetry_path
        self.telemetry: Optional[RunTelemetry] = None

    def _apply_defaults(self, job: SimJob) -> SimJob:
        """Fold runner-level flags and environment gates into a job."""
        given = job.instrument
        instrument = resolve_instrumentation(
            dataclasses.replace(
                given,
                metrics=given.metrics or self.observe,
                check_invariants=given.check_invariants
                or self.check_invariants,
                profile=given.profile or self.profile,
            ),
            faulted=job.fault is not None,
        )
        if instrument == given:
            return job
        return dataclasses.replace(job, instrument=instrument)

    def run(self, sim_jobs: Sequence[SimJob]) -> List[Stats]:
        """Run every job; results are returned in input order."""
        start = time.perf_counter()
        sim_jobs = [self._apply_defaults(job) for job in sim_jobs]
        fingerprints = [job_fingerprint(job) for job in sim_jobs]
        results: List[Optional[Stats]] = [None] * len(sim_jobs)
        records: List[Optional[JobRecord]] = [None] * len(sim_jobs)

        pending: List[int] = []
        for index, (job, fp) in enumerate(zip(sim_jobs, fingerprints)):
            # A job that writes a trace file must actually run — a cache
            # hit would return the Stats but silently skip the trace.
            servable = (
                self.cache is not None and job.instrument.trace_path is None
            )
            cached = self.cache.get(fp) if servable else None
            if cached is not None:
                results[index] = cached
                records[index] = JobRecord(
                    index, job.benchmark, job.config.name, job.scale,
                    job.resolved_seed(), True, 0.0, os.getpid(),
                    cached.cycles,
                )
            else:
                pending.append(index)

        workers = max(1, min(self.jobs, len(pending)))
        if pending:
            batch = [sim_jobs[i] for i in pending]
            if workers == 1:
                outputs = [_execute_job(job) for job in batch]
            else:
                with _mp_context().Pool(workers) as pool:
                    outputs = pool.map(_execute_job, batch)
            for index, (stats, elapsed, pid) in zip(pending, outputs):
                job = sim_jobs[index]
                results[index] = stats
                records[index] = JobRecord(
                    index, job.benchmark, job.config.name, job.scale,
                    job.resolved_seed(), False, elapsed, pid,
                    stats.cycles,
                )
                if self.cache:
                    self.cache.put(fingerprints[index], stats)

        self.telemetry = RunTelemetry(
            jobs=len(sim_jobs),
            workers=workers if pending else 0,
            cache_hits=len(sim_jobs) - len(pending),
            wall_seconds=time.perf_counter() - start,
            records=[record for record in records if record is not None],
        )
        if self.telemetry_path is not None:
            write_job_telemetry(self.telemetry_path, self.telemetry)
        return [stats for stats in results if stats is not None]


def resolve_runner(
    runner: Optional[ParallelRunner],
    jobs: Optional[int],
    cache: bool,
    cache_dir: Optional[os.PathLike] = None,
) -> ParallelRunner:
    """The shared ``runner=None`` convention of the experiment drivers.

    An explicit runner wins; otherwise one is built from the scalar
    knobs (``jobs=None`` meaning *sequential* here — library callers
    opt into parallelism, only the CLI defaults to all cores).
    """
    if runner is not None:
        return runner
    return ParallelRunner(jobs=jobs or 1, use_cache=cache,
                          cache_dir=cache_dir)


def expand_sampled_job(
    job: SimJob,
) -> Tuple[List[SimJob], int, Optional[List[int]]]:
    """Interval-level SimJobs for one sampled job, plus its merge inputs.

    Returns ``(interval_jobs, trace_length, profile)`` where
    ``interval_jobs[i]`` simulates measurement interval ``i`` (its spec
    carries ``index=i`` and, for injected jobs, a per-interval derived
    fault seed) and ``profile`` is the mispredict prefix-sum list for
    ``"profile"`` placement (``None`` otherwise).  The trace length is
    returned because interval counts depend on it, and it is a property
    of the generated workload, not of ``scale`` (traces stop at program
    halt or continue past ``scale`` to a clean boundary).

    Trace-path side effects are dropped from interval jobs: one JSONL
    destination cannot serve k concurrent pipelines.
    """
    from ..workloads.suite import trace_for

    spec = job.sampling
    if spec is None:
        raise ValueError("expand_sampled_job needs a job with a sampling spec")
    if spec.index is not None:
        raise ValueError("job is already a single-interval job "
                         f"(index={spec.index})")
    program, trace = trace_for(job.benchmark, job.scale, job.seed)
    profile = None
    if spec.placement == "profile":
        profile = profile_for(program, trace, job.config)
    bounds = select_intervals(len(trace), spec, profile)
    interval_jobs = []
    for index in range(len(bounds)):
        fault = interval_fault_spec(job.fault, index) if job.fault else None
        interval_jobs.append(
            dataclasses.replace(
                job,
                sampling=dataclasses.replace(spec, index=index),
                fault=fault,
                instrument=dataclasses.replace(
                    job.instrument, trace_path=None
                ),
            )
        )
    return interval_jobs, len(trace), profile


def run_sampled_jobs(
    sim_jobs: Sequence[SimJob],
    runner: ParallelRunner,
) -> List[SampledResult]:
    """Run sampled jobs with interval-level parallelism.

    Expands every job into its per-interval SimJobs, executes them all
    as one flat batch — so the pool load-balances across intervals of
    *all* cells, not one cell at a time — and merges each job's
    interval Stats into a :class:`~repro.uarch.sampling.SampledResult`
    (point estimate plus confidence interval).  Interval jobs are
    cached individually, so re-running with a different grouping, job
    order or worker count is a pure cache hit, and results are
    bit-identical to :func:`~repro.uarch.sampling.run_sampled` in
    process.
    """
    expanded = [expand_sampled_job(job) for job in sim_jobs]
    flat = [ij for interval_jobs, _, _ in expanded for ij in interval_jobs]
    all_stats = runner.run(flat)
    results: List[SampledResult] = []
    cursor = 0
    for job, (interval_jobs, total, profile) in zip(sim_jobs, expanded):
        chunk = all_stats[cursor:cursor + len(interval_jobs)]
        cursor += len(interval_jobs)
        spec = dataclasses.replace(job.sampling, index=None)
        results.append(
            SampledResult.from_interval_stats(spec, total, chunk, profile)
        )
    return results
