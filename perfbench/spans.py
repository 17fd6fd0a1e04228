"""Span tracing of the benchmark's calls into each layer of ``repro``.

The traced run replaces the public entry points of every layer with a
wrapper that records a span around the call: a name, a start, an end,
the span that was open when the call began (its parent) and a few
attributes read off the arguments and result (cycles simulated,
instructions replayed).  Each name is patched where it is looked up —
``emulate`` in both the suite and the campaign module, for example —
and restored afterwards.  Spans stay in memory until the run writes
them out.  Nothing under ``src/`` changes.

The traced run uses one worker, so every span is in this process and
the spans of one call tree nest.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.harness import campaign, parallel
from repro.uarch import pipeline, sampling
from repro.uarch.stats import Stats
from repro.workloads import suite


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (times in ns of ``perf_counter_ns``)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Context manager form of :meth:`open` / :meth:`close`."""
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``attrs(args, result)``
        returns attributes to attach once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return traced

    def self_times(self) -> List[int]:
        """Self time of every span, in span order."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end,
             "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]


def _bench(program) -> str:
    name = program.name
    return name[: -len("_proxy")] if name.endswith("_proxy") else name


def _pipeline_attrs(args, stats) -> Dict[str, Any]:
    pipe = args[0]
    return {
        "cycles": pipe.cycle,
        "committed": stats.committed,
        "bench": _bench(pipe.program),
        "reese": bool(pipe.config.reese.enabled),
    }


def _emulated(args, result) -> Dict[str, Any]:
    return {"instructions": result.instructions}


def _replayed_trace(args, _result) -> Dict[str, Any]:
    return {"replayed": len(args[1])}


def _advance_attrs(args, _result) -> Dict[str, Any]:
    _state, trace, start, stop = args[:4]
    return {"replayed": max(0, min(stop, len(trace)) - start)}


#: (owner, attribute, span name, attrs) — every patched entry point.
#: Module-level functions are patched in each module that looks them
#: up; methods are patched on their class.
PATCHES: List[Tuple[Any, str, str, Optional[Callable]]] = [
    (suite.Workload, "build", "workloads.build", None),
    (suite, "emulate", "arch.emulate", _emulated),
    (campaign, "emulate", "arch.emulate", _emulated),
    (pipeline.Pipeline, "run", "pipeline.run", _pipeline_attrs),
    (pipeline, "warm_caches_over", "pipeline.warmup", None),
    (pipeline, "warm_predictor_over", "pipeline.warmup", None),
    (sampling, "mispredict_profile", "sampling.profile", _replayed_trace),
    (parallel, "mispredict_profile", "sampling.profile", _replayed_trace),
    (sampling, "build_warm_state", "sampling.warm", None),
    (sampling.WarmState, "warm_full", "sampling.warm", _replayed_trace),
    (sampling.WarmState, "advance", "sampling.warm", _advance_attrs),
    (parallel, "expand_sampled_job", "parallel.expand", None),
    (parallel, "job_fingerprint", "parallel.fingerprint", None),
    (parallel.ResultCache, "get", "parallel.cache_get", None),
    (parallel.ResultCache, "put", "parallel.cache_put", None),
    (Stats, "state_dict", "stats.encode", None),
    (Stats, "from_dict", "stats.decode", None),
    (campaign, "run_site_campaign", "campaign.site", None),
    (campaign, "run_campaign", "campaign.sdc", None),
    (campaign, "analyze_program", "analysis.analyze", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every entry point in :data:`PATCHES`; returns the undo."""
    saved = []
    for owner, attr, name, attrs in PATCHES:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(tracer.wrap(name, raw.__func__, attrs))
        else:
            patched = tracer.wrap(name, raw, attrs)
        saved.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def undo() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return undo


def _within(spans: List[Span], index: int, accept: Callable[[Span], bool]
            ) -> bool:
    """Whether an ancestor of span ``index`` satisfies ``accept``."""
    parent = spans[index].parent
    while parent is not None:
        if accept(spans[parent]):
            return True
        parent = spans[parent].parent
    return False


#: Unit of every per-layer metric the traced run reports.
UNITS: Dict[str, str] = {
    "workloads.build_s": "s",
    "arch.emulate_s": "s",
    "arch.emulate_kips": "kinst/s",
    "pipeline.run_s": "s",
    "pipeline.warmup_s": "s",
    "pipeline.ns_per_cycle": "ns",
    "pipeline.cycles": "count",
    "pipeline.reese_over_baseline": "ratio",
    **{f"pipeline.kips.{bench}.{kind}": "kinst/s"
       for bench in suite.BENCHMARK_ORDER for kind in ("baseline", "reese")},
    "sampling.profile_s": "s",
    "sampling.warm_s": "s",
    "sampling.detail_fraction": "fraction",
    "sampling.replay_per_trace": "ratio",
    "sampling.ipc_ci_pct": "%",
    "parallel.fingerprint_s": "s",
    "parallel.cache_get_s": "s",
    "parallel.cache_put_s": "s",
    "parallel.expand_s": "s",
    "stats.encode_s": "s",
    "stats.decode_s": "s",
    "rerun_s": "s",
    "parallel.jobs": "count",
    "parallel.cache_hits": "count",
    "parallel.pool_overhead_s": "s",
    "parallel.worker_balance": "ratio",
    "campaign.site_s": "s",
    "campaign.sdc_s": "s",
    "campaign.emulations": "count",
    "analysis.analyze_s": "s",
    "reese.detections": "count",
    "reese.recoveries": "count",
    "reese.escapes": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(tracer: Tracer, cold_root: int,
                  trace_instructions: int) -> Dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Times are totals over the whole traced run (set-up, cold run and
    rerun), in seconds.  ``pipeline.run_s``, ``sampling.warm_s`` and
    the cache and expand times are self times; the rest include their
    children.  ``sampling.replay_per_trace`` counts the instructions
    replayed functionally in the cold run (the span ``cold_root``) per
    trace instruction of its cells.  ``trace.unattributed_s`` is the
    time of the benchmark's own root spans that no layer span covers.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) / 1e9

    def self_total(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name) / 1e9

    emulate_s = total("arch.emulate")
    # Runs that crash raise before reporting their length: the rate is
    # taken over the runs that returned.
    returned = [s for s in spans
                if s.name == "arch.emulate" and "instructions" in s.attrs]
    returned_s = sum(s.duration for s in returned) / 1e9
    emulated = sum(s.attrs["instructions"] for s in returned)

    runs = [(s, t) for s, t in zip(spans, own) if s.name == "pipeline.run"]
    pipe_s = sum(t for _, t in runs) / 1e9
    cycles = sum(s.attrs.get("cycles", 0) for s, _ in runs)
    metrics: Dict[str, float] = {}
    #: reese flag -> [self seconds, committed instructions]
    per_kind = {True: [0.0, 0], False: [0.0, 0]}
    for bench in suite.BENCHMARK_ORDER:
        for reese, kind in ((False, "baseline"), (True, "reese")):
            chosen = [(s, t) for s, t in runs
                      if s.attrs.get("bench") == bench
                      and s.attrs.get("reese") == reese]
            secs = sum(t for _, t in chosen) / 1e9
            insts = sum(s.attrs["committed"] for s, _ in chosen)
            per_kind[reese][0] += secs
            per_kind[reese][1] += insts
            metrics[f"pipeline.kips.{bench}.{kind}"] = (
                insts / secs / 1e3 if secs else 0.0
            )
    (rs, ri), (bs, bi) = per_kind[True], per_kind[False]
    # Host time per committed instruction, REESE over baseline.
    reese_over_baseline = (rs / ri) / (bs / bi) if ri and bi and bs else 0.0

    replayed = sum(
        s.attrs.get("replayed", 0)
        for i, s in enumerate(spans)
        if s.name in ("sampling.profile", "sampling.warm")
        and _within(spans, i, lambda p: p is spans[cold_root])
    )
    campaign_emulations = sum(
        1 for i, s in enumerate(spans)
        if s.name == "arch.emulate"
        and _within(spans, i, lambda p: p.name.startswith("campaign."))
    )
    metrics.update({
        "workloads.build_s": total("workloads.build"),
        "arch.emulate_s": emulate_s,
        "arch.emulate_kips": emulated / returned_s / 1e3 if returned_s else 0.0,
        "pipeline.run_s": pipe_s,
        "pipeline.warmup_s": total("pipeline.warmup"),
        "pipeline.ns_per_cycle": pipe_s * 1e9 / cycles if cycles else 0.0,
        "pipeline.cycles": float(cycles),
        "pipeline.reese_over_baseline": reese_over_baseline,
        "sampling.profile_s": total("sampling.profile"),
        "sampling.warm_s": self_total("sampling.warm"),
        "sampling.replay_per_trace": replayed / trace_instructions,
        "parallel.fingerprint_s": total("parallel.fingerprint"),
        "parallel.cache_get_s": self_total("parallel.cache_get"),
        "parallel.cache_put_s": self_total("parallel.cache_put"),
        "parallel.expand_s": self_total("parallel.expand"),
        "stats.encode_s": total("stats.encode"),
        "stats.decode_s": total("stats.decode"),
        "campaign.site_s": total("campaign.site"),
        "campaign.sdc_s": total("campaign.sdc"),
        "campaign.emulations": float(campaign_emulations),
        "analysis.analyze_s": total("analysis.analyze"),
        "trace.unattributed_s": sum(
            t for s, t in zip(spans, own) if s.parent is None) / 1e9,
    })
    return metrics
