#!/usr/bin/env python3
"""Host-time benchmark of the REESE reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2_detailed --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's cold
operation and one rerun are repeated with fresh caches, two workers,
for as many rounds as fit in ``--seconds`` (at least one), and the
median cold run is reported; then a few fresh processes time the
set-up.  ``--trace 1`` measures the per-layer metrics instead: one
untraced run with two workers (pool figures and ``rerun_s``), then one
traced run with one worker, whose spans give each layer's time (see
``spans.py``), beside an untraced one-worker run in a forked process;
the difference of their walls is the tracing overhead.

Every run checks its outputs (see ``loads.py``), prints a table of
metrics with their units and a sha256 digest of the simulated results,
writes a record with the host facts under ``.perfbench/out/``, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark: per-run caches and result records.
WORK = ROOT / ".perfbench"
#: Worker processes of the measured runs (the reference machine has 2).
WORKERS = 2
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
DEFAULT_SEED = 1
#: Never used while the benchmark or a change is tuned; confirm claims
#: on it.
HELD_OUT_SEED = 9001
#: A run still going after this long is killed, inside the 180 s a run
#: is allowed (a worker whose error cannot be sent back leaves its pool
#: waiting for ever).
WATCHDOG_SECONDS = 170


def fail(message: str) -> "SystemExit":
    return SystemExit(f"perfbench: {message}")


#: Set-up probes of this run (child processes that are not pool workers).
_SPAWNED: List[subprocess.Popen] = []


def _watchdog(signum, frame):
    """Kill every worker and child, then exit without a result.

    Nothing here releases the interpreter lock before ``os._exit``, so
    a pool cannot start a replacement for a killed worker meanwhile.
    """
    print(f"perfbench: run exceeded {WATCHDOG_SECONDS} s; stopping",
          file=sys.stderr, flush=True)
    for child in multiprocessing.active_children():
        child.kill()
    for child in _SPAWNED:
        child.kill()
    os._exit(3)


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise fail(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise fail(f"imported repro from {repro.__file__}, not {SRC}")


#: In the per-layer run, reruns after the two-worker cold run repeat
#: until they have taken this long (at most MAX_RERUNS), and ``rerun_s``
#: is their mean: a rerun of a full figure reads 30 cache entries in
#: milliseconds.  The shared reference machine switches between a
#: normal and a ~1.4x faster state every few seconds, and a
#: single-threaded rerun spreads too much from run to run to carry a
#: bound, so ``rerun_s`` is a per-layer metric.  Every other cold run
#: is followed by one rerun, for the cache and result checks.
PER_LAYER_RERUN_SECONDS = 3.0
MAX_RERUNS = 400


@dataclass
class Rep:
    """A cold operation and its reruns against the same caches."""

    cold: Any
    reruns: List[Any]
    cold_s: float
    rerun_s: List[float]
    digest: str

    @property
    def ops(self) -> List[Any]:
        return [self.cold] + self.reruns


def digest_of(result) -> str:
    blob = json.dumps(result.results, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def timed_operate(workload, inputs, jobs: int, cache_dir: str):
    """(OpResult, seconds); an exception fails every planned operation."""
    import loads

    start = time.perf_counter()
    try:
        result = workload.operate(inputs, jobs, cache_dir)
    except Exception:  # noqa: BLE001 - every failure is counted, not fatal
        planned = workload.planned(inputs)
        result = loads.OpResult(attempted=planned)
        result.fail(planned, traceback.format_exc())
    return result, time.perf_counter() - start


def cold_and_rerun(workload, inputs, jobs: int, tracer=None,
                   rerun_seconds: float = 0.0) -> Rep:
    """Run the operation with fresh caches, then again against them
    (once, or for ``rerun_seconds``)."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{workload.name}-",
                                 dir=WORK / "tmp")
    reruns, rerun_s = [], []
    try:
        with tracer.span("op.cold") if tracer else nullcontext():
            cold, cold_s = timed_operate(workload, inputs, jobs, cache_dir)
        while not reruns or (len(reruns) < MAX_RERUNS
                             and sum(rerun_s) < rerun_seconds):
            with tracer.span("op.rerun") if tracer else nullcontext():
                rerun, seconds = timed_operate(workload, inputs, jobs,
                                               cache_dir)
            reruns.append(rerun)
            rerun_s.append(seconds)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if cold.cache_hits:
        cold.fail(cold.cache_hits, f"cold run had {cold.cache_hits} "
                                   "cache hits")
    digest = digest_of(cold)
    for rerun in reruns:
        misses = rerun.cache_lookups - rerun.cache_hits
        if misses:
            rerun.fail(misses, f"rerun had {misses} cache misses")
        if digest_of(rerun) != digest:
            rerun.fail(rerun.attempted,
                       "rerun results differ from the cold run")
        # Kept results would make peak RSS grow with the rerun count.
        rerun.results = None
    cold.results = None
    return Rep(cold, reruns, cold_s, rerun_s, digest)


def probe_setup(workload: str, seed: int, tiny: bool) -> Dict[str, float]:
    """Time the set-up in a fresh process, to its ready line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    if tiny:
        command.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        _SPAWNED.append(child)
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.communicate(timeout=WATCHDOG_SECONDS)
    if child.returncode != 0 or not line:
        raise fail(f"set-up probe exited with {child.returncode}")
    record = json.loads(line)
    record["setup_s"] = elapsed
    return record


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pool_figures(telemetry) -> Dict[str, float]:
    """Pool overhead and worker balance of one ParallelRunner call."""
    simulated = [r for r in telemetry.records if not r.cached]
    busy: Dict[int, float] = {}
    for record in simulated:
        busy[record.worker] = busy.get(record.worker, 0.0) + record.elapsed
    overhead = (telemetry.workers * telemetry.wall_seconds
                - sum(r.elapsed for r in simulated))
    balance = (max(busy.values()) / statistics.mean(busy.values())
               if busy else 1.0)
    return {"parallel.pool_overhead_s": overhead,
            "parallel.worker_balance": balance}


def host_facts(workload) -> Dict[str, Any]:
    import dataclasses

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        git_rev = probe.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_rev": git_rev,
        "src_sha256": src_hash.hexdigest(),
        "workers": WORKERS,
        "traced_workers": 1,
        "params": dataclasses.asdict(workload.params),
    }


def measure_end_to_end(workload, inputs, args) -> Dict[str, Any]:
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(cold_and_rerun(workload, inputs, WORKERS))
        # Start another cold run only if one as long ends within budget.
        ended = time.perf_counter()
        if ended - start + (ended - began) > args.seconds:
            break
    rss = peak_rss_mb()
    probes = [probe_setup(workload.name, args.seed, args.tiny)
              for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (statistics.median(r.cold_s for r in reps), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    samples = {"wall_s": [r.cold_s for r in reps], "setup": probes}
    return {"reps": reps, "metrics": metrics, "samples": samples}


def measure_per_layer(workload, inputs, args) -> Dict[str, Any]:
    import spans
    from repro.workloads.suite import clear_trace_cache

    pooled = cold_and_rerun(workload, inputs, WORKERS,
                            rerun_seconds=PER_LAYER_RERUN_SECONDS)
    # The untraced one-worker run goes on the second core, forked before
    # the wrappers are installed, at the same time as the traced run:
    # one after the other, the two took 117 s of the 180 s a run may
    # take on fig2_sampled (2-vCPU reference machine).
    with multiprocessing.get_context("fork").Pool(1) as pool:
        untraced = pool.apply_async(cold_and_rerun, (workload, inputs, 1))
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            clear_trace_cache()
            with tracer.span("setup"):
                traced_inputs = workload.setup(args.seed)
            traced = cold_and_rerun(workload, traced_inputs, 1, tracer)
        finally:
            undo()
        single = untraced.get(WATCHDOG_SECONDS)
    cold_root = next(i for i, s in enumerate(tracer.spans)
                     if s.name == "op.cold")
    cold = traced.cold
    layer = spans.layer_metrics(tracer, cold_root, cold.trace_instructions)
    layer.update(pool_figures(pooled.cold.telemetry))
    traced_s = traced.cold_s + traced.rerun_s[0]
    untraced_s = single.cold_s + single.rerun_s[0]
    layer.update({
        "sampling.detail_fraction": (cold.measured_instructions
                                     / cold.trace_instructions),
        "sampling.ipc_ci_pct": cold.ipc_ci_pct,
        "rerun_s": statistics.mean(pooled.rerun_s),
        "parallel.jobs": float(pooled.cold.telemetry.jobs),
        "parallel.cache_hits": float(pooled.reruns[0].telemetry.cache_hits),
        "reese.detections": float(cold.reese.get("detections", 0)),
        "reese.recoveries": float(cold.reese.get("recoveries", 0)),
        "reese.escapes": float(cold.reese.get("escapes", 0)),
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spans-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps(tracer.to_json()))
    metrics = {name: (value, spans.UNITS[name])
               for name, value in sorted(layer.items())}
    return {"reps": [pooled, single, traced], "metrics": metrics,
            "samples": {}}


def report(workload, args, measured, facts) -> Dict[str, Any]:
    reps: List[Rep] = measured["reps"]
    ops = [op for rep in reps for op in rep.ops]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        failed += reps[-1].cold.attempted
        reps[-1].cold.problems.append(f"runs disagree: digests {digests}")
    problems = [p for op in ops for p in op.problems]
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    shown = dict(measured["metrics"])
    shown["failed_frac"] = (failed / attempted, "fraction")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"workers={facts['workers']} cpus={facts['cpu_count']} "
          f"python={facts['python']} git={facts['git_rev']} "
          f"params={json.dumps(facts['params'], sort_keys=True)}")
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  attempted {attempted}, failed {failed}")
    print(f"  results sha256 {digests[0]}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "host": facts,
        "attempted": attempted,
        "failed": failed,
        "digest": digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "samples": measured["samples"],
        "problems": problems,
    }
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured["metrics"].items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at self-test size")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe:
        signal.signal(signal.SIGALRM, _watchdog)
        signal.alarm(WATCHDOG_SECONDS)

    import_repro()
    import loads

    table = loads.TINY if args.tiny else loads.WORKLOADS
    if args.workload not in table:
        raise fail(f"unknown workload {args.workload!r}; "
                   f"expected one of {sorted(table)}")
    workload = table[args.workload]
    if args.setup_probe:
        imported = time.perf_counter() - started
        workload.setup(args.seed)
        print(json.dumps({"import_s": imported,
                          "inputs_s": time.perf_counter() - started
                          - imported}), flush=True)
        return 0

    inputs = workload.setup(args.seed)
    if args.trace:
        measured = measure_per_layer(workload, inputs, args)
    else:
        measured = measure_end_to_end(workload, inputs, args)
    print(json.dumps(report(workload, args, measured, host_facts(workload))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
