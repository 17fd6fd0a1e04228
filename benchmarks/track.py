#!/usr/bin/env python
"""Benchmark-trajectory tracker: append one profiled suite snapshot.

Every PR that touches the timing model shifts the suite's IPCs and the
top-down attribution a little; ``BENCH_TRAJECTORY.json`` is the
append-only record of those shifts.  Each entry captures, for one
labelled point in time (typically a commit), the per-benchmark
Baseline / REESE / R+2 ALU IPCs and gaps plus the suite-aggregate
attribution summary — the REESE-vs-baseline R-share, the dominant slot
causes, and the detection-latency telemetry.  Diffing two entries
answers "what did that change do to the bottleneck structure?" without
re-running anything.

Usage::

    python benchmarks/track.py --label my-change --scale 8000 --jobs 4
    python benchmarks/track.py --validate        # schema-check only

The file is rewritten atomically on every append (tmp, fsync, rename),
so a crashed run never truncates the history.  Wall-clock timestamps
and ``git rev-parse`` are fine here — the determinism lint guards
``src/repro`` (simulation results), not this descriptive log.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import atomic_write_text  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    SERIES_BASELINE,
    SERIES_R2A,
    SERIES_REESE,
)
from repro.uarch.accounting import (  # noqa: E402
    SLOT_CAUSES,
    latency_summary,
    merge_accounting,
    r_share_of_delta,
)

#: Bump when the entry layout changes (validate_trajectory checks it).
TRAJECTORY_SCHEMA_VERSION = 1

DEFAULT_PATH = REPO_ROOT / "BENCH_TRAJECTORY.json"

#: Keys every per-benchmark block must carry.
_BENCH_KEYS = ("baseline_ipc", "reese_ipc", "r2a_ipc",
               "reese_gap", "r2a_gap")
#: Keys every suite block must carry.
_SUITE_KEYS = ("r_share", "slots_lost", "top_causes", "detect_latency")


def git_rev() -> str:
    """Short HEAD revision, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def collect_entry(label: str, scale: int, jobs: int,
                  use_cache: bool = True) -> Dict[str, Any]:
    """Run the profiled suite and build one trajectory entry."""
    from repro.harness.parallel import ParallelRunner, SimJob
    from repro.uarch.config import starting_config
    from repro.workloads.suite import BENCHMARK_ORDER

    config = starting_config()
    series = [
        (SERIES_BASELINE, config),
        (SERIES_REESE, config.with_reese()),
        (SERIES_R2A, config.with_spares(2, 0).with_reese()),
    ]
    runner = ParallelRunner(jobs=jobs, use_cache=use_cache, profile=True)
    sim_jobs = [
        SimJob(bench, cfg, scale)
        for bench in BENCHMARK_ORDER
        for _label, cfg in series
    ]
    stats = iter(runner.run(sim_jobs))
    per_bench: Dict[str, Dict[str, float]] = {}
    suite_accounts: Dict[str, Dict[str, Any]] = {}
    for bench in BENCHMARK_ORDER:
        cells = {lab: next(stats) for lab, _cfg in series}
        base_ipc = cells[SERIES_BASELINE].ipc
        per_bench[bench] = {
            "baseline_ipc": round(base_ipc, 4),
            "reese_ipc": round(cells[SERIES_REESE].ipc, 4),
            "r2a_ipc": round(cells[SERIES_R2A].ipc, 4),
            "reese_gap": round(
                1 - cells[SERIES_REESE].ipc / base_ipc if base_ipc else 0.0, 4
            ),
            "r2a_gap": round(
                1 - cells[SERIES_R2A].ipc / base_ipc if base_ipc else 0.0, 4
            ),
        }
        for lab, cell in cells.items():
            suite_accounts[lab] = merge_accounting(
                suite_accounts.get(lab, {}), cell.accounting or {}
            )
    r_delta, total_delta = r_share_of_delta(
        suite_accounts[SERIES_BASELINE], suite_accounts[SERIES_REESE]
    )
    reese_slots = suite_accounts[SERIES_REESE].get("slots", {})
    top_causes = sorted(
        ((cause, reese_slots.get(cause, 0)) for cause in SLOT_CAUSES),
        key=lambda item: -item[1],
    )[:5]
    detect = latency_summary(suite_accounts[SERIES_REESE])["detect_latency"]
    return {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": git_rev(),
        "scale": scale,
        "benchmarks": per_bench,
        "suite": {
            "r_share": round(r_delta / total_delta if total_delta else 0.0, 4),
            "slots_lost": total_delta,
            "top_causes": [[cause, count] for cause, count in top_causes],
            "detect_latency": {
                "count": detect["count"],
                "mean": round(detect["mean"], 2),
                "p50": detect["p50"],
                "p99": detect["p99"],
                "max": detect["max"],
            },
        },
    }


def load_trajectory(path: pathlib.Path) -> Dict[str, Any]:
    """Load (or initialise) the trajectory document."""
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"schema": TRAJECTORY_SCHEMA_VERSION, "entries": []}


def append_entry(path: pathlib.Path, entry: Dict[str, Any]) -> int:
    """Append ``entry`` and rewrite the file atomically.

    Returns the new entry count.  Validates before writing so a buggy
    collector can never corrupt the history file.
    """
    data = load_trajectory(path)
    data["entries"].append(entry)
    errors = validate_trajectory(data)
    if errors:
        raise ValueError("refusing to write invalid trajectory: "
                         + "; ".join(errors))
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return len(data["entries"])


def validate_trajectory(data: Dict[str, Any]) -> List[str]:
    """Schema-check a trajectory document (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["document is not an object"]
    if data.get("schema") != TRAJECTORY_SCHEMA_VERSION:
        errors.append(
            f"schema {data.get('schema')!r} != {TRAJECTORY_SCHEMA_VERSION}"
        )
    entries = data.get("entries")
    if not isinstance(entries, list):
        return errors + ["entries is not a list"]
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("label", "timestamp", "git_rev", "scale",
                    "benchmarks", "suite"):
            if key not in entry:
                errors.append(f"{where}: missing {key!r}")
        for bench, block in (entry.get("benchmarks") or {}).items():
            for key in _BENCH_KEYS:
                if key not in block:
                    errors.append(f"{where}.benchmarks[{bench!r}]: "
                                  f"missing {key!r}")
        suite = entry.get("suite") or {}
        for key in _SUITE_KEYS:
            if key not in suite:
                errors.append(f"{where}.suite: missing {key!r}")
        share = suite.get("r_share")
        if isinstance(share, (int, float)) and not 0.0 <= share <= 1.0:
            errors.append(f"{where}.suite.r_share {share} outside [0, 1]")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="append a profiled suite snapshot to the "
                    "benchmark trajectory",
    )
    parser.add_argument("--label", default="manual",
                        help="entry label (e.g. the change under test)")
    parser.add_argument("--scale", type=int, default=8000,
                        help="dynamic instructions per benchmark")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="disable the on-disk result cache")
    parser.add_argument("--path", type=pathlib.Path, default=DEFAULT_PATH,
                        help="trajectory file (default BENCH_TRAJECTORY.json)")
    parser.add_argument("--validate", action="store_true",
                        help="only schema-check the existing file")
    args = parser.parse_args(argv)

    if args.validate:
        if not args.path.exists():
            print(f"{args.path}: missing", file=sys.stderr)
            return 1
        errors = validate_trajectory(load_trajectory(args.path))
        for error in errors:
            print(f"{args.path}: {error}", file=sys.stderr)
        entries = len(load_trajectory(args.path).get("entries", []))
        print(f"{args.path}: {'INVALID' if errors else 'OK'} "
              f"({entries} entries)")
        return 1 if errors else 0

    entry = collect_entry(args.label, args.scale, args.jobs,
                          use_cache=not args.no_cache)
    count = append_entry(args.path, entry)
    suite = entry["suite"]
    print(f"appended entry {count} ({entry['label']!r} @ "
          f"{entry['git_rev']}): suite R-share "
          f"{suite['r_share']:.1%} of {suite['slots_lost']} slots lost; "
          f"detection p99 {suite['detect_latency']['p99']} cycles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
