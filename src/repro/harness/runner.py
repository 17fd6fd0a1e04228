"""Model runner: one simulation = (workload, machine config) -> Stats.

This is the narrow waist between the workloads, the timing models and
the experiment definitions.  All figure experiments run through
:func:`run_benchmark`, which

* memoises the workload trace (shared across the 4-5 machine models of
  a figure),
* starts the machine from the warm state at trace position 0 (the
  paper's 100 M-instruction runs are effectively warm; see DESIGN.md
  §5), the same fold the sampled engine starts its intervals from,
  and
* honours the ``REPRO_BENCH_INSTRUCTIONS`` environment variable so the
  whole figure suite can be scaled to the machine it runs on.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from typing import Optional

from ..arch.trace import Trace
from ..isa.program import Program
from ..reese.faults import FaultModel, NoFaults
from ..uarch.config import MachineConfig
from ..uarch.observe import Instrumentation
from ..uarch.pipeline import Pipeline
from ..uarch.sampling import (
    SampledResult,
    SamplingSpec,
    run_sampled,
    warm_state_at,
)
from ..uarch.stats import Stats

# DEFAULT_SCALE is re-exported here for backward compatibility; the
# single source of truth lives with the workload builders so the suite
# and the harness can never disagree on "the default trace" again.
from ..workloads.suite import DEFAULT_SCALE, trace_for


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """Integer environment knob with warn-and-default error handling.

    An unset or empty variable silently yields ``default``; a malformed
    value (``"2e4"``, ``"20k"``) or one below ``minimum`` warns and
    yields ``default`` instead of crashing — or worse, silently running
    every experiment with the wrong knob.  The shared parser behind
    ``REPRO_BENCH_INSTRUCTIONS``, ``REPRO_BENCH_JOBS`` and friends.
    """
    value = os.environ.get(name, "")
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={value!r} "
            f"(expected a positive integer); using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    if parsed < minimum:
        qualifier = "not positive" if minimum == 1 else f"below {minimum}"
        warnings.warn(
            f"{name}={value!r} is {qualifier}; using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    return parsed


#: Spellings accepted by :func:`env_flag` (case-insensitive).
_FLAG_TRUE = frozenset(("1", "true", "yes", "on"))
_FLAG_FALSE = frozenset(("0", "false", "no", "off", ""))


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment knob with warn-and-default error handling.

    Accepts the usual spellings (``1/0``, ``true/false``, ``yes/no``,
    ``on/off``, any case); an empty set-but-blank variable reads as
    false; anything else warns and yields ``default``.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    norm = value.strip().lower()
    if norm in _FLAG_TRUE:
        return True
    if norm in _FLAG_FALSE:
        return False
    warnings.warn(
        f"ignoring malformed {name}={value!r} "
        f"(expected a boolean like 1/0/true/false); using {default}",
        RuntimeWarning,
        stacklevel=3,
    )
    return default


def bench_scale() -> int:
    """Dynamic instructions per benchmark (env-overridable).

    Precedence: an explicit ``scale`` argument (e.g. the CLI's
    ``--scale``) beats ``REPRO_BENCH_INSTRUCTIONS``, which beats
    :data:`DEFAULT_SCALE`.  A malformed or non-positive env value (e.g.
    ``"2e4"``, ``"20k"``, ``"-5"``) warns and falls back to the default
    instead of silently running every experiment at the wrong scale.
    """
    return env_int("REPRO_BENCH_INSTRUCTIONS", DEFAULT_SCALE)


def resolve_instrumentation(
    instrument: Optional[Instrumentation], faulted: bool
) -> Instrumentation:
    """Fold the environment gates into ``instrument``.

    * ``REPRO_CHECK_INVARIANTS`` (anything but unset, empty or ``0``)
      attaches the runtime invariant checker — except to fault-injected
      runs, whose whole point is to commit corrupted values the checker
      would (correctly) reject.  This is how CI runs the tier-1 suite
      with invariant checking on without every test opting in.
    * ``REPRO_PROFILE`` attaches the cycle-accounting profiler, the
      environment spelling of the CLI's ``--profile``.

    The parallel layer calls this per job *before* fingerprinting, so a
    cache key always says which probes produced its entry.
    """
    instrument = instrument or Instrumentation()
    check = instrument.check_invariants or (
        not faulted
        and os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
    )
    profile = instrument.profile or env_flag("REPRO_PROFILE", False)
    return dataclasses.replace(
        instrument, check_invariants=check, profile=profile
    )


def run_model(
    program: Program,
    trace: Trace,
    config: MachineConfig,
    fault_model: Optional[FaultModel] = None,
    warm: bool = True,
    max_cycles: Optional[int] = None,
    instrument: Optional[Instrumentation] = None,
) -> Stats:
    """Simulate one program trace on one machine configuration.

    Args:
        warm: start from :func:`~repro.uarch.sampling.warm_state_at`
            position 0 (caches, TLBs and direction predictor warmed by
            one pass over the trace, statistics zeroed) instead of a
            cold machine.  The state comes from this process's sweep
            memo, so the configs of a figure that warm alike share one
            warm pass per trace.
        instrument: the probes to attach (event trace, stage metrics,
            invariant checker, cycle-accounting profiler), used as given.
            ``None`` defers to the environment gates (see
            :func:`resolve_instrumentation`).
    """
    if instrument is None:
        faulted = fault_model is not None and not isinstance(
            fault_model, NoFaults
        )
        instrument = resolve_instrumentation(None, faulted)
    pipeline = Pipeline(
        program,
        trace,
        config,
        fault_model=fault_model,
        probe=instrument.probe(),
        warm_state=warm_state_at(program, config, trace, 0) if warm else None,
    )
    return pipeline.run(max_cycles=max_cycles)


def run_benchmark(
    name: str,
    config: MachineConfig,
    scale: Optional[int] = None,
    seed: Optional[int] = None,
    fault_model: Optional[FaultModel] = None,
    warm: bool = True,
    instrument: Optional[Instrumentation] = None,
) -> Stats:
    """Simulate one named benchmark on one machine configuration."""
    program, trace = trace_for(name, scale or bench_scale(), seed)
    return run_model(program, trace, config, fault_model=fault_model,
                     warm=warm, instrument=instrument)


def run_sampled_benchmark(
    name: str,
    config: MachineConfig,
    sampling: SamplingSpec,
    scale: Optional[int] = None,
    seed: Optional[int] = None,
    fault_factory=None,
    warm: bool = True,
) -> SampledResult:
    """Sampled simulation of one named benchmark (in process).

    The convenience single-workload entry point mirroring
    :func:`run_benchmark`; experiment drivers that want interval-level
    parallelism should go through
    :func:`repro.harness.parallel.run_sampled_jobs` instead.
    """
    program, trace = trace_for(name, scale or bench_scale(), seed)
    return run_sampled(program, trace, config, sampling,
                       fault_factory=fault_factory, warm=warm)
