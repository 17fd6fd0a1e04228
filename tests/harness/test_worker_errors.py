"""Simulation errors must cross the worker-pool boundary intact.

``multiprocessing`` ships a worker's exception to the parent by
pickling it.  An exception that cannot be unpickled kills the pool's
result-handler thread, and ``Pool.map`` then never returns — so every
error a simulation can raise is round-tripped here, and a pool run that
raises one is driven in a subprocess with a timeout, so a regression
fails instead of hanging the suite.
"""

import os
import pathlib
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.reese.recovery import UnrecoverableFaultError
from repro.uarch.observe import InvariantViolation
from repro.uarch.pipeline import SimulationTimeoutError
from repro.uarch.stats import Stats

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _round_trip(error):
    return pickle.loads(pickle.dumps(error))


class TestPickleRoundTrip:
    def test_invariant_violation(self):
        error = _round_trip(
            InvariantViolation("commit-oracle", 42, 7, "bad value")
        )
        assert type(error) is InvariantViolation
        assert (error.invariant, error.cycle, error.trace_seq,
                error.detail) == ("commit-oracle", 42, 7, "bad value")
        assert str(error) == (
            "[commit-oracle] at cycle 42, instruction 7: bad value"
        )

    def test_unrecoverable_fault_error(self):
        error = _round_trip(UnrecoverableFaultError(11, 3))
        assert type(error) is UnrecoverableFaultError
        assert (error.seq, error.attempts) == (11, 3)
        assert "instruction #11" in str(error)

    def test_simulation_timeout_error(self):
        stats = Stats()
        stats.committed = 5
        error = _round_trip(SimulationTimeoutError(100, 5, 9, stats))
        assert type(error) is SimulationTimeoutError
        assert (error.cap, error.committed, error.total) == (100, 5, 9)
        assert error.stats.committed == 5
        assert "cycle cap 100" in str(error)


_POOL_RUN = textwrap.dedent("""
    from repro.harness.parallel import FaultSpec, ParallelRunner, SimJob
    from repro.uarch import Instrumentation, InvariantViolation
    from repro.uarch.config import starting_config

    jobs = [
        SimJob(bench, starting_config(), 400,
               fault=FaultSpec.make("bernoulli", rate=0.2, seed=7),
               instrument=Instrumentation(check_invariants=True))
        for bench in ("go", "vortex")
    ]
    try:
        ParallelRunner(jobs=2, use_cache=False).run(jobs)
    except InvariantViolation as error:
        print("raised", error.invariant)
""")


def test_pool_worker_violation_reaches_the_parent():
    """Two workers, a faulted baseline run, the checker on: the parent
    sees the InvariantViolation instead of hanging in ``Pool.map``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_RUN], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("ParallelRunner hung on a worker's InvariantViolation")
    assert proc.returncode == 0, err
    assert out.strip() == "raised commit-oracle"
