"""Worker-count invariance of the profiled accounting payload.

The detection-latency histograms (and the whole attribution account)
are part of the Stats payload, so they ride the result cache and feed
golden comparisons.  They must therefore be a pure function of the
job — byte-identical canonical JSON whether the suite ran on one
worker or fanned out over four, fresh or via the cache.
"""

import json

import pytest

from repro.harness.parallel import ParallelRunner, SimJob
from repro.uarch.config import starting_config
from repro.uarch.observe import Instrumentation


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _profiled_jobs():
    config = starting_config()
    profile = Instrumentation(profile=True)
    return [
        SimJob("go", config, 400, instrument=profile),
        SimJob("go", config.with_reese(), 400, instrument=profile),
        SimJob("vortex", config.with_reese(), 400, instrument=profile),
    ]


def _canonical_accounts(jobs_n):
    runner = ParallelRunner(jobs=jobs_n, use_cache=False)
    results = runner.run(_profiled_jobs())
    return [
        json.dumps(stats.accounting, sort_keys=True) for stats in results
    ]


class TestProfileDeterminism:
    def test_accounting_byte_stable_across_worker_counts(self):
        serial = _canonical_accounts(1)
        fanned = _canonical_accounts(4)
        assert serial == fanned

    def test_detection_histograms_populated_for_reese_only(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        base, reese, _ = runner.run(_profiled_jobs())
        assert base.accounting["detect_latency"] == {}
        assert reese.accounting["detect_latency"]
        # str-keyed, sorted — the canonical on-disk form.
        lags = list(reese.accounting["detect_latency"])
        assert all(isinstance(lag, str) for lag in lags)
        assert lags == sorted(lags, key=int)

    def test_cache_round_trip_preserves_account(self):
        jobs = _profiled_jobs()[:1]
        fresh = ParallelRunner(jobs=1, use_cache=True).run(jobs)[0]
        cached = ParallelRunner(jobs=1, use_cache=True).run(jobs)[0]
        assert json.dumps(cached.accounting, sort_keys=True) == json.dumps(
            fresh.accounting, sort_keys=True
        )
