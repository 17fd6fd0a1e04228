"""Unit tests for the sampled + fast-forward simulation engine."""

import dataclasses
import pickle

import pytest

from repro.arch.trace import DynInst
from repro.uarch import sampling
from repro.uarch.config import MachineConfig
from repro.uarch.sampling import fold_key, profile_for, resequence, warm_state_at
from repro.uarch import (
    Pipeline,
    SampledResult,
    SamplingSpec,
    Stats,
    WarmState,
    build_warm_state,
    mispredict_profile,
    run_interval,
    run_sampled,
    select_intervals,
    starting_config,
)
from repro.workloads.suite import trace_for

SCALE = 3000


@pytest.fixture(scope="module")
def workload():
    return trace_for("li", SCALE)


@pytest.fixture(scope="module")
def cfg():
    return starting_config()


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec(10)
        assert spec.interval_length == 300
        assert spec.placement == "profile"
        assert spec.index is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"intervals": 0},
            {"intervals": 4, "interval_length": 0},
            {"intervals": 4, "warmup": -1},
            {"intervals": 4, "cooldown": -1},
            {"intervals": 4, "placement": "stratified"},
            {"intervals": 4, "index": 4},
            {"intervals": 4, "index": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplingSpec(**kwargs)

    def test_index_in_range_ok(self):
        assert SamplingSpec(4, index=3).index == 3


class TestSelectIntervals:
    def test_profile_requires_prefix_sums(self):
        with pytest.raises(ValueError, match="profile"):
            select_intervals(10_000, SamplingSpec(4))

    def test_empty_trace(self):
        assert select_intervals(0, SamplingSpec(4, placement="end")) == []

    @pytest.mark.parametrize("placement", ["profile", "random", "end"])
    def test_degenerate_contiguous_partition(self, placement):
        # Requested coverage >= trace: every placement falls back to
        # the contiguous partition (full detailed simulation).
        spec = SamplingSpec(4, 300, placement=placement)
        bounds = select_intervals(1000, spec)
        assert bounds == [(0, 0, 300), (300, 300, 600), (600, 600, 900),
                          (900, 900, 1000)]

    @pytest.mark.parametrize("placement", ["random", "end"])
    def test_windows_ordered_and_disjoint(self, placement):
        spec = SamplingSpec(7, 100, warmup=30, placement=placement)
        bounds = select_intervals(10_000, spec)
        assert len(bounds) == 7
        previous_end = 0
        for warm_start, measure_start, end in bounds:
            assert previous_end <= warm_start <= measure_start < end
            assert end - measure_start <= spec.interval_length
            assert measure_start - warm_start <= spec.warmup
            previous_end = end

    def test_profile_placement_deterministic(self, workload, cfg):
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        spec = SamplingSpec(5, 150, warmup=40)
        first = select_intervals(len(trace), spec, profile)
        second = select_intervals(len(trace), spec, profile)
        assert first == second
        assert len(first) == 5
        previous_end = 0
        for warm_start, measure_start, end in first:
            assert previous_end <= warm_start <= measure_start < end
            previous_end = end

    def test_profile_spans_density_quantiles(self, workload, cfg):
        # The chosen windows must not all come from one density
        # extreme: with k windows over distinct densities, the picked
        # set spans more than one density value whenever the grid does.
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        spec = SamplingSpec(5, 150)
        bounds = select_intervals(len(trace), spec, profile)
        densities = {profile[end] - profile[m0] for _, m0, end in bounds}
        assert len(densities) > 1

    def test_random_placement_seeded(self):
        spec_a = SamplingSpec(5, 100, placement="random", seed=7)
        spec_b = SamplingSpec(5, 100, placement="random", seed=8)
        same = select_intervals(50_000, spec_a)
        assert same == select_intervals(50_000, spec_a)
        assert same != select_intervals(50_000, spec_b)


#: Every kind ``make_predictor`` builds.
PREDICTOR_KINDS = ["gshare", "bimodal", "combining", "local", "taken",
                   "nottaken", "perfect"]

#: Machine modes by the commit path they exercise: baseline, REESE and
#: dispatch duplication.
MODES = {
    "base": lambda cfg: cfg,
    "reese": lambda cfg: cfg.with_reese(),
    "dup": lambda cfg: cfg.with_dispatch_dup(),
}


class TestMispredictProfile:
    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_detailed_pipeline_exactly(self, workload, cfg, mode,
                                               kind):
        # Mispredict events are a pure trace property (predictors train
        # at fetch with trace ground truth), so the functional replay
        # must reproduce the detailed simulator's count exactly, for
        # every predictor and whatever the back end does.
        program, trace = workload
        config = MODES[mode](dataclasses.replace(cfg, predictor=kind))
        profile = mispredict_profile(program, trace, config)
        assert len(profile) == len(trace) + 1
        stats = Pipeline(program, trace, config).run()
        assert profile[-1] == stats.mispredictions

    def test_prefix_sums_monotonic(self, workload, cfg):
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        assert profile[0] == 0
        assert all(a <= b for a, b in zip(profile, profile[1:]))


class TestWarmState:
    def test_snapshot_isolated_from_sweep(self, workload, cfg):
        program, trace = workload
        state = WarmState(program, cfg)
        state.advance(trace, 0, 500)
        snap = state.snapshot()
        state.advance(trace, 500, 1500)
        # The snapshot's structures are separate objects with their own
        # state; the sweep advancing must not have touched them.
        assert snap.predictor is not state.predictor
        assert snap.mem is not state.mem
        assert snap.btb is not state.btb
        other = WarmState(program, cfg)
        other.advance(trace, 0, 500)
        reference = other.snapshot()
        assert snap.btb._tags == reference.btb._tags
        assert snap.ras._stack == reference.ras._stack

    def test_snapshot_zeroes_statistics(self, workload, cfg):
        program, trace = workload
        state = WarmState(program, cfg)
        state.warm_full(trace)
        state.advance(trace, 0, 1000)
        snap = state.snapshot()
        assert snap.mem.l1d.accesses == 0
        assert snap.predictor.lookups == 0
        assert snap.btb.hits == 0 and snap.btb.misses == 0
        assert snap.ras.pushes == 0 and snap.ras.pops == 0

    def test_incremental_equals_from_scratch(self, workload, cfg):
        # The warm fold is associative over trace prefixes: advancing
        # incrementally must land in the same state as one shot.
        program, trace = workload
        incremental = WarmState(program, cfg)
        incremental.warm_full(trace)
        incremental.advance(trace, 0, 700)
        incremental.advance(trace, 700, 1400)
        reference = build_warm_state(program, cfg, trace, 1400)
        snap = incremental.snapshot()
        assert snap.btb._tags == reference.btb._tags
        assert snap.btb._targets == reference.btb._targets
        assert snap.ras._stack == reference.ras._stack
        assert snap.mem.l1d._tags == reference.mem.l1d._tags


class TestRunSampled:
    def test_intervals_match_fanout_byte_identical(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150, warmup=40, cooldown=40)
        result = run_sampled(program, trace, cfg, spec)
        for index in range(4):
            solo = run_interval(program, trace, cfg, spec, index)
            assert solo.state_dict() == \
                result.interval_stats[index].state_dict()

    def test_from_interval_stats_round_trip(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        profile = mispredict_profile(program, trace, cfg)
        result = run_sampled(program, trace, cfg, spec)
        rebuilt = SampledResult.from_interval_stats(
            spec, len(trace), result.interval_stats, profile
        )
        assert rebuilt.ipc == result.ipc
        assert rebuilt.ipc_ci == result.ipc_ci
        assert rebuilt.intervals == result.intervals

    def test_from_interval_stats_length_mismatch(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        profile = mispredict_profile(program, trace, cfg)
        with pytest.raises(ValueError, match="interval Stats"):
            SampledResult.from_interval_stats(
                spec, len(trace), [Stats()], profile
            )

    def test_reasonable_accuracy_vs_full_run(self, workload, cfg):
        program, trace = workload
        warm = build_warm_state(program, cfg, trace, 0)
        full = Pipeline(program, trace, cfg, warm_state=warm).run()
        spec = SamplingSpec(6, 200, warmup=50, cooldown=50)
        result = run_sampled(program, trace, cfg, spec)
        assert result.ipc == pytest.approx(full.ipc, rel=0.05)

    def test_degenerate_covers_everything(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(len(trace) // 300 + 1, 300)
        result = run_sampled(program, trace, cfg, spec)
        assert result.measured_instructions == len(trace)
        assert result.detail_fraction == 1.0
        # Full coverage: the ratio estimate is used (regression would
        # have nothing to extrapolate).
        assert "ratio" in result.summary()

    def test_observable_metadata(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        result = run_sampled(program, trace, cfg, spec)
        assert result.total_instructions == len(trace)
        assert 0.0 < result.detail_fraction < 1.0
        assert result.simulated_fraction >= result.detail_fraction
        assert len(result.interval_ipcs) == 4
        assert result.ipc_ci >= 0.0
        assert "sampled 4x150" in result.summary()


class TestEstimators:
    def _stats(self, committed, cycles):
        stats = Stats()
        stats.committed = committed
        stats.cycles = cycles
        stats.halted = True
        return stats

    def test_regression_recovers_exact_linear_model(self):
        # cycles = 2*insts + 10*mispredicts, constructed exactly.
        spec = SamplingSpec(3, 100)
        intervals = [(0, 0, 100), (400, 400, 500), (800, 800, 900)]
        mispredicts = [0, 10, 30]
        interval_stats = [
            self._stats(100, 2 * 100 + 10 * m) for m in mispredicts
        ]
        result = SampledResult(
            spec, 1000, intervals, interval_stats,
            interval_mispredicts=mispredicts, total_mispredicts=50,
        )
        expected_cycles = 2 * 1000 + 10 * 50
        assert result.estimated_cycles == pytest.approx(expected_cycles)
        assert result.ipc == pytest.approx(1000 / expected_cycles)
        # A perfect fit has zero residual, hence a zero CI.
        assert result.ipc_ci == pytest.approx(0.0, abs=1e-9)

    def test_ratio_fallback_without_regressors(self):
        spec = SamplingSpec(2, 100, placement="end")
        intervals = [(0, 0, 100), (400, 400, 500)]
        interval_stats = [self._stats(100, 50), self._stats(100, 150)]
        result = SampledResult(spec, 1000, intervals, interval_stats)
        assert result.estimated_cycles == pytest.approx(
            200 * 1000 / 200
        )
        assert result.ipc == pytest.approx(result.stats.ipc)

    def test_ratio_fallback_on_degenerate_mispredict_spread(self):
        # Identical mispredict counts cannot identify b: fall back.
        spec = SamplingSpec(2, 100)
        intervals = [(0, 0, 100), (400, 400, 500)]
        interval_stats = [self._stats(100, 120), self._stats(100, 130)]
        result = SampledResult(
            spec, 1000, intervals, interval_stats,
            interval_mispredicts=[5, 5], total_mispredicts=50,
        )
        assert result.ipc == pytest.approx(result.stats.ipc)

    def test_single_interval_has_zero_ci(self):
        spec = SamplingSpec(1, 100, placement="end")
        result = SampledResult(
            spec, 1000, [(0, 0, 100)], [self._stats(100, 80)]
        )
        assert result.ipc_ci == 0.0


class TestResequence:
    def test_copies_every_slot_and_renumbers(self, workload):
        _, trace = workload
        window = resequence(trace, 100, 160)
        assert [dyn.seq for dyn in window] == list(range(60))
        for copy, original in zip(window, trace[100:160]):
            assert copy is not original
            for name in DynInst.__slots__[1:]:
                assert getattr(copy, name) == getattr(original, name), name


def _perturbed(value, name=""):
    """A different, still valid value of one config field."""
    if name == "predictor":
        return "bimodal" if value != "bimodal" else "gshare"
    if name == "predictor_kwargs":
        return {"history_bits": 10}
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 if value else 1  # keeps powers of two valid
    if isinstance(value, str):
        return value + "x"
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(
            value, **{first: _perturbed(getattr(value, first), first)}
        )
    raise TypeError(f"no perturbation for {name}={value!r}")


def _variants(base):
    """(field, config differing from ``base`` in that field only)."""
    for f in dataclasses.fields(MachineConfig):
        value = getattr(base, f.name)
        yield f.name, dataclasses.replace(
            base, **{f.name: _perturbed(value, f.name)}
        )


def _warm_bytes(state):
    return pickle.dumps(
        (state.mem, state.predictor, state.btb, state.ras)
    )


class TestSweepMemoKey:
    """:func:`fold_key` must name every config field the warm fold and
    the mispredict profile read, and nothing else.  A field added later
    that changes the warm state without being keyed fails here."""

    START = 1200

    def test_non_key_fields_leave_warm_state_and_profile_equal(
        self, workload, cfg
    ):
        program, trace = workload
        reference = _warm_bytes(
            build_warm_state(program, cfg, trace, self.START)
        )
        profile = mispredict_profile(program, trace, cfg)
        checked = []
        for name, variant in _variants(cfg):
            if fold_key(variant) != fold_key(cfg):
                continue
            checked.append(name)
            state = build_warm_state(program, variant, trace, self.START)
            assert _warm_bytes(state) == reference, name
            assert mispredict_profile(program, trace, variant) == profile, \
                name
        for name in ("fetch_width", "int_alu", "ruu_size", "lsq_size",
                     "latencies", "reese", "dispatch_dup"):
            assert name in checked

    def test_non_key_fields_share_the_memo(self, workload, cfg):
        program, trace = workload
        warm_state_at(program, cfg, trace, 0)
        profile = profile_for(program, trace, cfg)
        memo = sampling._sweep_memo
        start = self.START
        for name, variant in _variants(cfg):
            if fold_key(variant) != fold_key(cfg):
                continue
            state = warm_state_at(program, variant, trace, start)
            assert sampling._sweep_memo is memo, name
            assert profile_for(program, trace, variant) is profile, name
            assert _warm_bytes(state) == _warm_bytes(
                build_warm_state(program, cfg, trace, start)
            ), name
            start += 10

    def test_key_fields_miss_the_memo(self, workload, cfg):
        program, trace = workload
        missed = []
        for name, variant in _variants(cfg):
            if fold_key(variant) == fold_key(cfg):
                continue
            missed.append(name)
            warm_state_at(program, cfg, trace, 0)
            profile_for(program, trace, cfg)
            sweep, profile = sampling._sweep_memo, sampling._profile_memo
            state = warm_state_at(program, variant, trace, self.START)
            assert sampling._sweep_memo is not sweep, name
            profile_for(program, trace, variant)
            assert sampling._profile_memo is not profile, name
            assert _warm_bytes(state) == _warm_bytes(
                build_warm_state(program, variant, trace, self.START)
            ), name
        assert sorted(missed) == sorted(
            ["mem", "predictor", "predictor_kwargs", "btb_entries",
             "ras_depth"]
        )

    def test_warm_flag_and_trace_identity_miss_the_memo(self, workload, cfg):
        program, trace = workload
        warm_state_at(program, cfg, trace, 0, warm=True)
        memo = sampling._sweep_memo
        warm_state_at(program, cfg, trace, 10, warm=False)
        assert sampling._sweep_memo is not memo
        memo = sampling._sweep_memo
        warm_state_at(program, cfg, list(trace), 20, warm=False)
        assert sampling._sweep_memo is not memo

