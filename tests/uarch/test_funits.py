"""Unit tests for the functional-unit pools."""

import pytest

from repro.isa.instructions import FUClass
from repro.uarch import FUPool, starting_config


@pytest.fixture
def pool():
    return FUPool(starting_config())


class TestAcquire:
    def test_alu_count_per_cycle(self, pool):
        grants = [pool.acquire(FUClass.INT_ALU, 0) for _ in range(5)]
        assert grants[:4] == [1, 1, 1, 1]
        assert grants[4] is None  # only 4 ALUs (Table 1)

    def test_alus_free_next_cycle(self, pool):
        for _ in range(4):
            pool.acquire(FUClass.INT_ALU, 0)
        assert pool.acquire(FUClass.INT_ALU, 1) == 1

    def test_mult_is_pipelined(self, pool):
        assert pool.acquire(FUClass.INT_MULT, 0) == 3
        assert pool.acquire(FUClass.INT_MULT, 1) == 3  # issue latency 1

    def test_div_blocks_the_shared_unit(self, pool):
        assert pool.acquire(FUClass.INT_DIV, 0) == 20
        # The single mult/div unit is busy for the div's 19-cycle issue
        # latency: neither a mul nor another div can start.
        assert pool.acquire(FUClass.INT_MULT, 5) is None
        assert pool.acquire(FUClass.INT_DIV, 18) is None
        assert pool.acquire(FUClass.INT_MULT, 19) == 3

    def test_mem_ports_return_zero_latency(self, pool):
        assert pool.acquire(FUClass.MEM_PORT, 0) == 0
        assert pool.acquire(FUClass.MEM_PORT, 0) == 0
        assert pool.acquire(FUClass.MEM_PORT, 0) is None  # 2 ports

    def test_fp_div_unpipelined(self, pool):
        assert pool.acquire(FUClass.FP_DIV, 0) == 12
        assert pool.acquire(FUClass.FP_MULT, 5) is None
        assert pool.acquire(FUClass.FP_MULT, 12) == 4

    def test_spare_units_respected(self):
        pool = FUPool(starting_config().with_spares(alu=2, mult=1))
        grants = [pool.acquire(FUClass.INT_ALU, 0) for _ in range(7)]
        assert grants[:6] == [1] * 6 and grants[6] is None
        assert pool.acquire(FUClass.INT_MULT, 0) == 3
        assert pool.acquire(FUClass.INT_DIV, 0) == 20  # second unit


class TestAvailability:
    def test_available_counts(self, pool):
        assert pool.available(FUClass.INT_ALU, 0) == 4
        pool.acquire(FUClass.INT_ALU, 0)
        assert pool.available(FUClass.INT_ALU, 0) == 3
        assert pool.available(FUClass.INT_ALU, 1) == 4
