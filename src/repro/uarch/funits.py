"""Functional-unit pools with operation and issue latencies.

Physical units follow SimpleScalar's resource classes:

* ``ialu``      — integer ALUs (also execute branches and the address
  side of the pipeline's simple ops);
* ``imultdiv``  — integer multiplier/dividers: ``mul`` is pipelined
  (issue latency 1), ``div``/``rem`` block the unit (unpipelined);
* ``fpadd``     — FP adders / compares / converts;
* ``fpmultdiv`` — FP multiplier/dividers (``fdiv``/``fsqrt`` block);
* ``mem``       — memory ports (cache access latency supplied by the
  memory hierarchy, so :meth:`FUPool.acquire` returns 0 for these and
  the caller computes the operation latency).

Each unit tracks the cycle at which it can next *accept* an operation;
an acquire succeeds when some unit in the class is free this cycle and
advances that unit by the op's issue latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instructions import FUClass
from .config import MachineConfig


class FUPool:
    """All functional units of one simulated machine."""

    # FUClass -> (physical pool key, latency attribute names)
    _OP_MAP: Dict[FUClass, Tuple[str, str, str]] = {
        FUClass.INT_ALU: ("ialu", "int_alu", "int_alu"),
        FUClass.INT_MULT: ("imultdiv", "int_mult", "int_mult_issue"),
        FUClass.INT_DIV: ("imultdiv", "int_div", "int_div_issue"),
        FUClass.FP_ADD: ("fpadd", "fp_add", "fp_add_issue"),
        FUClass.FP_MULT: ("fpmultdiv", "fp_mult", "fp_mult_issue"),
        FUClass.FP_DIV: ("fpmultdiv", "fp_div", "fp_div_issue"),
        FUClass.MEM_PORT: ("mem", "", ""),
    }

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        lat = config.latencies
        # Per-pool list of "next cycle this unit can accept an op".
        self._pools: Dict[str, List[int]] = {
            "ialu": [0] * config.int_alu,
            "imultdiv": [0] * config.int_mult,
            "fpadd": [0] * config.fp_alu,
            "fpmultdiv": [0] * config.fp_mult,
            "mem": [0] * config.mem_ports,
        }
        # Per-pool "this unit's current occupancy is R-stream work, and
        # it holds the unit until <cycle>" watermarks, read by
        # :meth:`blame` (the cycle-accounting profiler).
        self._r_until: Dict[str, List[int]] = {
            key: [0] * len(pool) for key, pool in self._pools.items()
        }
        # FUClass -> (pool, r_until, oplat, issuelat, pool key); mem uses
        # oplat 0 sentinel.
        self._dispatch: Dict[
            int, Tuple[List[int], List[int], int, int, str]
        ] = {}
        for fu_class, (pool_key, op_attr, issue_attr) in self._OP_MAP.items():
            pool = self._pools[pool_key]
            if fu_class is FUClass.MEM_PORT:
                oplat, issuelat = 0, 1
            else:
                oplat = getattr(lat, op_attr)
                issuelat = getattr(lat, issue_attr)
            self._dispatch[int(fu_class)] = (
                pool, self._r_until[pool_key], oplat, issuelat, pool_key,
            )
        #: Granted acquires per pool (reporting only).
        self.issues: Dict[str, int] = {key: 0 for key in self._pools}
        #: R-stream-only slice of :attr:`issues` (REESE re-executions
        #: and dispatch-duplication shadow copies), for the per-stage
        #: metrics registry's P/R utilisation split.
        self.issues_r: Dict[str, int] = {key: 0 for key in self._pools}

    def acquire(
        self, fu_class: FUClass, cycle: int, r_stream: bool = False
    ) -> Optional[int]:
        """Try to start an operation of ``fu_class`` at ``cycle``.

        Args:
            r_stream: the acquiring operation belongs to the redundant
                stream (an R-stream re-execution or a dispatch-dup
                shadow copy), so :meth:`blame` can say which stream
                holds a busy unit and :attr:`issues_r` counts it.

        Returns:
            The operation latency (0 for memory ports, whose latency the
            caller computes from the cache model), or ``None`` if every
            unit of the class is busy this cycle.  A grant counts one
            issue in :attr:`issues`.
        """
        pool, r_until, oplat, issuelat, key = self._dispatch[int(fu_class)]
        for index, next_free in enumerate(pool):
            if next_free <= cycle:
                pool[index] = cycle + issuelat
                self.issues[key] += 1
                if r_stream:
                    r_until[index] = cycle + issuelat
                    self.issues_r[key] += 1
                else:
                    r_until[index] = 0
                return oplat
        return None

    def blame(self, fu_class: FUClass, cycle: int) -> str:
        """Which stream to blame for a failed acquire of ``fu_class``.

        ``"R"`` when any currently-busy unit of the class is held by an
        R-stream operation (without REESE that unit would have been
        free, so the conflict is R-induced), ``"P"`` otherwise.  Only
        meaningful right after an acquire returned ``None``.
        """
        pool, r_until = self._dispatch[int(fu_class)][:2]
        for index, next_free in enumerate(pool):
            if next_free > cycle and r_until[index] >= next_free:
                return "R"
        return "P"

    def available(self, fu_class: FUClass, cycle: int) -> int:
        """Number of units of the class free to accept an op this cycle."""
        pool = self._dispatch[int(fu_class)][0]
        return sum(1 for next_free in pool if next_free <= cycle)
