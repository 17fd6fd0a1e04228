"""Dynamic-trace records produced by the functional emulator.

The timing models are *execution-driven along the correct path*: the
functional emulator runs first and emits one :class:`DynInst` per
retired instruction, carrying everything the micro-architectural models
need —

* operand **values** (``a``, ``b``) so REESE's R stream can re-execute
  the instruction from its R-stream Queue entry,
* the architectural **result** so the comparator has the P-stream value,
* load/store **effective addresses** for the cache and LSQ models,
* branch **outcome and target** as ground truth for the predictor, and
* ``next_index``, the static index of the following dynamic instruction,
  which is where fetch must resume after a squash or an error-recovery
  refetch.

Records use ``__slots__`` and plain attributes: the timing core touches
millions of these, so attribute access cost matters.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..isa.instructions import FUClass, Op

Value = Union[int, float]


class DynInst:
    """One dynamically executed (retired) instruction."""

    __slots__ = (
        "seq",          # dynamic sequence number (index into the trace)
        "static_index", # absolute index of the static instruction
        "pc",           # byte PC
        "op",           # Op
        "fu",           # FUClass of the executing unit
        "dst",          # unified destination register index or -1
        "srcs",         # tuple of unified source register indices
        "a",            # value of rs1 at execution time (0 if unused)
        "b",            # value of rs2 at execution time (0 if unused)
        "imm",          # immediate
        "result",       # architectural result value (None if none)
        "is_load",
        "is_store",
        "is_branch",
        "is_cond_branch",
        "ea",           # effective address for loads/stores, else None
        "store_value",  # value stored to memory (stores only)
        "taken",        # branch outcome (branches only)
        "target_index", # taken-path static target index (branches only)
        "next_index",   # static index of the next dynamic instruction
    )

    def __init__(self) -> None:
        self.seq = 0
        self.static_index = 0
        self.pc = 0
        self.op = Op.NOP
        self.fu = FUClass.NONE
        self.dst = -1
        self.srcs = ()
        self.a = 0
        self.b = 0
        self.imm = 0
        self.result: Optional[Value] = None
        self.is_load = False
        self.is_store = False
        self.is_branch = False
        self.is_cond_branch = False
        self.ea: Optional[int] = None
        self.store_value: Optional[Value] = None
        self.taken = False
        self.target_index = -1
        self.next_index = -1

    def renumbered(self, seq: int) -> "DynInst":
        """A copy of this record with sequence number ``seq``.

        Spelled out field by field because the sampled engine copies
        every instruction of every detailed window: explicit
        assignments run about five times faster than a
        ``getattr``/``setattr`` loop over ``__slots__``.
        """
        clone = DynInst.__new__(DynInst)
        clone.seq = seq
        clone.static_index = self.static_index
        clone.pc = self.pc
        clone.op = self.op
        clone.fu = self.fu
        clone.dst = self.dst
        clone.srcs = self.srcs
        clone.a = self.a
        clone.b = self.b
        clone.imm = self.imm
        clone.result = self.result
        clone.is_load = self.is_load
        clone.is_store = self.is_store
        clone.is_branch = self.is_branch
        clone.is_cond_branch = self.is_cond_branch
        clone.ea = self.ea
        clone.store_value = self.store_value
        clone.taken = self.taken
        clone.target_index = self.target_index
        clone.next_index = self.next_index
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DynInst #{self.seq} @{self.pc:#x} {self.op.name}"
            f" res={self.result!r} ea={self.ea!r}>"
        )


Trace = List[DynInst]
