"""Set-associative cache model with latency-probe semantics.

This follows SimpleScalar's blocking ``cache_access`` style: an access
returns the *total* latency to satisfy the request (hit latency on a
hit; hit latency plus the next level's latency on a miss), updating tag
state and statistics as a side effect.  No MSHRs are modelled — the
out-of-order core overlaps misses with independent work because each
load occupies its functional unit (memory port) only for its issue
slot and completes via the event queue after the returned latency.

Replacement policies: ``lru`` (default), ``fifo`` and ``random``
(seeded, deterministic).  Writes are write-back / write-allocate; dirty
evictions are counted (``writebacks``) but, like SimpleScalar's default
configuration, are not charged additional latency on the critical path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    name: str
    size: int            # total bytes
    assoc: int           # ways
    line_size: int       # bytes per line
    hit_latency: int     # cycles
    policy: str = "lru"  # 'lru' | 'fifo' | 'random'
    #: On a demand miss, also fill the next sequential line (simple
    #: one-block-lookahead prefetch; fill cost hides behind the demand
    #: fill, so no extra latency is charged).
    prefetch_next_line: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError("cache size, assoc and line_size must be positive")
        if self.size % (self.assoc * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*line_size = {self.assoc * self.line_size}"
            )
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line_size must be a power of two")
        n_sets = self.size // (self.assoc * self.line_size)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: number of sets must be a power of two")
        if self.policy not in ("lru", "fifo", "random"):
            raise ValueError(f"{self.name}: unknown policy {self.policy!r}")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


class Cache:
    """One level of a blocking cache hierarchy.

    Line state lives in three flat parallel lists (``_tags``,
    ``_valid``, ``_dirty``) indexed by ``set_index * assoc + way``
    rather than per-line objects: the sampled-simulation engine
    snapshots whole hierarchies at every measurement interval, and
    ``list(...)`` copies of flat arrays are an order of magnitude
    cheaper than rebuilding ~10k line objects.  For the same reason
    each set's replacement order is an immutable tuple that an update
    replaces, so a snapshot shares the tuples instead of copying them.
    """

    def __init__(
        self,
        params: CacheParams,
        next_level: Optional["Cache"] = None,
        miss_latency: int = 70,
        seed: int = 12345,
    ) -> None:
        """
        Args:
            params: geometry/timing.
            next_level: the cache behind this one, or ``None`` if backed
                by main memory.
            miss_latency: main-memory latency charged when ``next_level``
                is ``None`` and the access misses.
            seed: RNG seed for the ``random`` replacement policy.
        """
        self.params = params
        self.next_level = next_level
        self.miss_latency = miss_latency
        # Only the random policy draws from the RNG; the others skip
        # building (and snapshotting) its 2.5 KB state.
        self._rng = random.Random(seed) if params.policy == "random" else None
        self._line_shift = params.line_size.bit_length() - 1
        self._set_mask = params.n_sets - 1
        self._assoc = params.assoc
        n_lines = params.n_sets * params.assoc
        self._tags: List[int] = [-1] * n_lines
        self._valid: List[bool] = [False] * n_lines
        self._dirty: List[bool] = [False] * n_lines
        # Per-set replacement order: way indices, index 0 = next victim.
        self._order: List[Tuple[int, ...]] = (
            [tuple(range(params.assoc))] * params.n_sets
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetches = 0

    # ------------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access the byte address; returns total latency in cycles."""
        params = self.params
        block = addr >> self._line_shift
        set_index = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        base = set_index * self._assoc
        tags = self._tags
        valid = self._valid

        for way in range(self._assoc):
            slot = base + way
            if valid[slot] and tags[slot] == tag:
                self.hits += 1
                if is_write:
                    self._dirty[slot] = True
                if params.policy == "lru":
                    self._promote(set_index, way)
                return params.hit_latency

        # Miss: fetch from the next level, then fill.
        self.misses += 1
        if self.next_level is not None:
            fill_latency = self.next_level.access(addr, is_write=False)
        else:
            fill_latency = self.miss_latency

        victim_way = self._pick_victim(set_index)
        slot = base + victim_way
        if valid[slot]:
            self.evictions += 1
            if self._dirty[slot]:
                self.writebacks += 1
                # Lazy write-back: counted, not charged (SimpleScalar default).
        tags[slot] = tag
        valid[slot] = True
        self._dirty[slot] = is_write
        if params.policy in ("lru", "fifo"):
            self._promote(set_index, victim_way)
        if params.prefetch_next_line:
            self._prefetch(addr + params.line_size)
        return params.hit_latency + fill_latency

    def _prefetch(self, addr: int) -> None:
        """Fill a line without demand-access accounting or latency."""
        if self.probe(addr):
            return
        self.prefetches += 1
        if self.next_level is not None:
            self.next_level.access(addr, is_write=False)
        block = addr >> self._line_shift
        set_index = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        victim_way = self._pick_victim(set_index)
        slot = set_index * self._assoc + victim_way
        if self._valid[slot]:
            self.evictions += 1
            if self._dirty[slot]:
                self.writebacks += 1
        self._tags[slot] = tag
        self._valid[slot] = True
        self._dirty[slot] = False
        if self.params.policy in ("lru", "fifo"):
            self._promote(set_index, victim_way)

    def _promote(self, set_index: int, way: int) -> None:
        """Move ``way`` to the most-recent end of its set's order."""
        order = self._order[set_index]
        if order[-1] != way:
            cut = order.index(way)
            self._order[set_index] = order[:cut] + order[cut + 1:] + (way,)

    def probe(self, addr: int) -> bool:
        """True if the address currently hits, without changing state."""
        block = addr >> self._line_shift
        set_index = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        base = set_index * self._assoc
        return any(
            self._valid[base + way] and self._tags[base + way] == tag
            for way in range(self._assoc)
        )

    def _pick_victim(self, set_index: int) -> int:
        if self.params.policy == "random":
            base = set_index * self._assoc
            for way in range(self._assoc):
                if not self._valid[base + way]:
                    return way
            return self._rng.randrange(self.params.assoc)
        return self._order[set_index][0]

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def stat_dict(self) -> Dict[str, float]:
        """Statistics snapshot for reporting."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "prefetches": self.prefetches,
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
        self.prefetches = 0

    def clone_state(self, next_level: Optional["Cache"] = None) -> "Cache":
        """An independent copy of tag state, replacement order and stats.

        Much cheaper than ``copy.deepcopy`` (no memo walk over ~10k
        line objects) — this is what makes the sampled-simulation
        engine's per-interval warm-state snapshots affordable.  The
        caller supplies the already-cloned ``next_level`` so a cloned
        hierarchy keeps its internal wiring.
        """
        clone = Cache.__new__(Cache)
        clone.params = self.params
        clone.next_level = next_level
        clone.miss_latency = self.miss_latency
        clone._rng = None
        if self._rng is not None:
            clone._rng = random.Random()
            clone._rng.setstate(self._rng.getstate())
        clone._line_shift = self._line_shift
        clone._set_mask = self._set_mask
        clone._assoc = self._assoc
        clone._tags = list(self._tags)
        clone._valid = list(self._valid)
        clone._dirty = list(self._dirty)
        clone._order = list(self._order)
        clone.hits = self.hits
        clone.misses = self.misses
        clone.evictions = self.evictions
        clone.writebacks = self.writebacks
        clone.prefetches = self.prefetches
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.params
        return f"<Cache {p.name}: {p.size}B {p.assoc}-way {p.line_size}B lines>"
