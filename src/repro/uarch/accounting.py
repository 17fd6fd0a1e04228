"""Top-down cycle accounting: charge every issue slot to one cause.

The paper attributes REESE's 11-16 % slowdown to R-stream contention
for issue slots and functional units (§6, Fig. 2-5) but never shows
the ledger.  This module is that ledger: with profiling enabled the
pipeline charges **every issue slot of every cycle** to exactly one
cause, and every cycle to "active" or one stall reason, via a priority
cascade evaluated at end of cycle.  Summed over a run the two accounts
obey hard identities —

* slot account:  ``sum(slots.values()) == issue_width * cycles``
* cycle account: ``sum(cycles.values()) == cycles``

— which the property suite pins (no slot uncharged, none charged
twice), so an attribution report can never silently drop cycles.

Cause taxonomy (slot account)
-----------------------------

===================== =============================================
``issued_p``          slot did useful work: correct-path P issue
``issued_wp``         slot issued a wrong-path instruction
``issued_r``          slot issued R-stream work (REESE re-execution
                      or dispatch-dup shadow copy)
``recovery``          compare-mismatch flush this cycle, or refill
                      shadow of one (until P work issues again)
``fu_busy_r``         slot idle because a functional unit was busy
                      and the R stream was involved — R work blocked,
                      or P work blocked by an R-held unit
``fu_busy_p``         slot idle because P work was blocked by a
                      P-held functional unit
``rqueue_backpressure`` R-stream Queue full: completed P work cannot
                      leave the RUU, stalling the window
``ruu_full``          dispatch blocked on RUU capacity
``lsq_full``          dispatch blocked on LSQ capacity
``operands_not_ready`` window holds unissued correct-path work whose
                      operands (or older store addresses) are pending
``ifq_empty_mispredict`` frontend refilling after a mispredict, or
                      window holds only wrong-path work
``fetch_starved``     frontend cannot supply work (I-cache miss
                      stall, or fetch/dispatch latency bubble)
``r_drain``           trace exhausted; only the R-stream Queue still
                      holds work (REESE end-of-run drain)
``idle``              nothing to do (trace exhausted, machine empty)
===================== =============================================

The cascade charges unused slots in the order listed: recovery first,
then FU conflicts (R before P — when both streams are blocked the
machine would not even have the conflict without REESE, so the tie
goes to the R stream), then backpressure/capacity causes oldest-first
(a full R-queue clogs the RUU which clogs dispatch, so the queue is
blamed before the structures behind it), then dataflow, then frontend
causes.  One cause per slot, no remainder.

R-attributable causes — ``issued_r``, ``recovery``, ``fu_busy_r``,
``rqueue_backpressure``, ``r_drain`` — are the paper's "contention"
buckets; :func:`attribution_delta` computes their share of a
REESE-minus-baseline slot delta.

Detection-latency telemetry
---------------------------

Two histograms (cycle-lag -> count), populated only under REESE:

* ``detect_latency`` — R-queue insertion to R-execution completion:
  the paper's §2 detection window (an environmental event shorter
  than this lag is always caught).
* ``rqueue_residency`` — R-queue insertion to final commit: how long
  an instruction's architectural effect is held back by verification.

Sampled-mode aggregation: every measurement interval produces its own
account (reset with the other Stats at ``measure_from``), and
:func:`merge_accounting` sums them — the identities survive summation
because each interval satisfies them individually.

Everything here is plain integers and dicts: JSON-serialisable, so
accounts ride the on-disk result cache inside ``Stats.accounting``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Schema tag stored in every account dict (bump on layout change).
ACCOUNTING_SCHEMA_VERSION = 1

#: Slot-account causes, cascade priority order (issued slots first).
SLOT_CAUSES = (
    "issued_p",
    "issued_wp",
    "issued_r",
    "recovery",
    "fu_busy_r",
    "fu_busy_p",
    "rqueue_backpressure",
    "ruu_full",
    "lsq_full",
    "operands_not_ready",
    "ifq_empty_mispredict",
    "fetch_starved",
    "r_drain",
    "idle",
)

#: Cycle-account causes ("active" plus the stall reasons).
CYCLE_CAUSES = ("active",) + SLOT_CAUSES[3:]

#: Causes the paper attributes to the R stream (§6): slots doing R
#: work, slots lost to R-induced FU conflicts, R-queue backpressure,
#: compare/flush recovery and the end-of-run queue drain.
R_CAUSES = frozenset(
    ("issued_r", "recovery", "fu_busy_r", "rqueue_backpressure", "r_drain")
)


class CycleAccountant:
    """Per-cycle slot/cycle attribution state for one pipeline.

    A pipeline probe (docs/INTERNALS.md §8): :meth:`notify` turns the
    pipeline's stage events into the ``cyc_*`` transients of the
    current cycle, :meth:`on_cycle` settles the cascade at end of cycle
    and resets them, and :meth:`finalize` stores the account in
    ``Stats.accounting``.
    """

    __slots__ = (
        "width",
        "_pipe",
        "slots",
        "cycles",
        "cycles_total",
        "detect_latency",
        "rqueue_residency",
        "_refill",
        "_last_committed",
        # Per-cycle transients, reset by on_cycle().
        "cyc_issued_p",
        "cyc_issued_wp",
        "cyc_issued_r",
        "cyc_fu_block_p",
        "cyc_fu_block_r",
        "cyc_dispatch_block",
        "cyc_rqueue_block",
        "cyc_flush",
    )

    def __init__(self) -> None:
        self.width = 0
        self._pipe = None
        self.slots: Dict[str, int] = {cause: 0 for cause in SLOT_CAUSES}
        self.cycles: Dict[str, int] = {cause: 0 for cause in CYCLE_CAUSES}
        self.cycles_total = 0
        self.detect_latency: Dict[int, int] = {}
        self.rqueue_residency: Dict[int, int] = {}
        self._refill: Optional[str] = None
        self._last_committed = 0
        self.cyc_issued_p = 0
        self.cyc_issued_wp = 0
        self.cyc_issued_r = 0
        self.cyc_fu_block_p = 0
        self.cyc_fu_block_r = 0
        self.cyc_dispatch_block: Optional[str] = None
        self.cyc_rqueue_block = False
        self.cyc_flush = False

    def bind(self, pipe) -> None:
        """Attach to a pipeline (records the issue width)."""
        self._pipe = pipe
        self.width = pipe.config.issue_width

    def finalize(self, stats) -> None:
        stats.accounting = self.state_dict()

    def reset(self) -> None:
        """Zero the account (the ``measure_from`` window open)."""
        self.slots = {cause: 0 for cause in SLOT_CAUSES}
        self.cycles = {cause: 0 for cause in CYCLE_CAUSES}
        self.cycles_total = 0
        self.detect_latency = {}
        self.rqueue_residency = {}
        self._last_committed = 0
        # Sticky refill state survives: a flush straddling the window
        # boundary still shadows the first measured cycles.

    # -- event notes from the pipeline ---------------------------------

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        """Record the attribution facts a pipeline event carries."""
        if event == "issue":
            if entry.wrong_path:
                self.cyc_issued_wp += 1
            elif entry.is_shadow:
                self.cyc_issued_r += 1  # dispatch-dup redundant copy
            else:
                self.cyc_issued_p += 1
        elif event == "r_issue":
            self.cyc_issued_r += 1
        elif event == "fu_block":
            # Every unit of a class was busy.  Blocked R work (a queue
            # entry, or a dispatch-dup copy) and P work blocked by an
            # R-held unit are both R contention.
            if (
                entry is None
                or entry.is_shadow
                or self._pipe.fupool.blame(info["fu"], cycle) == "R"
            ):
                self.cyc_fu_block_r += 1
            else:
                self.cyc_fu_block_p += 1
        elif event == "r_complete":
            self.record_detect(cycle - info["rentry"].inserted_cycle)
        elif event == "commit":
            rentry = info.get("rentry")
            if rentry is not None:
                self.record_residency(cycle - rentry.inserted_cycle)
        elif event == "dispatch_block":
            self.cyc_dispatch_block = info["structure"]
        elif event == "rqueue_full":
            self.cyc_rqueue_block = True
        elif event == "recover":
            self.note_flush()
        elif event == "mispredict":
            self.note_mispredict()

    def note_flush(self) -> None:
        """Compare-mismatch recovery flush this cycle."""
        self.cyc_flush = True
        self._refill = "recovery"

    def note_mispredict(self) -> None:
        """Mispredict recovery: fetch redirected to the correct path."""
        if self._refill != "recovery":
            self._refill = "mispredict"

    def record_detect(self, lag: int) -> None:
        """R-queue insertion -> R-completion lag (detection latency)."""
        hist = self.detect_latency
        hist[lag] = hist.get(lag, 0) + 1

    def record_residency(self, lag: int) -> None:
        """R-queue insertion -> final-commit lag (queue residency)."""
        hist = self.rqueue_residency
        hist[lag] = hist.get(lag, 0) + 1

    # -- end-of-cycle settlement ----------------------------------------

    def on_cycle(self, pipe) -> None:
        """Charge this cycle's slots and cycle cause; reset transients."""
        slots = self.slots
        issued_p = self.cyc_issued_p
        issued_wp = self.cyc_issued_wp
        issued_r = self.cyc_issued_r
        slots["issued_p"] += issued_p
        slots["issued_wp"] += issued_wp
        slots["issued_r"] += issued_r
        unused = self.width - issued_p - issued_wp - issued_r
        first_cause: Optional[str] = None

        if unused > 0:
            if self.cyc_flush or self._refill == "recovery":
                slots["recovery"] += unused
                first_cause = "recovery"
            else:
                remaining = unused
                blocked_r = min(remaining, self.cyc_fu_block_r)
                if blocked_r:
                    slots["fu_busy_r"] += blocked_r
                    remaining -= blocked_r
                    first_cause = "fu_busy_r"
                blocked_p = min(remaining, self.cyc_fu_block_p)
                if blocked_p:
                    slots["fu_busy_p"] += blocked_p
                    remaining -= blocked_p
                    if first_cause is None:
                        first_cause = "fu_busy_p"
                if remaining:
                    cause = self._residual_cause(pipe)
                    slots[cause] += remaining
                    if first_cause is None:
                        first_cause = cause

        committed_delta = pipe.stats.committed - self._last_committed
        self._last_committed = pipe.stats.committed
        if issued_p or issued_wp or issued_r or committed_delta:
            self.cycles["active"] += 1
        else:
            self.cycles[first_cause or "idle"] += 1
        self.cycles_total += 1

        if self.cyc_issued_p:
            # Correct-path work issued again: the refill shadow ends.
            self._refill = None
        self.cyc_issued_p = 0
        self.cyc_issued_wp = 0
        self.cyc_issued_r = 0
        self.cyc_fu_block_p = 0
        self.cyc_fu_block_r = 0
        self.cyc_dispatch_block = None
        self.cyc_rqueue_block = False
        self.cyc_flush = False

    def _residual_cause(self, pipe) -> str:
        """The single cause charged for leftover (non-FU-blocked) slots."""
        if self.cyc_rqueue_block:
            return "rqueue_backpressure"
        if self.cyc_dispatch_block == "ruu":
            return "ruu_full"
        if self.cyc_dispatch_block == "lsq":
            return "lsq_full"
        has_unready_wp = False
        for entry in pipe.ruu:
            if not entry.issued and not entry.squashed:
                if entry.wrong_path:
                    has_unready_wp = True
                else:
                    return "operands_not_ready"
        if has_unready_wp or self._refill == "mispredict" or pipe.wp_active:
            return "ifq_empty_mispredict"
        if pipe.fetch_blocked_until > pipe.cycle or pipe.ifq:
            # I-miss stall, or fetched work still in flight to dispatch.
            return "fetch_starved"
        if pipe.fetch_cursor < len(pipe.trace):
            return "fetch_starved"
        if pipe.rqueue is not None and len(pipe.rqueue):
            return "r_drain"
        return "idle"

    # -- export ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-shaped account for ``Stats.accounting``."""
        return {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "width": self.width,
            "cycles_total": self.cycles_total,
            "slots_total": self.width * self.cycles_total,
            "slots": {
                cause: count for cause, count in self.slots.items() if count
            },
            "cycles": {
                cause: count for cause, count in self.cycles.items() if count
            },
            "detect_latency": {
                str(lag): count
                for lag, count in sorted(self.detect_latency.items())
            },
            "rqueue_residency": {
                str(lag): count
                for lag, count in sorted(self.rqueue_residency.items())
            },
        }


# ----------------------------------------------------------------------
# account arithmetic (pure functions over state_dict() payloads)
# ----------------------------------------------------------------------


def merge_accounting(
    into: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge two account dicts (the sampled-interval aggregation path).

    Mirrors the tolerance rules of the other ``Stats`` registry merges:
    either side may be empty or written by an older schema; missing
    pieces merge as zero.
    """
    if not other:
        return into
    if not into:
        return _copy_account(other)
    into["schema"] = max(into.get("schema", 0), other.get("schema", 0))
    into["width"] = max(into.get("width", 0), other.get("width", 0))
    into["cycles_total"] = (
        into.get("cycles_total", 0) + other.get("cycles_total", 0)
    )
    into["slots_total"] = (
        into.get("slots_total", 0) + other.get("slots_total", 0)
    )
    for field in ("slots", "cycles", "detect_latency", "rqueue_residency"):
        merged = into.setdefault(field, {})
        for key, count in other.get(field, {}).items():
            merged[key] = merged.get(key, 0) + count
    return into


def _copy_account(account: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in account.items():
        out[key] = dict(value) if isinstance(value, dict) else value
    return out


def accounting_identity_errors(account: Dict[str, Any]) -> List[str]:
    """Violations of the completeness identities (empty list == OK)."""
    if not account:
        return ["empty accounting payload"]
    errors: List[str] = []
    slots_total = account.get("slots_total", 0)
    slots_sum = sum(account.get("slots", {}).values())
    if slots_sum != slots_total:
        errors.append(
            f"slot account: charged {slots_sum} != {slots_total} "
            f"(width x cycles)"
        )
    cycles_total = account.get("cycles_total", 0)
    cycles_sum = sum(account.get("cycles", {}).values())
    if cycles_sum != cycles_total:
        errors.append(
            f"cycle account: charged {cycles_sum} != {cycles_total} cycles"
        )
    return errors


def r_share_of_delta(
    baseline: Dict[str, Any], reese: Dict[str, Any]
) -> Tuple[int, int]:
    """(R-attributable slot delta, total positive slot delta).

    The acceptance metric for the paper's contention story: of the
    extra slot charges REESE accrues over the baseline (including the
    extra cycles' worth of slots), how many land in R causes?  Only
    positive per-cause deltas count toward the numerator and the
    denominator — slots REESE *recovered* elsewhere (e.g. fewer
    idle slots) do not cancel slots it lost to contention.
    """
    base_slots = baseline.get("slots", {})
    reese_slots = reese.get("slots", {})
    r_delta = 0
    total_delta = 0
    for cause in SLOT_CAUSES:
        if cause == "issued_p":
            # Useful work is the same program on both sides; its slot
            # count is not a cost.
            continue
        delta = reese_slots.get(cause, 0) - base_slots.get(cause, 0)
        if delta > 0:
            total_delta += delta
            if cause in R_CAUSES:
                r_delta += delta
    return r_delta, total_delta


# ----------------------------------------------------------------------
# histogram summaries (detection-latency telemetry)
# ----------------------------------------------------------------------


def hist_count(hist: Dict[Any, int]) -> int:
    """Total observation count of a lag histogram."""
    return sum(hist.values())


def hist_mean(hist: Dict[Any, int]) -> float:
    """Mean lag of a ``{lag: count}`` histogram (0.0 when empty)."""
    total = 0
    weight = 0
    for lag, count in hist.items():
        total += int(lag) * count
        weight += count
    return total / weight if weight else 0.0


def hist_percentile(hist: Dict[Any, int], q: float) -> int:
    """The smallest lag at or below which ``q`` of observations fall.

    Nearest-rank percentile over integer lags; 0 for an empty
    histogram.  ``q`` is a fraction (0.5 for p50, 0.99 for p99).
    """
    weight = sum(hist.values())
    if not weight:
        return 0
    rank = max(1, int(-(-weight * q // 1)))  # ceil without floats drift
    seen = 0
    for lag in sorted(hist, key=int):
        seen += hist[lag]
        if seen >= rank:
            return int(lag)
    return int(max((int(lag) for lag in hist), default=0))


def hist_max(hist: Dict[Any, int]) -> int:
    """Largest observed lag (0 when empty)."""
    return max((int(lag) for lag in hist), default=0)


def latency_summary(account: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """mean/p50/p99/max for both latency histograms of an account."""
    out: Dict[str, Dict[str, float]] = {}
    for field in ("detect_latency", "rqueue_residency"):
        hist = account.get(field, {}) if account else {}
        out[field] = {
            "count": hist_count(hist),
            "mean": hist_mean(hist),
            "p50": hist_percentile(hist, 0.50),
            "p99": hist_percentile(hist, 0.99),
            "max": hist_max(hist),
        }
    return out
