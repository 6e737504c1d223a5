"""Data-oriented protocol core: pool-wide structure-of-arrays state.

The paper's dataplane is already data-oriented -- Algorithms 1/3 operate
on fixed-size slot pools with per-slot registers (``pool``, ``count``,
the ``seen`` bitmap), not on per-packet objects.  This module mirrors
that layout on both protocol ends:

* :class:`WorkerSlotState` -- Algorithm 2/4's per-slot worker state as
  NumPy arrays over the slot index: outstanding offset and pool version,
  send timestamps, retransmission-timer deadlines, retry/backoff
  bookkeeping, and per-slot RTT accumulators.  The deadline array is
  what lets the window path replace ``s`` engine timer events with one:
  a slot with no outstanding timer holds ``+inf``, the earliest finite
  deadline is the single armed engine timer, and :meth:`due` yields the
  expired slots in exactly the order per-slot timers would have fired
  (deadline, then arming sequence -- the engine's ``(time, seq)`` FIFO
  rule).
* :class:`SwitchSlotState` -- Algorithm 1/3's register-file state
  (``pool`` / ``count`` / ``seen``) plus the maintained per-(version,
  slot) ``seen`` popcount as a NumPy array.

Both expose ``snapshot()`` / ``restore()`` round trips so state can be
checkpointed and diffed in tests.

:class:`SwitchAction` / :class:`SwitchDecision` -- the switch program's
verdict vocabulary -- live here too (re-exported by
:mod:`repro.core.switch_program` for compatibility) so batch handlers
and adapters can share them without import cycles.

The adapters (:mod:`repro.core.worker`,
:mod:`repro.core.switch_program`) alias these arrays directly on their
hot paths; everything here is storage and ordering policy, free of any
simulator dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.dataplane.registers import RegisterFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import SwitchMLPacket

__all__ = [
    "SwitchAction",
    "SwitchDecision",
    "SwitchSlotState",
    "WorkerSlotState",
]

_INF = float("inf")


class SwitchAction(Enum):
    """What the program does with an update packet."""

    DROP = "drop"
    MULTICAST = "multicast"
    UNICAST = "unicast"


@dataclass
class SwitchDecision:
    """Outcome of processing one update packet."""

    action: SwitchAction
    packet: "SwitchMLPacket | None" = None  # result packet for MULTICAST/UNICAST
    unicast_wid: int | None = None


#: Shared DROP decision.  Most packets in a healthy run end in a drop
#: (every non-completing contribution does), and callers only ever read
#: the decision, so one immutable instance serves them all.
DROP_DECISION = SwitchDecision(SwitchAction.DROP)


class WorkerSlotState:
    """Worker-side per-slot protocol state, one array per field.

    Fields over ``[0, pool_size)``:

    ``off`` / ``ver``
        The outstanding chunk's element offset and 1-bit pool version
        (Algorithm 4's per-slot send state).
    ``next_ver``
        The version the slot's *next* phase will use.  Persists across
        aggregations: consecutive tensors form "a single, continuous
        stream of data across iterations" (Appendix B), so versions keep
        alternating from one tensor to the next.
    ``sent_at``
        First-transmission timestamp of the outstanding chunk (the RTT
        sample base; Karn's rule invalidates it on retransmission).
    ``deadline`` / ``arm_seq``
        Retransmission-timer expiry (``+inf`` = no timer) and a
        monotonically increasing arming sequence number.  Together they
        define the firing order the window path replays: the per-packet
        path's per-slot timers fire in engine ``(time, seq)`` order, which for
        timers armed through :meth:`WorkerSlotState.due` is exactly
        ``(deadline, arm_seq)``.
    ``retransmitted`` / ``retries`` / ``backoff``
        Karn ambiguity flag, consecutive-timeout count, and the per-slot
        exponential backoff multiplier.  ``backoff`` persists across
        aggregations (like ``next_ver``); everything else is reset by
        :meth:`begin`.
    ``rtt_sum`` / ``rtt_count``
        Per-slot accumulators over unambiguous RTT samples -- the
        per-slot view of the worker's Jacobson estimator inputs.
    ``outstanding``
        Boolean "chunk in flight" flag per slot.  The per-packet path
        keeps the outstanding :class:`SwitchMLPacket` object per slot
        (identity carries off/ver); the vectorized batch path masks
        with this array instead of touching Python objects.
    ``tat_start`` / ``tat_finish``
        Scalar aggregation window (tensor aggregation time endpoints).

    Storage: one buffer per field, two handles on it.  ``st.<field>``
    is the ndarray -- what the window path's whole-batch bodies index
    and what :meth:`due` scans.  ``st.<field>_v`` is a ``memoryview``
    of that same array, built once beside it, for one-element reads and
    writes: it hands back builtin ``int`` / ``float`` / ``bool`` at
    about half an ndarray index's cost.  The per-packet path (the
    default, ``burst_epsilon=0``) touches state only through the views,
    so no NumPy scalar can reach a timer deadline and, through the
    first timer that fires, the simulated clock (``np.float64`` holds
    the same bits as ``float`` but adds and compares several times
    slower, and every value computed from one is one).  Everything
    resets in place, so both handles -- and hot-path aliases of either
    -- stay attached across :meth:`begin` and :meth:`restore`.
    """

    #: per-slot NumPy arrays captured by snapshot()/restore()
    ARRAY_FIELDS = (
        "off", "ver", "next_ver", "sent_at", "deadline", "arm_seq",
        "retransmitted", "retries", "backoff", "rtt_sum", "rtt_count",
        "outstanding",
    )
    #: scalar fields captured alongside them
    SCALAR_FIELDS = ("tat_start", "tat_finish")

    #: pool size above which :meth:`due` switches from a full
    #: ``nonzero`` + lexsort to ``argpartition`` (pull the expired
    #: prefix without ordering the rest of the pool)
    ARGPARTITION_THRESHOLD = 64

    def __init__(self, pool_size: int):
        if pool_size < 1:
            raise ValueError("pool size must be positive")
        s = int(pool_size)
        self.s = s
        self.off = np.zeros(s, dtype=np.int64)
        self.ver = np.zeros(s, dtype=np.int8)
        self.next_ver = np.zeros(s, dtype=np.int8)
        self.sent_at = np.zeros(s, dtype=np.float64)
        self.deadline = np.full(s, _INF, dtype=np.float64)
        self.arm_seq = np.zeros(s, dtype=np.int64)
        self.retransmitted = np.zeros(s, dtype=bool)
        self.retries = np.zeros(s, dtype=np.int64)
        self.backoff = np.ones(s, dtype=np.float64)
        self.rtt_sum = np.zeros(s, dtype=np.float64)
        self.rtt_count = np.zeros(s, dtype=np.int64)
        self.outstanding = np.zeros(s, dtype=bool)
        for name in self.ARRAY_FIELDS:
            setattr(self, name + "_v", memoryview(getattr(self, name)))
        self.tat_start = 0.0
        self.tat_finish = float("nan")

    # ------------------------------------------------------------------
    def begin(self, start_time: float = 0.0) -> None:
        """Reset the per-aggregation fields in place.

        ``next_ver`` and ``backoff`` survive (see the class docstring);
        resetting in place keeps any hot-path aliases of these arrays
        attached, the same discipline as ``RegisterArray.reset()``.
        """
        self.off[:] = 0
        self.ver[:] = 0
        self.sent_at[:] = 0.0
        self.deadline[:] = _INF
        self.arm_seq[:] = 0
        self.retransmitted[:] = False
        self.retries[:] = 0
        self.rtt_sum[:] = 0.0
        self.rtt_count[:] = 0
        self.outstanding[:] = False
        self.tat_start = float(start_time)
        self.tat_finish = float("nan")

    # ------------------------------------------------------------------
    # deadline timer support (the window path's singleton timer)
    # ------------------------------------------------------------------
    def min_deadline(self) -> float:
        """Earliest outstanding timer deadline (``inf`` when none)."""
        return float(self.deadline.min()) if self.s else _INF

    def due(self, now: float) -> np.ndarray:
        """Indices of slots whose deadline has expired at ``now``,
        ordered by ``(deadline, arm_seq)`` -- the order the per-packet
        path's per-slot timer events would fire in.

        For large pools the expired set is pulled to the front with
        ``argpartition`` (every expired deadline is ``<= now`` and every
        armed-but-unexpired one is ``> now``, so the ``m`` smallest
        deadlines *are* the expired set) and only that prefix is
        ordered; small pools keep the straightforward ``nonzero`` scan.
        """
        dl = self.deadline
        if self.s > self.ARGPARTITION_THRESHOLD:
            m = int(np.count_nonzero(dl <= now))
            if m == 0:
                return np.empty(0, dtype=np.intp)
            if m < self.s:
                idx = np.argpartition(dl, m - 1)[:m]
            else:
                idx = np.arange(self.s)
            if m > 1:
                idx = idx[np.lexsort((self.arm_seq[idx], dl[idx]))]
            return idx
        idx = np.nonzero(dl <= now)[0]
        if idx.size > 1:
            idx = idx[np.lexsort((self.arm_seq[idx], dl[idx]))]
        return idx

    def clear_deadlines(self) -> None:
        self.deadline[:] = _INF

    # ------------------------------------------------------------------
    def per_slot_mean_rtt(self) -> np.ndarray:
        """Mean unambiguous RTT per slot (NaN for slots with no sample)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.rtt_sum / self.rtt_count

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep copy of every field, suitable for :meth:`restore`."""
        snap: dict = {name: getattr(self, name).copy() for name in self.ARRAY_FIELDS}
        for name in self.SCALAR_FIELDS:
            snap[name] = getattr(self, name)
        return snap

    def restore(self, snap: dict) -> None:
        """Round-trip counterpart of :meth:`snapshot` (copies in place,
        preserving aliases)."""
        for name in self.ARRAY_FIELDS:
            getattr(self, name)[:] = snap[name]
        for name in self.SCALAR_FIELDS:
            setattr(self, name, snap[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        armed = int(np.count_nonzero(np.isfinite(self.deadline)))
        return f"<WorkerSlotState s={self.s} armed_timers={armed}>"


class SwitchSlotState:
    """Switch-side register state for Algorithm 3 (and 1's subset).

    Owns the :class:`~repro.dataplane.registers.RegisterFile` holding

    * ``pool``  -- ``2 x s x k`` 32-bit value cells,
    * ``count`` -- ``2 x s`` contribution counters,
    * ``seen``  -- ``2 x s x n`` one-bit contribution flags,

    plus ``seen_pop``, the maintained per-(version, slot) popcount of the
    ``seen`` bitmap as an int64 array (updated on every bit transition;
    O(1) inspection instead of an O(n) scan), and ``off_cells``, the
    tensor offset of the last phase opened in each (version, slot)
    (``-1`` = none; switch metadata behind the phase-offset discipline
    of ``SwitchMLProgram.handle``, not one of the paper's registers).

    The narrow arrays are NumPy-backed (``numpy_narrow=True``); their
    raw storage is exposed as ``seen_bits`` / ``count_cells`` (``uint8``
    arrays) for whole-range writes (a phase reset, :meth:`restore`).
    As in :class:`WorkerSlotState`, each scalar-addressed array has a
    ``memoryview`` twin on the same storage (``seen_v`` / ``count_v`` /
    ``pop_v`` / ``off_v``) for the per-packet path, which hands back
    builtin ``int``.  All stay valid across :meth:`reset` and
    :meth:`restore`, which write in place.
    """

    def __init__(self, num_workers: int, pool_size: int, elements_per_packet: int):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if pool_size < 1:
            raise ValueError("pool size must be positive")
        self.n = num_workers
        self.s = pool_size
        self.k = elements_per_packet
        self.registers = RegisterFile()
        self.pool = self.registers.allocate(
            "pool", 2 * pool_size * elements_per_packet, width_bits=32
        )
        self.count = self.registers.allocate(
            "count", 2 * pool_size, width_bits=8, numpy_narrow=True
        )
        self.seen = self.registers.allocate(
            "seen", 2 * pool_size * num_workers, width_bits=1, numpy_narrow=True
        )
        self.seen_bits: np.ndarray = self.seen._cells
        self.count_cells: np.ndarray = self.count._cells
        self.seen_pop = np.zeros(2 * pool_size, dtype=np.int64)
        self.off_cells = np.full(2 * pool_size, -1, dtype=np.int64)
        self.seen_v = memoryview(self.seen_bits)
        self.count_v = memoryview(self.count_cells)
        self.pop_v = memoryview(self.seen_pop)
        self.off_v = memoryview(self.off_cells)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear every register, the popcount and the phase offsets in
        place (aliases stay attached)."""
        self.registers.reset()
        self.seen_pop[:] = 0
        self.off_cells[:] = -1

    def snapshot(self) -> dict:
        """Deep copy of the register contents, popcount and offsets."""
        return {
            "pool": self.pool.snapshot(),
            "count": self.count.snapshot(),
            "seen": self.seen.snapshot(),
            "seen_pop": self.seen_pop.copy(),
            "off": self.off_cells.copy(),
        }

    def restore(self, snap: dict) -> None:
        """Round-trip counterpart of :meth:`snapshot`; writes through the
        existing storage so hot-path aliases stay live."""
        self.pool._cells[:] = snap["pool"]
        self.count_cells[:] = snap["count"]
        self.seen_bits[:] = snap["seen"]
        self.seen_pop[:] = snap["seen_pop"]
        self.off_cells[:] = snap["off"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SwitchSlotState n={self.n} s={self.s} k={self.k}>"
