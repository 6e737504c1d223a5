"""The protocol core: pool-wide per-slot state of both protocol ends.

The paper's dataplane keeps its state in fixed-size slot pools with
per-slot registers (``pool``, ``count``, the ``seen`` bitmap), and
Algorithms 2-4 touch one slot's cells per packet -- on the Tofino one
register access per stage.  This module holds that state on both ends,
one plain Python list per field, indexed by slot:

* :class:`WorkerSlotState` -- Algorithm 2/4's per-slot worker state:
  outstanding offset and pool version, send timestamps,
  retransmission-timer deadlines and retry/backoff bookkeeping.  The
  deadline list is what lets the window path replace ``s`` engine timer
  events with one: a slot with no outstanding timer holds ``+inf``, the
  earliest finite deadline is the single armed engine timer, and
  :meth:`~WorkerSlotState.due` yields the expired slots in exactly the
  order per-slot timers would have fired (deadline, then arming
  sequence -- the engine's ``(time, seq)`` FIFO rule).
* :class:`SwitchSlotState` -- Algorithm 1/3's register-file state
  (``pool`` / ``count`` / ``seen``) plus the maintained per-(version,
  slot) ``seen`` popcount and phase offsets.

The adapters (:mod:`repro.core.worker`,
:mod:`repro.core.switch_program`) alias these lists once and index them
per packet.  Every reset writes in place, so the aliases stay attached;
the values are builtin ``int`` / ``float`` / ``bool``, so no NumPy
scalar reaches a timer deadline and through it the simulated clock.
``snapshot()`` copies the state out for tests that diff it.

:class:`SwitchAction` / :class:`SwitchDecision` -- the switch program's
verdict vocabulary -- live here too (re-exported by
:mod:`repro.core.switch_program`) so the programs and the chassis can
share them without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

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
    """Worker-side per-slot protocol state, one list per field.

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

    Every reset assigns a slice, so aliases of these lists -- the
    worker's ``_slot_*`` attributes -- stay attached across
    :meth:`begin` and :meth:`clear_deadlines`.
    """

    def __init__(self, pool_size: int):
        if pool_size < 1:
            raise ValueError("pool size must be positive")
        s = int(pool_size)
        self.s = s
        self.off = [0] * s
        self.ver = [0] * s
        self.next_ver = [0] * s
        self.sent_at = [0.0] * s
        self.deadline = [_INF] * s
        self.arm_seq = [0] * s
        self.retransmitted = [False] * s
        self.retries = [0] * s
        self.backoff = [1.0] * s

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Reset the per-aggregation fields in place.

        ``next_ver`` and ``backoff`` survive (see the class docstring).
        """
        s = self.s
        self.off[:] = [0] * s
        self.ver[:] = [0] * s
        self.sent_at[:] = [0.0] * s
        self.deadline[:] = [_INF] * s
        self.arm_seq[:] = [0] * s
        self.retransmitted[:] = [False] * s
        self.retries[:] = [0] * s

    # ------------------------------------------------------------------
    # deadline timer support (the window path's singleton timer)
    # ------------------------------------------------------------------
    def min_deadline(self) -> float:
        """Earliest outstanding timer deadline (``inf`` when none)."""
        return min(self.deadline)

    def due(self, now: float) -> list[int]:
        """Indices of slots whose deadline has expired at ``now``,
        ordered by ``(deadline, arm_seq)`` -- the order the per-packet
        path's per-slot timer events would fire in."""
        deadline = self.deadline
        expired = [i for i, d in enumerate(deadline) if d <= now]
        if len(expired) > 1:
            arm_seq = self.arm_seq
            expired.sort(key=lambda i: (deadline[i], arm_seq[i]))
        return expired

    def clear_deadlines(self) -> None:
        self.deadline[:] = [_INF] * self.s

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, list]:
        """Copy of every field, keyed by field name."""
        return {
            name: list(value) for name, value in vars(self).items()
            if isinstance(value, list)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        armed = sum(d != _INF for d in self.deadline)
        return f"<WorkerSlotState s={self.s} armed_timers={armed}>"


class SwitchSlotState:
    """Switch-side register state for Algorithm 3 (and 1's subset).

    Owns the :class:`~repro.dataplane.registers.RegisterFile` holding

    * ``pool``  -- ``2 x s x k`` 32-bit value cells (an ndarray: the
      per-packet access is a ``k``-element vector add),
    * ``count`` -- ``2 x s`` 8-bit contribution counters,
    * ``seen``  -- ``2 x s x n`` one-bit contribution flags,

    plus two lists over the flat (version, slot) index: ``seen_pop``,
    the maintained popcount of each ``seen`` row (updated on every bit
    transition; O(1) inspection instead of an O(n) scan), and
    ``off_cells``, the tensor offset of the last phase opened there
    (``-1`` = none; switch metadata behind the phase-offset discipline of
    ``SwitchMLProgram.handle``, not one of the paper's registers).  The
    narrow registers' cells are lists too (``count.cells`` /
    ``seen.cells``); :meth:`reset` clears everything in place, so aliases
    of any of them stay attached.
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
        self.count = self.registers.allocate("count", 2 * pool_size, width_bits=8)
        self.seen = self.registers.allocate(
            "seen", 2 * pool_size * num_workers, width_bits=1
        )
        self.seen_pop = [0] * (2 * pool_size)
        self.off_cells = [-1] * (2 * pool_size)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear every register, the popcount and the phase offsets in
        place (aliases stay attached)."""
        self.registers.reset()
        self.seen_pop[:] = [0] * len(self.seen_pop)
        self.off_cells[:] = [-1] * len(self.off_cells)

    def snapshot(self) -> dict:
        """Copy of the register contents, popcount and offsets."""
        return {
            "pool": self.pool.snapshot(),
            "count": self.count.snapshot(),
            "seen": self.seen.snapshot(),
            "seen_pop": list(self.seen_pop),
            "off": list(self.off_cells),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SwitchSlotState n={self.n} s={self.s} k={self.k}>"
