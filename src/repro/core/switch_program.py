"""Switch-side aggregation logic: Algorithms 1 and 3.

Both programs are pure state machines over the register file of
:mod:`repro.dataplane` -- no simulator dependency -- so they can be
unit-tested message by message (including the Appendix A trace) and then
mounted into a simulated chassis via :class:`SwitchMLDataplane`.

``LosslessSwitchMLProgram`` is the paper's Algorithm 1: a single pool of
``s`` slots with per-slot counters, correct only when no packet is ever
lost (the Infiniband/lossless-RoCE setting of SS3.2).

``SwitchMLProgram`` is Algorithm 3: two pool versions (active + shadow
copy) and a per-worker ``seen`` bitmap, which together make the protocol
robust to arbitrary loss, duplication, and reordering of in-window
packets.  The correctness argument (SS3.5) rests on the self-clocking
invariant that no worker ever lags more than one phase behind any other;
the program asserts that invariant on every slot reuse when
``check_invariants`` is set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.packet import SwitchMLPacket
from repro.core.protocol import (
    DROP_DECISION as _DROP,
    SwitchAction,
    SwitchDecision,
    SwitchSlotState,
)
from repro.dataplane.registers import RegisterFile
from repro.obs.base import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.base import Observability
    from repro.sim.trace import TraceRecorder

__all__ = [
    "LosslessSwitchMLProgram",
    "SwitchAction",
    "SwitchDecision",
    "SwitchMLProgram",
]


class LosslessSwitchMLProgram:
    """Algorithm 1: the core aggregation primitive, no loss tolerance.

    State: ``pool[s]`` (k integers per slot) and ``count[s]``.  A slot is
    reset and released the moment its aggregate is multicast.
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
        self._pool = self.registers.allocate("pool", pool_size * self.k, width_bits=32)
        self._count = self.registers.allocate("count", pool_size, width_bits=8)
        self.packets_processed = 0
        self.multicasts = 0

    def handle(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process one update packet (Algorithm 1 lines 4-12)."""
        if not 0 <= p.idx < self.s:
            raise ValueError(f"pool index {p.idx} out of range [0, {self.s})")
        self.packets_processed += 1
        lo, hi = p.idx * self.k, (p.idx + 1) * self.k
        if p.vector is not None:
            self._pool.add_range(lo, hi, p.vector)
        count = self._count.add(p.idx, 1)
        if count == self.n:
            vector = None
            if p.vector is not None:
                vector = self._pool.read_range(lo, hi)
            self._pool.fill_range(lo, hi, 0)
            self._count.write(p.idx, 0)
            self.multicasts += 1
            return SwitchDecision(SwitchAction.MULTICAST, p.result_copy(vector))
        return _DROP


class SwitchMLProgram:
    """Algorithm 3: loss-tolerant aggregation with shadow copies.

    State (register file):

    * ``pool``  -- ``2 x s x k`` 32-bit value cells (both pool versions;
      on the ASIC these are the packed halves of 64-bit registers);
    * ``count`` -- ``2 x s`` contribution counters, modulo ``n``;
    * ``seen``  -- ``2 x s x n`` one-bit flags recording which workers
      contributed to each (version, slot).

    Parameters
    ----------
    check_invariants:
        When True (tests), assert the <=1-phase-lag property: a slot's new
        phase may only begin once the alternate pool's copy of that slot
        has completed aggregation.
    epoch:
        Control-plane pool epoch this program instance serves.  The
        controller (:mod:`repro.controlplane`) bumps the epoch whenever it
        re-admits a job after a failure; any packet stamped with a
        different epoch is fenced -- dropped before *any* register access
        -- and counted in ``stale_epoch_drops``.  The fence is what makes
        reconfiguration safe: in-flight traffic from the pre-failure
        configuration (including a partitioned-but-alive "zombie" worker)
        can never reach the new configuration's slots, whose worker count
        and ``seen`` addressing may have changed.
    obs:
        Optional :class:`repro.obs.base.Observability` layer.  When
        enabled, the program emits ``slot.claim`` / ``slot.release`` /
        ``slot.contention`` / ``shadow.read`` / ``fence.drop`` events
        plus a ``slots_occupied`` counter track, and ticks the
        ``switch_*`` metrics.
    clock:
        Zero-argument callable returning the current simulated time;
        injected by the job/dataplane so the program stays free of a
        hard simulator dependency (events report t=0 without one).
    trace:
        Optional :class:`repro.sim.trace.TraceRecorder` -- the Figure 6
        bucketed-series mechanism.  The program ticks ``slot_contention``
        and ``shadow_read`` so loss timelines cover the switch end as
        well as the worker's ``sent`` / ``resent``.
    """

    def __init__(
        self,
        num_workers: int,
        pool_size: int,
        elements_per_packet: int,
        check_invariants: bool = False,
        epoch: int = 0,
        obs: "Observability | None" = None,
        clock: Callable[[], float] | None = None,
        trace: "TraceRecorder | None" = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if pool_size < 1:
            raise ValueError("pool size must be positive")
        if epoch < 0:
            raise ValueError("pool epoch must be non-negative")
        self.n = num_workers
        self.s = pool_size
        self.k = elements_per_packet
        self.check_invariants = check_invariants
        self.epoch = epoch
        #: the data-oriented core: all register/bitmap/popcount storage
        #: (this class is the per-packet adapter over it)
        self.state = SwitchSlotState(num_workers, pool_size, elements_per_packet)
        self.registers = self.state.registers
        self._pool = self.state.pool
        self._count = self.state.count
        self._seen = self.state.seen
        # Direct aliases of the state's lists, indexed by handle(); safe
        # because the state only ever writes in place.  The registers'
        # `accesses` counters are bumped once per packet by that
        # packet's access count.
        st = self.state
        self._seen_bits = st.seen.cells
        self._count_cells = st.count.cells
        # Per-(version, slot) tensor offset of the last phase opened
        # there.  Within one program's life a slot's phases carry
        # strictly increasing offsets (the worker round-robin strides
        # by 2*s*k elements per reuse), which makes the offset a phase
        # identity the discipline in handle() checks: a packet whose
        # offset predates the stored phase is a reordered late
        # retransmission and must never reopen the slot with stale
        # data.  Not access-counted (see SwitchSlotState).
        self._off_cells = st.off_cells
        self.packets_processed = 0
        self.multicasts = 0
        self.unicast_retransmits = 0
        self.ignored_duplicates = 0
        self.stale_epoch_drops = 0
        #: reordered retransmissions of an already-recycled phase,
        #: dropped (or answered from the shadow copy) by the offset
        #: discipline instead of poisoning the slot
        self.stale_phase_drops = 0
        #: poisoned (version, slot) states wiped when a newer phase
        #: arrived over residue a stale packet left behind
        self.phase_resets = 0
        #: (version, slot) pairs currently mid-aggregation (claimed, not
        #: yet released by a completing multicast)
        self.occupied_slots = 0
        #: maintained per-(version, slot) popcount of the ``seen`` bitmap,
        #: updated on every bit transition so inspection is O(1) instead
        #: of an O(n) scan over the bit cells
        self._seen_pop = st.seen_pop

        self.obs = obs if obs is not None else NULL_OBS
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.trace = trace
        self._tracer = self.obs.tracer
        # the switch_* instruments mirror the plain counts above and are
        # brought up to date by _flush_metrics when the registry is
        # read; handle() never touches them
        metrics = self.obs.metrics
        self._m_counters = tuple(
            metrics.counter(name, help)
            for name, help in (
                ("switch_contributions_total", "first-time slot contributions"),
                ("switch_multicasts_total", "completed aggregations multicast"),
                ("switch_shadow_reads_total",
                 "unicast results served from shadow copies"),
                ("switch_ignored_duplicates_total",
                 "duplicates during aggregation"),
                ("switch_stale_epoch_drops_total",
                 "packets dropped by the epoch fence"),
            )
        )
        self._m_flushed = (0, 0, 0, 0, 0)
        self._g_occupied = metrics.gauge(
            "switch_slots_occupied", "slots currently mid-aggregation"
        )
        metrics.on_collect(self._flush_metrics)

    @property
    def contributions(self) -> int:
        """First-time slot contributions absorbed.  Every packet past
        the epoch fence is exactly one of: a contribution, a shadow
        read, an ignored duplicate, or a stale-phase drop."""
        return (
            self.packets_processed - self.unicast_retransmits
            - self.ignored_duplicates - self.stale_phase_drops
        )

    def _flush_metrics(self) -> None:
        """Registry flusher: advance the ``switch_*_total`` counters by
        what the plain counts gained since the last flush."""
        totals = (
            self.contributions, self.multicasts, self.unicast_retransmits,
            self.ignored_duplicates, self.stale_epoch_drops,
        )
        for counter, total, seen in zip(self._m_counters, totals, self._m_flushed):
            counter.inc(total - seen)
        self._m_flushed = totals
        self._g_occupied.set(self.occupied_slots)

    # ------------------------------------------------------------------
    # register addressing
    # ------------------------------------------------------------------
    def _value_range(self, ver: int, idx: int) -> tuple[int, int]:
        base = (ver * self.s + idx) * self.k
        return base, base + self.k

    def _count_index(self, ver: int, idx: int) -> int:
        return ver * self.s + idx

    def _seen_index(self, ver: int, idx: int, wid: int) -> int:
        return (ver * self.s + idx) * self.n + wid

    def begin_reduction(self) -> None:
        """Re-anchor the phase-offset discipline at a reduction boundary.

        Worker tensor offsets restart at zero for every all-reduce while
        the register state (seen bits, counters, shadow copies)
        deliberately carries over; a job reusing this program must call
        this before the next reduction or its first phases would read as
        stale.  Register state is untouched -- a straggler's in-flight
        retransmission from the finished reduction still finds its
        shadow copy (see the pop != 0 rule in :meth:`handle`).
        """
        self._off_cells[:] = [-1] * len(self._off_cells)

    def _reset_phase(self, vs: int) -> None:
        """Wipe a poisoned (version, slot) before a newer phase opens.

        Only reachable when stale reordered traffic slipped past the
        offset discipline's ancestors (a slot opened with relic data):
        clear the seen bits, popcount, and counter so the genuine phase
        starts from a clean slate instead of inheriting the residue.
        """
        n = self.n
        base = vs * n
        self._seen_bits[base:base + n] = [0] * n
        self._seen_pop[vs] = 0
        if self._count_cells[vs] != 0:
            self._count_cells[vs] = 0
            self.occupied_slots -= 1
        self.phase_resets += 1

    # ------------------------------------------------------------------
    def handle(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process one update packet (Algorithm 3 lines 4-23).

        This runs once per update packet and is the switch half of the
        simulation's inner loop, so index arithmetic is inlined (the
        ``_*_index`` helpers spell out the layout) and observability
        calls sit behind the cached enabled flags.
        """
        if p.epoch != self.epoch:
            # Epoch fence: checked before the idx/wid range checks because
            # a stale packet's coordinates belong to the *previous*
            # configuration and may be out of range for this one.
            self.stale_epoch_drops += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "fence.drop", self._clock(), cat="fence", actor="switch",
                    wid=p.wid, packet_epoch=p.epoch, pool_epoch=self.epoch,
                )
            return _DROP
        idx, wid, ver = p.idx, p.wid, p.ver
        s, n = self.s, self.n
        if not 0 <= idx < s:
            raise ValueError(f"pool index {idx} out of range [0, {s})")
        if not 0 <= wid < n:
            raise ValueError(f"worker id {wid} out of range [0, {n})")
        self.packets_processed += 1
        vs = ver * s + idx  # flat (version, slot): count index, pop index
        ovs = (1 - ver) * s + idx  # the alternate pool's copy of the slot
        seen_bits = self._seen_bits
        counts = self._count_cells
        pop = self._seen_pop
        sb = vs * n + wid

        # ---- phase-offset discipline (reordering robustness) ---------
        # A jittered link can deliver a phase's retransmission after the
        # same worker's *next*-version contribution already cleared its
        # seen bit for this (version, slot).  Without an offset check
        # that packet reads as the first contribution of a new phase: it
        # overwrites the pool with stale data and the genuine next phase
        # is later dropped as a duplicate -- every worker then receives
        # an identical wrong sum.  The stored per-(version, slot) phase
        # offset disambiguates: equal offset is the stored phase itself,
        # a greater offset legitimately opens the next phase (offsets
        # stride by 2*s*k per slot reuse), and a smaller offset is a
        # relic of an already-recycled phase.
        off = p.off
        stored = self._off_cells[vs]
        if off != stored:
            if counts[vs] == 0 and pop[vs] == 0:
                # Fully recycled idle slot: any different offset opens a
                # new phase.  Deliberately no ordering test here --
                # worker offsets restart at zero when a finished program
                # is reused for another reduction, so a smaller offset
                # on an idle slot is a legitimate restart.  (A truly
                # stale frame would have to outlive two full phase
                # cycles of its slot to get here; if one ever does, the
                # phantom phase it opens is repaired by the genuine
                # opening's reset below.)
                self._off_cells[vs] = off
            elif off < stored:
                # Late retransmission of a phase the slot has recycled
                # past, caught mid-phase or mid-recycling.  The worker's
                # own later packets prove it saw that phase's result, so
                # the frame is pure noise -- drop it before any register
                # write.
                self.stale_phase_drops += 1
                if self._tracer.enabled:
                    self._tracer.emit(
                        "phase.stale", self._clock(), cat="slot",
                        actor="switch", slot=idx, ver=ver, wid=wid,
                        off=off, phase_off=stored,
                    )
                return _DROP
            elif counts[vs] == 0:
                # The slot is a completed shadow copy still
                # mid-recycling.  A genuine opening only ever finds
                # pop == 0 (the previous phase's bits are fully cleared
                # by the alternate version's absorbs before any worker
                # can advance this far), so this is a straggler's
                # retransmission racing a reduction boundary that reset
                # the offset anchor: serve the shadow copy it missed.
                self._seen.accesses += 1
                self._count.accesses += 1
                vector = None
                if p.vector is not None:
                    lo = vs * self.k
                    vector = self._pool.read_range(lo, lo + self.k)
                self.unicast_retransmits += 1
                if self.trace is not None:
                    self.trace.tick("shadow_read", self._clock())
                if self._tracer.enabled:
                    self._tracer.emit(
                        "shadow.read", self._clock(), cat="slot",
                        actor="switch", slot=idx, ver=ver, wid=wid,
                    )
                return SwitchDecision(
                    SwitchAction.UNICAST, p.result_copy(vector),
                    unicast_wid=wid,
                )
            if counts[vs] != 0:
                # A phase is mid-aggregation under a different offset:
                # stale reordered traffic poisoned the slot -- wipe it
                # so the genuine phase opens clean.
                self._reset_phase(vs)
            self._off_cells[vs] = off
        elif counts[vs] == 0 and pop[vs] != 0:
            # The stored phase itself, already complete with its shadow
            # copy still live: the sender missed the result (perhaps so
            # long ago that its own seen bit was recycled by the
            # alternate version's absorbs).  Serve the shadow copy;
            # never reopen a live shadow with a stale chunk.  When
            # pop == 0 instead, every worker has provably advanced past
            # the stored phase, so nobody can still need its copy and
            # the packet falls through to the opening absorb below --
            # that is how a reused program accepts a fresh reduction
            # whose first chunk reuses the exact (version, slot, offset)
            # triple of the previous one.
            self._seen.accesses += 1
            self._count.accesses += 1
            vector = None
            if p.vector is not None:
                lo = vs * self.k
                vector = self._pool.read_range(lo, lo + self.k)
            self.unicast_retransmits += 1
            if self.trace is not None:
                self.trace.tick("shadow_read", self._clock())
            if self._tracer.enabled:
                self._tracer.emit(
                    "shadow.read", self._clock(), cat="slot", actor="switch",
                    slot=idx, ver=ver, wid=wid,
                )
            return SwitchDecision(
                SwitchAction.UNICAST, p.result_copy(vector), unicast_wid=wid
            )

        if seen_bits[sb] == 0:
            # First time this worker's contribution reaches this
            # (version, slot): apply it.
            count_before = counts[vs]
            if self.check_invariants and count_before == 0:
                # This packet opens a new phase for the slot; legal only
                # if the shadow copy's aggregation completed (count == 0).
                other_count = counts[ovs]
                if other_count != 0:
                    raise AssertionError(
                        f"phase-lag invariant violated: slot {idx} ver {ver} "
                        f"reused while ver {1 - ver} still aggregating "
                        f"(count={other_count})"
                    )
            seen_bits[sb] = 1
            pop[vs] += 1
            ob = ovs * n + wid
            if seen_bits[ob]:
                # Clear the worker's bit in the alternate pool for the
                # next reuse (Algorithm 3 line 11); skip the write -- and
                # keep the popcount exact -- when it is already clear.
                seen_bits[ob] = 0
                pop[ovs] -= 1
                self._seen.accesses += 4
            else:
                self._seen.accesses += 3
            count = count_before + 1
            if count == n:
                count = 0
            counts[vs] = count & 255  # the count cells are 8-bit registers
            self._count.accesses += 2
            if count_before == 0:
                self.occupied_slots += 1
                if self._tracer.enabled:
                    now = self._clock()
                    self._tracer.emit(
                        "slot.claim", now, cat="slot", actor="switch",
                        slot=idx, ver=ver, wid=wid, off=p.off,
                    )
                    self._tracer.counter(
                        "slots_occupied", now, self.occupied_slots,
                        cat="slot", actor="switch",
                    )
            lo = vs * self.k
            hi = lo + self.k
            if p.vector is not None:
                if count_before == 0:
                    # First contribution of the phase overwrites the slot;
                    # this is what implicitly recycles the shadow copy.
                    self._pool.write_range(lo, hi, p.vector)
                else:
                    self._pool.add_range(lo, hi, p.vector)
            if count == 0:
                # All n workers contributed: emit the aggregate.  The slot
                # is NOT zeroed -- it becomes the shadow copy that serves
                # retransmitted results until the next phase overwrites it.
                if self.check_invariants and pop[vs] != n:
                    raise AssertionError(
                        f"seen popcount {pop[vs]} != {n} at completion of "
                        f"slot {idx} ver {ver}"
                    )
                vector = None
                if p.vector is not None:
                    vector = self._pool.read_range(lo, hi)
                self.multicasts += 1
                self.occupied_slots -= 1
                if self._tracer.enabled:
                    now = self._clock()
                    self._tracer.emit(
                        "slot.release", now, cat="slot", actor="switch",
                        slot=idx, ver=ver, off=p.off,
                    )
                    self._tracer.counter(
                        "slots_occupied", now, self.occupied_slots,
                        cat="slot", actor="switch",
                    )
                return SwitchDecision(SwitchAction.MULTICAST, p.result_copy(vector))
            return _DROP

        # Already seen with the phase still aggregating (a completed
        # phase's retransmissions were answered by the offset discipline
        # above): the worker's contribution is already in the slot;
        # ignore the duplicate.
        self._seen.accesses += 1
        self._count.accesses += 1
        self.ignored_duplicates += 1
        if self.trace is not None:
            self.trace.tick("slot_contention", self._clock())
        if self._tracer.enabled:
            self._tracer.emit(
                "slot.contention", self._clock(), cat="slot", actor="switch",
                slot=idx, ver=ver, wid=wid,
            )
        return _DROP

    # ------------------------------------------------------------------
    def handle_batch(self, packets: list[SwitchMLPacket]) -> list[SwitchDecision]:
        """Process one coalesced burst of update packets.

        Window-path entry point: the chassis hands over every update
        that crossed the ingress pipeline in the same drain window, in
        arrival order.  The switch itself is not batched -- as on the
        ASIC, Algorithm 3 runs one packet at a time: :meth:`handle` for
        every packet (it fences epochs and checks ranges itself), and
        the non-drop decisions come back in the order their triggering
        packets arrived, so every downstream link serializes and draws
        randomness in per-packet order.  With the event tracer on, one
        ``burst.switch`` aggregate record describes the drain.
        """
        out = []
        handle = self.handle
        for p in packets:
            d = handle(p)
            if d.action is not SwitchAction.DROP:
                out.append(d)
        if self._tracer.enabled:
            self._tracer.emit(
                "burst.switch", self._clock(), cat="burst", actor="switch",
                packets=len(packets),
                groups=len({(p.ver, p.idx) for p in packets}),
                emissions=len(out),
            )
        return out

    # ------------------------------------------------------------------
    @property
    def sram_bytes(self) -> int:
        """Total register SRAM this instance occupies."""
        return self.registers.total_sram_bytes

    def seen_popcount(self, ver: int, idx: int) -> int:
        """Number of set ``seen`` bits for ``(ver, idx)`` -- O(1) from the
        maintained counter, not an O(n) scan of the bit cells."""
        return self._seen_pop[ver * self.s + idx]

    def slot_state(self, ver: int, idx: int) -> dict:
        """Debug/test view of one (version, slot)."""
        return {
            "count": self._count.read(self._count_index(ver, idx)),
            "seen": [
                self._seen.read(self._seen_index(ver, idx, w)) for w in range(self.n)
            ],
            "seen_popcount": self.seen_popcount(ver, idx),
            "values": self._pool.read_range(*self._value_range(ver, idx)),
        }
