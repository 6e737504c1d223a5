"""The rack-switch program of multi-rack aggregation (SS6 "Scaling
beyond a rack").

The paper sketches composing SwitchML switches into a tree: workers
attach to rack (layer-1) switches; each rack switch aggregates its ``d``
downstream ports and forwards *one* partial-aggregate packet upstream;
the root completes the aggregation and multicasts downward; rack
switches fan the result out to their workers.  The uplink bandwidth cost
is proportional to the number of upstream ports, not the worker count --
the bandwidth-optimality claim the hierarchy tests verify.

The tree is a one-spine Clos: :class:`repro.net.fabric.FabricJob` with
``num_spines=1`` runs this program on every leaf and plain Algorithm 3
(:class:`~repro.core.switch_program.SwitchMLProgram`) on the spine,
which is the tree's root.

Loss recovery composes exactly as SS6 argues: each layer keeps the
``seen`` bitmap and shadow copy of Algorithm 3, so a worker
retransmission is recognized as a retransmission at every switch that
already processed it, and "can trigger the retransmission of the updated
value toward the upper layer switch, so that the switch affected by the
loss is always reached".

Per-slot state machine at a rack switch (per pool version):

* ``AGGREGATING`` -- summing child contributions (Algorithm 3 logic);
* ``FORWARDED``   -- all children in; the partial went upstream.  A
  child retransmission here re-forwards the partial (upstream loss
  recovery); the root's ``seen`` bitmap absorbs duplicates.
* ``DONE``        -- the final result arrived from upstream and was
  multicast down; the slot now serves unicast replies to retransmitting
  children until the next phase overwrites it.
"""

from __future__ import annotations

from repro.core.packet import SwitchMLPacket
from repro.core.protocol import DROP_DECISION as _DROP
from repro.core.switch_program import SwitchAction, SwitchDecision
from repro.dataplane.registers import RegisterFile

__all__ = ["RackAggregatorProgram"]

_AGGREGATING, _FORWARDED, _DONE = 0, 1, 2


class RackAggregatorProgram:
    """The layer-1 (rack) switch program of the SS6 hierarchy.

    Child-facing behaviour is Algorithm 3; completion forwards a partial
    upstream (with ``wid`` rewritten to this switch's id) instead of
    multicasting.
    """

    def __init__(
        self,
        rack_id: int,
        num_children: int,
        pool_size: int,
        elements_per_packet: int,
        epoch: int = 0,
    ):
        if num_children < 1:
            raise ValueError("a rack needs at least one child")
        if epoch < 0:
            raise ValueError("pool epoch must be non-negative")
        self.rack_id = rack_id
        self.n = num_children
        self.s = pool_size
        self.k = elements_per_packet
        self.epoch = epoch
        self.registers = RegisterFile()
        self._pool = self.registers.allocate("pool", 2 * pool_size * self.k, 32)
        self._count = self.registers.allocate("count", 2 * pool_size, 8)
        self._seen = self.registers.allocate("seen", 2 * pool_size * num_children, 1)
        self._state = self.registers.allocate("state", 2 * pool_size, 8)
        # The narrow arrays' list storage, indexed directly on the
        # per-packet paths below (RegisterArray.reset() clears in place,
        # so the aliases stay attached); their `accesses` counters are
        # bumped in bulk, as SwitchMLProgram.handle does.  Layout: flat
        # (version, slot) index ``vs = ver * s + idx`` for count/state,
        # ``vs * n + wid`` for seen, ``[vs * k, vs * k + k)`` for pool.
        self._seen_cells: list[int] = self._seen.cells
        self._count_cells: list[int] = self._count.cells
        self._state_cells: list[int] = self._state.cells
        self.partials_forwarded = 0
        self.partial_retransmits = 0
        self.results_multicast = 0
        self.unicast_replies = 0
        self.stale_epoch_drops = 0

    # -- upward path -------------------------------------------------------
    def handle_child(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process a packet from a downstream worker (or child switch).

        Returns MULTICAST to mean "forward the partial upstream" (one
        copy; the adapter maps it to the uplink port) and UNICAST to
        mean "reply to child ``unicast_wid``".

        Packets from a different pool epoch are fenced -- dropped before
        any register access and counted -- exactly like the flat
        :class:`~repro.core.switch_program.SwitchMLProgram` fence, so the
        fabric controller can re-home a rack's aggregation without
        in-flight pre-failure traffic touching the new registers.
        """
        if p.epoch != self.epoch:
            self.stale_epoch_drops += 1
            return _DROP
        idx, wid, ver = p.idx, p.wid, p.ver
        s, n, k = self.s, self.n, self.k
        if not 0 <= idx < s:
            raise ValueError(f"pool index {idx} out of range")
        if not 0 <= wid < n:
            raise ValueError(f"child id {wid} out of range")
        vs = ver * s + idx
        sb = vs * n + wid
        seen = self._seen_cells
        states = self._state_cells
        lo = vs * k

        if seen[sb] == 0:
            seen[sb] = 1
            seen[((1 - ver) * s + idx) * n + wid] = 0
            self._seen.accesses += 3
            counts = self._count_cells
            count_before = counts[vs]
            count = (count_before + 1) % n
            counts[vs] = count & 255  # the count cells are 8-bit registers
            self._count.accesses += 2
            if count_before == 0:
                states[vs] = _AGGREGATING
                self._state.accesses += 1
                if p.vector is not None:
                    self._pool.write_range(lo, lo + k, p.vector)
            elif p.vector is not None:
                self._pool.add_range(lo, lo + k, p.vector)
            if count == 0:
                # All children contributed: ship the partial upstream.
                states[vs] = _FORWARDED
                self._state.accesses += 1
                vector = None
                if p.vector is not None:
                    vector = self._pool.read_range(lo, lo + k)
                self.partials_forwarded += 1
                partial = SwitchMLPacket(
                    wid=self.rack_id, ver=ver, idx=idx, off=p.off,
                    num_elements=p.num_elements, vector=vector,
                    job_id=p.job_id, epoch=self.epoch,
                )
                return SwitchDecision(SwitchAction.MULTICAST, partial)
            return _DROP

        # Duplicate from an already-seen child.
        self._seen.accesses += 1
        self._state.accesses += 1
        state = states[vs]
        if state == _FORWARDED:
            # Our partial (or the result) may be lost above us: push the
            # partial up again; the parent's seen bitmap dedups.
            vector = None
            if p.vector is not None:
                vector = self._pool.read_range(lo, lo + k)
            self.partial_retransmits += 1
            partial = SwitchMLPacket(
                wid=self.rack_id, ver=ver, idx=idx, off=p.off,
                num_elements=p.num_elements, vector=vector,
                is_retransmission=True, job_id=p.job_id, epoch=self.epoch,
            )
            return SwitchDecision(SwitchAction.MULTICAST, partial)
        if state == _DONE:
            # The slot holds the final aggregate; serve it unicast.
            vector = None
            if p.vector is not None:
                vector = self._pool.read_range(lo, lo + k)
            self.unicast_replies += 1
            return SwitchDecision(
                SwitchAction.UNICAST, p.result_copy(vector), unicast_wid=wid
            )
        # Still aggregating: contribution already applied; drop.
        return _DROP

    # -- downward path -----------------------------------------------------
    def handle_result(self, p: SwitchMLPacket) -> SwitchDecision:
        """Process a completed aggregate arriving from upstream."""
        if p.epoch != self.epoch:
            self.stale_epoch_drops += 1
            return _DROP
        vs = p.ver * self.s + p.idx
        states = self._state_cells
        if states[vs] != _FORWARDED:
            # Duplicate result (a unicast race); children that still miss
            # it will retransmit and be served from the DONE slot.
            self._state.accesses += 1
            return _DROP
        if p.vector is not None:
            lo = vs * self.k
            self._pool.write_range(lo, lo + self.k, p.vector)
        states[vs] = _DONE
        self._state.accesses += 2
        self.results_multicast += 1
        return SwitchDecision(SwitchAction.MULTICAST, p.result_copy(p.vector))
