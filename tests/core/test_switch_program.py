"""Unit tests for the switch programs: Algorithm 1 and Algorithm 3.

These drive the state machines message by message, covering the loss
scenarios of SS3.5: upward loss, downward loss, duplicates, and the
shadow-copy retransmission path.
"""

import numpy as np
import pytest

from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import (
    LosslessSwitchMLProgram,
    SwitchAction,
    SwitchMLProgram,
)
from repro.obs import Observability

K = 4


def pkt(wid, idx, ver=0, off=0, values=None):
    if values is None:
        values = [wid + 1] * K
    return SwitchMLPacket(
        wid=wid, ver=ver, idx=idx, off=off, num_elements=K,
        vector=np.asarray(values, dtype=np.int64),
    )


class TestAlgorithm1:
    def test_aggregates_and_multicasts_on_last_worker(self):
        prog = LosslessSwitchMLProgram(3, pool_size=2, elements_per_packet=K)
        assert prog.handle(pkt(0, 0)).action is SwitchAction.DROP
        assert prog.handle(pkt(1, 0)).action is SwitchAction.DROP
        final = prog.handle(pkt(2, 0))
        assert final.action is SwitchAction.MULTICAST
        assert list(final.packet.vector) == [1 + 2 + 3] * K

    def test_slot_released_after_multicast(self):
        prog = LosslessSwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0))
        prog.handle(pkt(1, 0))
        # reuse the slot: values must start fresh
        prog.handle(pkt(0, 0, values=[10] * K))
        final = prog.handle(pkt(1, 0, values=[20] * K))
        assert list(final.packet.vector) == [30] * K

    def test_slots_are_independent(self):
        prog = LosslessSwitchMLProgram(2, pool_size=4, elements_per_packet=K)
        prog.handle(pkt(0, 0, values=[1] * K))
        prog.handle(pkt(0, 3, values=[100] * K))
        out0 = prog.handle(pkt(1, 0, values=[2] * K))
        out3 = prog.handle(pkt(1, 3, values=[200] * K))
        assert list(out0.packet.vector) == [3] * K
        assert list(out3.packet.vector) == [300] * K

    def test_result_packet_carries_offset(self):
        prog = LosslessSwitchMLProgram(1, pool_size=1, elements_per_packet=K)
        out = prog.handle(pkt(0, 0, off=128))
        assert out.action is SwitchAction.MULTICAST
        assert out.packet.off == 128
        assert out.packet.from_switch

    def test_duplicate_corrupts_aggregate(self):
        """The documented failure mode that motivates Algorithm 3: a
        retransmitted packet is double-counted AND completes the slot
        early, producing a wrong multicast."""
        prog = LosslessSwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, values=[5] * K))
        out = prog.handle(pkt(0, 0, values=[5] * K))  # naive retransmission
        # the duplicate is counted as the second worker: early, wrong result
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [10] * K  # not the true 12

    def test_out_of_range_slot_rejected(self):
        prog = LosslessSwitchMLProgram(2, pool_size=2, elements_per_packet=K)
        with pytest.raises(ValueError):
            prog.handle(pkt(0, 5))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LosslessSwitchMLProgram(0, 1, K)
        with pytest.raises(ValueError):
            LosslessSwitchMLProgram(1, 0, K)


class TestAlgorithm3Basics:
    def test_normal_aggregation_round(self):
        prog = SwitchMLProgram(3, pool_size=2, elements_per_packet=K)
        assert prog.handle(pkt(0, 1)).action is SwitchAction.DROP
        assert prog.handle(pkt(1, 1)).action is SwitchAction.DROP
        out = prog.handle(pkt(2, 1))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [6] * K
        assert prog.multicasts == 1

    def test_single_worker_degenerates_to_echo(self):
        prog = SwitchMLProgram(1, pool_size=1, elements_per_packet=K)
        out = prog.handle(pkt(0, 0, values=[9] * K))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [9] * K

    def test_first_contribution_overwrites_stale_slot(self):
        """Slot recycling is implicit: the first packet of a new phase
        overwrites whatever the shadow copy held."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        # phase A on ver 0
        prog.handle(pkt(0, 0, ver=0, off=0))
        prog.handle(pkt(1, 0, ver=0, off=0))
        # phase B on ver 1
        prog.handle(pkt(0, 0, ver=1, off=8))
        prog.handle(pkt(1, 0, ver=1, off=8))
        # phase C back on ver 0 must not see phase A's values
        prog.handle(pkt(0, 0, ver=0, off=16, values=[100] * K))
        out = prog.handle(pkt(1, 0, ver=0, off=16, values=[200] * K))
        assert list(out.packet.vector) == [300] * K

    def test_wid_validation(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        with pytest.raises(ValueError):
            prog.handle(pkt(7, 0))

    def test_slot_state_inspection(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0))
        state = prog.slot_state(0, 0)
        assert state["count"] == 1
        assert state["seen"] == [1, 0]
        assert list(state["values"]) == [1] * K

    def test_sram_accounting_matches_formula(self):
        prog = SwitchMLProgram(8, pool_size=128, elements_per_packet=32)
        # values: 2 * 128 * 32 * 4 = 32 KB; plus bitmap and counters
        assert prog.sram_bytes >= 32 * 1024
        assert prog.sram_bytes < 34 * 1024


class TestAlgorithm3LossRecovery:
    def test_duplicate_update_is_ignored(self):
        """Upward loss recovery, false alarm: the original arrived, the
        retransmission must not double-count (SS3.5 challenge 1)."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, values=[5] * K))
        dup = prog.handle(pkt(0, 0, values=[5] * K))
        assert dup.action is SwitchAction.DROP
        assert prog.ignored_duplicates == 1
        out = prog.handle(pkt(1, 0, values=[7] * K))
        assert list(out.packet.vector) == [12] * K

    def test_retransmission_after_completion_gets_unicast_result(self):
        """Downward loss recovery: a worker that missed the multicast
        retransmits and receives the result unicast (SS3.5 challenge 2)."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0))
        prog.handle(pkt(1, 0))  # completes; multicast (lost for worker 0, say)
        reply = prog.handle(pkt(0, 0))
        assert reply.action is SwitchAction.UNICAST
        assert reply.unicast_wid == 0
        assert list(reply.packet.vector) == [3] * K
        assert prog.unicast_retransmits == 1

    def test_shadow_copy_survives_next_phase_start(self):
        """The heart of Algorithm 3: after the slot is reused on the
        other pool version, the completed result is still retrievable."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, ver=0, values=[1] * K))
        prog.handle(pkt(1, 0, ver=0, values=[2] * K))  # ver-0 result = 3
        # worker 1 moves to the next phase on ver 1 (worker 0 lags)
        prog.handle(pkt(1, 0, ver=1, off=8, values=[50] * K))
        # worker 0 never got the ver-0 result; it retransmits ver 0
        reply = prog.handle(pkt(0, 0, ver=0, values=[1] * K))
        assert reply.action is SwitchAction.UNICAST
        assert list(reply.packet.vector) == [3] * K

    def test_upward_loss_pure_retransmission(self):
        """Upward loss, real: the original never arrived, so the
        retransmission must aggregate normally."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, values=[5] * K))
        # worker 1's first packet was lost; its retransmission arrives
        out = prog.handle(pkt(1, 0, values=[7] * K))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [12] * K

    def test_seen_bitmap_cleared_for_alternate_pool(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, ver=0))
        prog.handle(pkt(1, 0, ver=0))
        prog.handle(pkt(0, 0, ver=1, off=8))
        # contributing to ver 1 cleared worker 0's ver-0 seen bit? No --
        # it cleared the *other* pool's bit for the NEXT reuse.  The
        # ver-0 bit stays set until worker 0 contributes to ver 0 again.
        state0 = prog.slot_state(0, 0)
        state1 = prog.slot_state(1, 0)
        assert state1["seen"] == [1, 0]
        assert state0["seen"] == [0, 1]  # w0's ver-0 bit cleared on ver-1 write

    def test_duplicate_while_other_worker_progresses(self):
        """A full interleaving: duplicates and phase progress mixed."""
        prog = SwitchMLProgram(2, pool_size=2, elements_per_packet=K)
        prog.handle(pkt(0, 0, ver=0, values=[1] * K))
        prog.handle(pkt(0, 0, ver=0, values=[1] * K))  # dup: drop
        prog.handle(pkt(0, 1, ver=0, values=[10] * K))
        out = prog.handle(pkt(1, 0, ver=0, values=[2] * K))
        assert list(out.packet.vector) == [3] * K
        out = prog.handle(pkt(1, 1, ver=0, values=[20] * K))
        assert list(out.packet.vector) == [30] * K


class TestPhaseLagInvariant:
    def test_clean_run_passes_invariant_checks(self):
        prog = SwitchMLProgram(2, 1, K, check_invariants=True)
        for off, ver in ((0, 0), (8, 1), (16, 0)):
            prog.handle(pkt(0, 0, ver=ver, off=off))
            prog.handle(pkt(1, 0, ver=ver, off=off))

    def test_protocol_violation_detected(self):
        """A worker two phases ahead (impossible under Algorithm 4's
        self-clocking) trips the assertion."""
        prog = SwitchMLProgram(2, 1, K, check_invariants=True)
        prog.handle(pkt(0, 0, ver=0, off=0))
        # worker 0 illegally opens ver 1 while ver 0 is still aggregating
        with pytest.raises(AssertionError):
            prog.handle(pkt(0, 0, ver=1, off=8))


class TestPhaseOffsetDiscipline:
    """The per-(version, slot) phase-offset discipline.

    Found by the fault fuzzer (see
    tests/integration/test_fuzz_regressions.py): under jitter a late
    retransmission of a *completed* phase can arrive after its sender's
    next-version absorb cleared the sender's seen bit, making the frame
    indistinguishable from a new phase's opening packet by seen/count
    alone.  The program records the offset of the last phase opened per
    (version, slot) and uses it as the tiebreaker.
    """

    def test_stale_retx_after_bit_recycle_gets_shadow_not_reopen(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        prog.handle(pkt(0, 0, ver=0, off=0, values=[1] * K))
        prog.handle(pkt(1, 0, ver=0, off=0, values=[2] * K))  # result 3
        # worker 1 advances; its ver-0 seen bit is cleared by the absorb
        prog.handle(pkt(1, 0, ver=1, off=8, values=[50] * K))
        # jitter-delayed stale retransmission of the completed phase:
        # seen == 0 AND count == 0, exactly a new phase's signature --
        # but the offset matches the stored phase, so the switch serves
        # the shadow copy instead of poisoning the slot
        reply = prog.handle(pkt(1, 0, ver=0, off=0, values=[2] * K))
        assert reply.action is SwitchAction.UNICAST
        assert reply.unicast_wid == 1
        assert list(reply.packet.vector) == [3] * K
        # the laggard's own retransmission still works too
        reply0 = prog.handle(pkt(0, 0, ver=0, off=0, values=[1] * K))
        assert list(reply0.packet.vector) == [3] * K

    def test_stale_lower_offset_retx_dropped_mid_phase(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        for off, ver in ((0, 0), (8, 1)):
            prog.handle(pkt(0, 0, ver=ver, off=off))
            prog.handle(pkt(1, 0, ver=ver, off=off))
        # ver 0 reopens at off=16; worker 0 contributes
        prog.handle(pkt(0, 0, ver=0, off=16, values=[9] * K))
        # an ancient retransmission of the off=0 phase arrives mid-phase
        stale = prog.handle(pkt(1, 0, ver=0, off=0))
        assert stale.action is SwitchAction.DROP
        assert prog.stale_phase_drops == 1
        # the live phase is untouched
        out = prog.handle(pkt(1, 0, ver=0, off=16, values=[4] * K))
        assert list(out.packet.vector) == [13] * K

    def test_greater_offset_resets_poisoned_phase(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        for off, ver in ((0, 0), (8, 1), (16, 0)):
            prog.handle(pkt(0, 0, ver=ver, off=off))
            prog.handle(pkt(1, 0, ver=ver, off=off))
        # every worker advanced past the ver-1 off=8 phase (pop == 0),
        # so a very stale retransmission of it re-opens the slot ...
        ghost = prog.handle(pkt(0, 0, ver=1, off=8, values=[7] * K))
        assert ghost.action is SwitchAction.DROP
        # ... harmlessly: the genuine next phase claims the slot with a
        # greater offset, which wipes the phantom before aggregating
        prog.handle(pkt(1, 0, ver=1, off=24, values=[100] * K))
        assert prog.phase_resets == 1
        out = prog.handle(pkt(0, 0, ver=1, off=24, values=[200] * K))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [300] * K

    def test_program_reuse_restarts_offsets(self):
        """A finished program accepts a fresh reduction whose offsets
        restart at zero -- the exact (version, slot, offset) triples of
        the previous reduction included."""
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        for off, ver in ((0, 0), (8, 1)):
            prog.handle(pkt(0, 0, ver=ver, off=off))
            prog.handle(pkt(1, 0, ver=ver, off=off))
        # next reduction: version continues (Appendix B), offset restarts
        prog.handle(pkt(0, 0, ver=0, off=0, values=[10] * K))
        out = prog.handle(pkt(1, 0, ver=0, off=0, values=[20] * K))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [30] * K

    def test_begin_reduction_reanchors_explicitly(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        for off, ver in ((0, 0), (8, 1)):
            prog.handle(pkt(0, 0, ver=ver, off=off))
            prog.handle(pkt(1, 0, ver=ver, off=off))
        prog.begin_reduction()
        prog.handle(pkt(0, 0, ver=0, off=0, values=[5] * K))
        out = prog.handle(pkt(1, 0, ver=0, off=0, values=[6] * K))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [11] * K


class TestPhantomMode:
    def test_phantom_packets_aggregate_nothing_but_count(self):
        prog = SwitchMLProgram(2, pool_size=1, elements_per_packet=K)
        p0 = SwitchMLPacket(wid=0, ver=0, idx=0, off=0, num_elements=K)
        p1 = SwitchMLPacket(wid=1, ver=0, idx=0, off=0, num_elements=K)
        assert prog.handle(p0).action is SwitchAction.DROP
        out = prog.handle(p1)
        assert out.action is SwitchAction.MULTICAST
        assert out.packet.vector is None


class TestHandleBatch:
    """``handle_batch`` -- the window path's switch step -- runs
    :meth:`SwitchMLProgram.handle` per packet in arrival order.  Driven
    in lockstep against a second program fed packet by packet, over a
    protocol-plausible but adversarial mix: interleaved first
    contributions, retransmitted duplicates (in flight and
    post-completion shadow reads), same-slot version overlap, and
    multi-batch slot reuse."""

    N, S = 4, 8

    def _packet(self, wid, ver, idx, chunk, retx=False):
        off = chunk * K
        vec = (np.arange(K, dtype=np.int64) + off * 131 + wid * 7 + ver) % 10_000
        return SwitchMLPacket(
            wid=wid, ver=ver, idx=idx, off=off, num_elements=K,
            vector=vec, is_retransmission=retx,
        )

    def _drive(self, rng, step, num_batches=60, max_batch=24):
        """Feed ``step(batch)`` batches from a miniature worker model.

        Each worker keeps one outstanding (ver, chunk) per slot; a batch
        is a random multiset of outstanding packets (duplicates model
        retransmissions -- including of chunks that completed in an
        earlier batch, which the switch must answer as shadow reads).
        ``step`` returns the switch's decisions; multicasts advance the
        model."""
        n, s = self.N, self.S
        ver = np.zeros((n, s), dtype=int)
        chunk = np.zeros((n, s), dtype=int)
        done: list[tuple[int, int]] = []  # (wid, idx) of completed chunks
        for _ in range(num_batches):
            batch = []
            for _ in range(rng.integers(2, max_batch + 1)):
                w, i = int(rng.integers(n)), int(rng.integers(s))
                if done and rng.random() < 0.15:
                    w, i = done[int(rng.integers(len(done)))]
                    batch.append(self._packet(
                        w, 1 - ver[w, i], i, max(0, chunk[w, i] - 1), retx=True
                    ))
                    continue
                batch.append(self._packet(
                    w, ver[w, i], i, chunk[w, i], retx=bool(rng.random() < 0.2)
                ))
            for d in step(batch):
                if d.action is SwitchAction.MULTICAST:
                    idx = d.packet.idx
                    for w in range(n):
                        done.append((w, idx))
                        ver[w, idx] = 1 - ver[w, idx]
                        chunk[w, idx] += 1

    def _run_lockstep(self, seed, **kwargs):
        prog = SwitchMLProgram(self.N, self.S, K, **kwargs)
        ref = SwitchMLProgram(self.N, self.S, K)

        def step(batch):
            got = prog.handle_batch(list(batch))
            want = [
                d for d in map(ref.handle, batch)
                if d.action is not SwitchAction.DROP
            ]
            assert [(d.action, d.unicast_wid) for d in got] == [
                (d.action, d.unicast_wid) for d in want
            ]
            fields = ("idx", "ver", "off", "wid", "from_switch")
            for g, w in zip(got, want):
                assert [getattr(g.packet, f) for f in fields] == [
                    getattr(w.packet, f) for f in fields
                ]
                np.testing.assert_array_equal(g.packet.vector, w.packet.vector)
            gs, ws = prog.state.snapshot(), ref.state.snapshot()
            for key in gs:
                np.testing.assert_array_equal(gs[key], ws[key], err_msg=key)
            for attr in ("multicasts", "unicast_retransmits",
                         "ignored_duplicates", "packets_processed"):
                assert getattr(prog, attr) == getattr(ref, attr), attr
            return want

        self._drive(np.random.default_rng(seed), step)
        return prog

    @pytest.mark.parametrize("seed", [1, 42, 1234])
    def test_lockstep(self, seed):
        prog = self._run_lockstep(seed)
        assert prog.multicasts and prog.unicast_retransmits

    def test_traced_lockstep(self):
        obs = Observability()
        prog = self._run_lockstep(42, obs=obs)
        drains = [dict(e.args) for e in obs.tracer.select(name="burst.switch")]
        assert len(drains) == 60  # one per batch `_drive` yields
        assert sum(d["packets"] for d in drains) == prog.packets_processed
        assert sum(d["emissions"] for d in drains) == (
            prog.multicasts + prog.unicast_retransmits
        )
        assert obs.tracer.count("slot.release") == prog.multicasts

    def test_check_invariants_lockstep(self):
        self._run_lockstep(42, check_invariants=True)
