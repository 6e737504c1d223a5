"""Additional hierarchy coverage: deeper shapes and failure corners."""

import numpy as np
import pytest

from repro.core.hierarchy import RackAggregatorProgram
from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction
from repro.net.fabric import FabricConfig, FabricJob
from repro.net.loss import ScriptedLoss

K = 4


def tree(racks, per_rack, pool_size):
    """The SS6 two-layer tree: ``racks`` leaves under one spine (the root)."""
    return FabricJob(
        FabricConfig(num_leaves=racks, num_spines=1, workers_per_leaf=per_rack,
                     pool_size=pool_size)
    )


def pkt(wid, idx=0, ver=0, off=0, value=1):
    return SwitchMLPacket(
        wid=wid, ver=ver, idx=idx, off=off, num_elements=K,
        vector=np.full(K, value, dtype=np.int64),
    )


class TestRackProgramPhases:
    def test_slot_cycles_through_phases(self):
        """AGG -> FORWARDED -> DONE -> (reuse on alternate version)."""
        prog = RackAggregatorProgram(0, num_children=2, pool_size=1,
                                     elements_per_packet=K)
        # phase 0 on ver 0
        prog.handle_child(pkt(0, ver=0, value=1))
        up = prog.handle_child(pkt(1, ver=0, value=2))
        assert up.action is SwitchAction.MULTICAST
        result = SwitchMLPacket(wid=0, ver=0, idx=0, off=0, num_elements=K,
                                vector=np.full(K, 3, dtype=np.int64),
                                from_switch=True)
        down = prog.handle_result(result)
        assert down.action is SwitchAction.MULTICAST
        # phase 1 on ver 1 reuses the slot
        prog.handle_child(pkt(0, ver=1, off=K, value=10))
        up2 = prog.handle_child(pkt(1, ver=1, off=K, value=20))
        assert up2.action is SwitchAction.MULTICAST
        assert list(up2.packet.vector) == [30] * K

    def test_phase_reuse_overwrites_old_partial(self):
        prog = RackAggregatorProgram(0, 2, 1, K)
        prog.handle_child(pkt(0, ver=0, value=100))
        prog.handle_child(pkt(1, ver=0, value=100))
        prog.handle_result(
            SwitchMLPacket(wid=0, ver=0, idx=0, off=0, num_elements=K,
                           vector=np.full(K, 200, dtype=np.int64),
                           from_switch=True)
        )
        prog.handle_child(pkt(0, ver=1, off=K, value=1))
        prog.handle_child(pkt(1, ver=1, off=K, value=2))
        prog.handle_result(
            SwitchMLPacket(wid=0, ver=1, idx=0, off=K, num_elements=K,
                           vector=np.full(K, 3, dtype=np.int64),
                           from_switch=True)
        )
        # back to ver 0: the new phase must not see 100s or 200s
        prog.handle_child(pkt(0, ver=0, off=2 * K, value=7))
        up = prog.handle_child(pkt(1, ver=0, off=2 * K, value=8))
        assert list(up.packet.vector) == [15] * K


class TestDeepAndWideTrees:
    @pytest.mark.parametrize("racks,per_rack", [(2, 8), (4, 2), (4, 4)])
    def test_various_tree_shapes_exact(self, racks, per_rack):
        job = tree(racks, per_rack, pool_size=8)
        n = racks * per_rack
        rng = np.random.default_rng(n)
        tensors = [rng.integers(-200, 200, 32 * 8 * 3).astype(np.int64)
                   for _ in range(n)]
        out = job.all_reduce(tensors)
        assert out.completed

    def test_single_worker_racks(self):
        """Degenerate racks of one worker each: the tree is a star of
        relays; aggregation happens only at the root."""
        job = tree(3, 1, pool_size=4)
        tensors = [np.full(32 * 4 * 2, w + 1, dtype=np.int64) for w in range(3)]
        out = job.all_reduce(tensors)
        assert out.completed
        assert np.all(out.results[0] == 6)


class TestScriptedLoss:
    """Scripted drops on one named link of a 2x2 tree (leaves ``leaf0``,
    ``leaf1`` under ``spine0``; workers ``w0``..``w3``).  Each case checks
    that the named link lost exactly the scripted frames and that the
    recovery path for that link fired."""

    def _run(self, link_name, drop_positions):
        job = tree(2, 2, pool_size=4)
        (link,) = [l for l in job.fabric.all_links() if l.name == link_name]
        link.loss = ScriptedLoss(drop_positions)
        tensors = [np.full(32 * 4 * 3, w + 1, dtype=np.int64) for w in range(4)]
        out = job.all_reduce(tensors)
        assert out.completed
        assert link.stats.frames_lost == len(drop_positions)
        return job, out

    def test_clean_tree_needs_no_recovery(self):
        job = tree(2, 2, pool_size=4)
        out = job.all_reduce([np.ones(32 * 4 * 3, dtype=np.int64)] * 4)
        assert out.completed
        assert out.retransmissions == 0
        for prog in job.leaf_programs:
            assert prog.unicast_replies == 0
            assert prog.partial_retransmits == 0

    @pytest.mark.parametrize("link_name,gwid", [
        pytest.param("w0->leaf0", 0, id="w0->leaf0"),
        pytest.param("w3->leaf1", 3, id="w3->leaf1"),
    ])
    def test_worker_uplink_losses_recovered(self, link_name, gwid):
        """A lost update is resent by its worker's timeout."""
        job, out = self._run(link_name, {0, 2})
        assert out.worker_stats[gwid].retransmissions >= 2

    @pytest.mark.parametrize("link_name,leaf", [
        pytest.param("leaf0->w0", 0, id="leaf0->w0"),
        pytest.param("leaf1->w3", 1, id="leaf1->w3"),
    ])
    def test_worker_downlink_losses_recovered(self, link_name, leaf):
        """A lost result is served again from the leaf's DONE slot."""
        job, out = self._run(link_name, {0, 2})
        assert job.leaf_programs[leaf].unicast_replies >= 2

    @pytest.mark.parametrize("link_name,leaf", [
        pytest.param("leaf0->spine0", 0, id="leaf0->spine0"),
        pytest.param("spine0->leaf0", 0, id="spine0->leaf0"),
        pytest.param("leaf1->spine0", 1, id="leaf1->spine0"),
        pytest.param("spine0->leaf1", 1, id="spine0->leaf1"),
    ])
    def test_spine_link_losses_recovered(self, link_name, leaf):
        """Drops on leaf<->spine trunks exercise the partial-re-forward
        path of SS6."""
        job, out = self._run(link_name, {0, 1})
        assert job.leaf_programs[leaf].partial_retransmits >= 1
