"""Tests for the SS6 multi-rack hierarchical composition: the rack
program, and the tree it forms as a one-spine fabric."""

import numpy as np
import pytest

from repro.core.hierarchy import RackAggregatorProgram
from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction
from repro.net.fabric import FabricConfig, FabricJob
from repro.net.loss import BernoulliLoss

K = 4


def pkt(wid, idx=0, ver=0, off=0, value=1):
    return SwitchMLPacket(
        wid=wid, ver=ver, idx=idx, off=off, num_elements=K,
        vector=np.full(K, value, dtype=np.int64),
    )


def tree(racks, per_rack, pool_size=32, **kwargs):
    """The SS6 two-layer tree: ``racks`` leaves under one spine (the root)."""
    return FabricJob(
        FabricConfig(num_leaves=racks, num_spines=1, workers_per_leaf=per_rack,
                     pool_size=pool_size, **kwargs)
    )


def result_pkt(idx=0, ver=0, off=0, value=10):
    return SwitchMLPacket(
        wid=0, ver=ver, idx=idx, off=off, num_elements=K,
        vector=np.full(K, value, dtype=np.int64), from_switch=True,
    )


class TestRackAggregatorProgram:
    def test_forwards_partial_when_children_complete(self):
        prog = RackAggregatorProgram(rack_id=3, num_children=2, pool_size=1,
                                     elements_per_packet=K)
        assert prog.handle_child(pkt(0, value=5)).action is SwitchAction.DROP
        out = prog.handle_child(pkt(1, value=7))
        assert out.action is SwitchAction.MULTICAST  # = forward upstream
        assert out.packet.wid == 3  # rewritten to the rack id
        assert list(out.packet.vector) == [12] * K
        assert prog.partials_forwarded == 1

    def test_result_from_upstream_multicasts_down(self):
        prog = RackAggregatorProgram(0, 2, 1, K)
        prog.handle_child(pkt(0))
        prog.handle_child(pkt(1))
        out = prog.handle_result(result_pkt(value=99))
        assert out.action is SwitchAction.MULTICAST
        assert list(out.packet.vector) == [99] * K
        assert prog.results_multicast == 1

    def test_child_retransmit_in_forwarded_state_reforwards_partial(self):
        """Upstream loss recovery: the partial is pushed up again."""
        prog = RackAggregatorProgram(1, 2, 1, K)
        prog.handle_child(pkt(0, value=5))
        prog.handle_child(pkt(1, value=7))
        again = prog.handle_child(pkt(0, value=5))
        assert again.action is SwitchAction.MULTICAST
        assert again.packet.is_retransmission
        assert list(again.packet.vector) == [12] * K
        assert prog.partial_retransmits == 1

    def test_child_retransmit_after_done_gets_unicast(self):
        prog = RackAggregatorProgram(0, 2, 1, K)
        prog.handle_child(pkt(0))
        prog.handle_child(pkt(1))
        prog.handle_result(result_pkt(value=42))
        reply = prog.handle_child(pkt(1))
        assert reply.action is SwitchAction.UNICAST
        assert reply.unicast_wid == 1
        assert list(reply.packet.vector) == [42] * K

    def test_duplicate_result_dropped(self):
        prog = RackAggregatorProgram(0, 2, 1, K)
        prog.handle_child(pkt(0))
        prog.handle_child(pkt(1))
        prog.handle_result(result_pkt())
        assert prog.handle_result(result_pkt()).action is SwitchAction.DROP

    def test_duplicate_while_aggregating_dropped(self):
        prog = RackAggregatorProgram(0, 3, 1, K)
        prog.handle_child(pkt(0, value=5))
        dup = prog.handle_child(pkt(0, value=5))
        assert dup.action is SwitchAction.DROP
        prog.handle_child(pkt(1, value=1))
        out = prog.handle_child(pkt(2, value=2))
        assert list(out.packet.vector) == [8] * K  # 5 counted once

    def test_validation(self):
        prog = RackAggregatorProgram(0, 2, 2, K)
        with pytest.raises(ValueError):
            prog.handle_child(pkt(0, idx=5))
        with pytest.raises(ValueError):
            prog.handle_child(pkt(9))
        with pytest.raises(ValueError):
            RackAggregatorProgram(0, 0, 1, K)


class TestOneSpineTree:
    def test_tree_aggregation_is_exact(self):
        job = tree(2, 3, pool_size=8)
        rng = np.random.default_rng(1)
        tensors = [rng.integers(-100, 100, 32 * 8 * 4).astype(np.int64)
                   for _ in range(6)]
        out = job.all_reduce(tensors)  # verify=True inside
        assert out.completed

    def test_uplink_carries_one_workers_worth(self):
        """SS6 bandwidth optimality: each rack uplink carries one
        aggregate stream, not one per worker."""
        job = tree(2, 4, pool_size=8)
        tensors = [np.ones(32 * 8 * 4, dtype=np.int64) for _ in range(8)]
        out = job.all_reduce(tensors)
        assert out.completed
        # the run ends before the first trunk beacon: every trunk frame
        # is aggregation traffic
        assert job.controller.probes_sent == 0
        per_worker = job.fabric.leaves[0].host_uplinks[0].stats.frames_sent
        for leaf in job.fabric.leaves:
            assert leaf.uplinks[0].stats.frames_sent == per_worker

    def test_three_racks(self):
        job = tree(3, 2, pool_size=4)
        tensors = [np.full(32 * 4 * 3, w, dtype=np.int64) for w in range(6)]
        out = job.all_reduce(tensors)
        assert out.completed
        assert np.array_equal(out.results[0], np.full(32 * 4 * 3, sum(range(6))))

    def test_loss_recovery_across_layers(self):
        job = tree(2, 3, pool_size=4,
                   loss_factory=lambda: BernoulliLoss(0.01), seed=3)
        rng = np.random.default_rng(2)
        tensors = [rng.integers(-50, 50, 32 * 4 * 6).astype(np.int64)
                   for _ in range(6)]
        out = job.all_reduce(tensors)
        assert out.completed

    def test_wrong_tensor_count_rejected(self):
        job = tree(2, 2)
        with pytest.raises(ValueError):
            job.all_reduce([np.ones(32)] * 3)

    def test_tat_positive(self):
        job = tree(2, 2, pool_size=4)
        out = job.all_reduce([np.ones(32 * 4, dtype=np.int64)] * 4)
        assert out.max_tat > 0

    @pytest.mark.parametrize(
        "racks,per_rack,pool_size,tat_s",
        [
            pytest.param(2, 3, 8, 8.299200000000005e-05, id="2x3"),
            pytest.param(3, 2, 4, 8.241600000000003e-05, id="3x2"),
            pytest.param(2, 8, 16, 8.414400000000008e-05, id="2x8"),
            pytest.param(3, 1, 4, 8.241600000000003e-05, id="3x1"),
        ],
    )
    def test_clean_tats_match_the_dedicated_tree(
        self, racks, per_rack, pool_size, tat_s
    ):
        """Clean-link per-worker TATs, bit for bit: the pinned values were
        recorded from the two-layer tree job this fabric replaced (same
        shapes, 1 ms timeout).  The runs end before the first beacon."""
        job = tree(racks, per_rack, pool_size=pool_size, timeout_s=1e-3)
        n = racks * per_rack
        tensors = [np.full(32 * pool_size * 6, w, dtype=np.int64)
                   for w in range(n)]
        out = job.all_reduce(tensors)
        assert out.completed
        assert job.controller.probes_sent == 0
        assert [s.tensor_aggregation_time for s in out.worker_stats] == [tat_s] * n
