"""Unit tests for the worker protocol (Algorithms 2 and 4), driven
against a scripted in-process "switch" rather than the full simulator."""

import numpy as np
import pytest

from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction, SwitchMLProgram
from repro.core.worker import SwitchMLWorker
from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.sim.engine import Simulator

K = 4


class LoopbackSwitch:
    """Terminates the worker's uplink at a switch program and feeds
    results straight back into the worker's host -- zero-delay loop,
    ideal for protocol-state assertions."""

    def __init__(self, sim, program, hosts):
        self.sim = sim
        self.program = program
        self.hosts = hosts
        self.drop_next_updates = 0
        self.drop_next_results = 0

    def deliver(self, frame):
        packet = frame.message
        if self.drop_next_updates > 0:
            self.drop_next_updates -= 1
            return
        decision = self.program.handle(packet)
        if decision.action is SwitchAction.DROP:
            return
        if self.drop_next_results > 0:
            self.drop_next_results -= 1
            return
        out = decision.packet
        if decision.action is SwitchAction.UNICAST:
            targets = [decision.unicast_wid]
        else:
            targets = list(range(len(self.hosts)))
        for wid in targets:
            self.hosts[wid].deliver(out.to_frame("sw", f"w{wid}"))


def build(sim, num_workers=2, pool_size=2, size=K * 2 * 3, timeout=1e-3):
    program = SwitchMLProgram(num_workers, pool_size, K)
    hosts, workers = [], []
    done = []
    spec = HostSpec(num_cores=1, per_frame_rx_s=0, per_frame_tx_s=0,
                    io_fixed_latency_s=0, io_batch_frames=0)
    switch = LoopbackSwitch(sim, program, hosts)
    for w in range(num_workers):
        host = Host(sim, f"w{w}", spec)
        host.uplink = Link(
            sim, LinkSpec(rate_gbps=10.0, propagation_s=0.0), f"up{w}",
            deliver=switch.deliver,
        )
        worker = SwitchMLWorker(
            sim, host, w, num_workers, pool_size, K, timeout_s=timeout,
            on_complete=lambda wid, t: done.append(wid),
        )
        host.attach_agent(worker)
        hosts.append(host)
        workers.append(worker)
    return program, switch, workers, done


class TestLosslessRuns:
    def test_aggregation_completes_and_matches_sum(self):
        sim = Simulator()
        _, _, workers, done = build(sim, num_workers=3, pool_size=2, size=K * 8)
        tensors = [np.arange(K * 8) * (w + 1) for w in range(3)]
        for w, t in zip(workers, tensors):
            w.start(t)
        sim.run()
        assert sorted(done) == [0, 1, 2]
        expected = np.sum(tensors, axis=0)
        for w in workers:
            assert np.array_equal(w.result, expected)
            assert w.done

    def test_initial_window_is_pool_size(self):
        sim = Simulator()
        _, _, workers, _ = build(sim, num_workers=1, pool_size=4)
        workers[0].start(np.zeros(K * 16, dtype=np.int64))
        # before any events run, exactly s sends were issued
        assert workers[0].stats.packets_sent == 4

    def test_small_tensor_uses_fewer_slots(self):
        sim = Simulator()
        _, _, workers, done = build(sim, num_workers=1, pool_size=8)
        workers[0].start(np.ones(K * 3, dtype=np.int64))
        assert workers[0].stats.packets_sent == 3
        sim.run()
        assert done == [0]

    def test_offsets_advance_by_k_times_s(self):
        sim = Simulator()
        program, _, workers, _ = build(sim, num_workers=1, pool_size=2)
        seen_offsets = []
        original = program.handle

        def spy(p):
            seen_offsets.append((p.idx, p.ver, p.off))
            return original(p)

        program.handle = spy
        workers[0].start(np.zeros(K * 6, dtype=np.int64))
        sim.run()
        assert (0, 0, 0) in seen_offsets
        assert (0, 1, K * 2) in seen_offsets
        assert (0, 0, K * 4) in seen_offsets
        assert (1, 0, K) in seen_offsets
        assert (1, 1, K * 3) in seen_offsets
        assert (1, 0, K * 5) in seen_offsets

    def test_version_bit_alternates(self):
        sim = Simulator()
        program, _, workers, _ = build(sim, num_workers=1, pool_size=1)
        versions = []
        original = program.handle

        def spy(p):
            versions.append(p.ver)
            return original(p)

        program.handle = spy
        workers[0].start(np.zeros(K * 4, dtype=np.int64))
        sim.run()
        assert versions == [0, 1, 0, 1]

    def test_non_multiple_of_k_rejected(self):
        sim = Simulator()
        _, _, workers, _ = build(sim)
        with pytest.raises(ValueError):
            workers[0].start(np.zeros(K + 1, dtype=np.int64))

    def test_empty_tensor_rejected(self):
        sim = Simulator()
        _, _, workers, _ = build(sim)
        with pytest.raises(ValueError):
            workers[0].start(np.zeros(0, dtype=np.int64))

    def test_double_start_rejected(self):
        sim = Simulator()
        _, _, workers, _ = build(sim)
        workers[0].start(np.zeros(K * 4, dtype=np.int64))
        with pytest.raises(RuntimeError):
            workers[0].start(np.zeros(K * 4, dtype=np.int64))

    def test_worker_reusable_after_completion(self):
        sim = Simulator()
        _, _, workers, done = build(sim, num_workers=1, pool_size=2)
        workers[0].start(np.ones(K * 4, dtype=np.int64))
        sim.run()
        workers[0].start(np.full(K * 4, 7, dtype=np.int64))
        sim.run()
        assert done == [0, 0]
        assert np.array_equal(workers[0].result, np.full(K * 4, 7))

    def test_rtt_statistics_collected(self):
        sim = Simulator()
        _, _, workers, _ = build(sim, num_workers=1, pool_size=1)
        workers[0].start(np.zeros(K * 2, dtype=np.int64))
        sim.run()
        assert workers[0].stats.rtt_count == 2
        assert workers[0].stats.mean_rtt >= 0.0


class TestTimeoutsAndRecovery:
    def test_lost_update_recovered_by_timeout(self):
        sim = Simulator()
        _, switch, workers, done = build(sim, num_workers=2, pool_size=1,
                                         timeout=1e-4)
        switch.drop_next_updates = 1  # worker 0's first packet vanishes
        tensors = [np.full(K * 2, 3, dtype=np.int64),
                   np.full(K * 2, 4, dtype=np.int64)]
        for w, t in zip(workers, tensors):
            w.start(t)
        sim.run()
        assert sorted(done) == [0, 1]
        assert np.array_equal(workers[0].result, np.full(K * 2, 7))
        assert workers[0].stats.retransmissions >= 1
        assert workers[0].stats.timeouts >= 1

    def test_lost_result_recovered_by_unicast(self):
        sim = Simulator()
        program, switch, workers, done = build(sim, num_workers=2, pool_size=1,
                                               timeout=1e-4)
        switch.drop_next_results = 1  # suppress the entire first multicast
        for w in workers:
            w.start(np.ones(K * 2, dtype=np.int64))
        sim.run()
        assert sorted(done) == [0, 1]
        for w in workers:
            assert np.array_equal(w.result, np.full(K * 2, 2))

    def test_timer_cancelled_on_result(self):
        sim = Simulator()
        _, _, workers, _ = build(sim, num_workers=1, pool_size=1, timeout=1e-3)
        workers[0].start(np.zeros(K, dtype=np.int64))
        sim.run()
        assert workers[0].stats.timeouts == 0
        assert workers[0].stats.retransmissions == 0

    def test_stale_duplicate_result_ignored(self):
        """A unicast reply racing with the multicast must not be consumed
        twice."""
        sim = Simulator()
        _, _, workers, _ = build(sim, num_workers=1, pool_size=1)
        worker = workers[0]
        worker.start(np.zeros(K * 2, dtype=np.int64))
        sim.run()
        stale = SwitchMLPacket(
            wid=0, ver=0, idx=0, off=0, num_elements=K,
            vector=np.zeros(K, dtype=np.int64), from_switch=True,
        )
        worker._on_result(stale)  # post-completion: silently ignored
        assert worker.stats.results_received == 2

    def test_phantom_mode_completes(self):
        sim = Simulator()
        _, _, workers, done = build(sim, num_workers=2, pool_size=2)
        for w in workers:
            w.start(None, num_elements=K * 6)
        sim.run()
        assert sorted(done) == [0, 1]
        assert workers[0].result is None

    def test_phantom_mode_requires_size(self):
        sim = Simulator()
        _, _, workers, _ = build(sim)
        with pytest.raises(ValueError):
            workers[0].start(None)


class RecordingHost:
    """A stand-in :class:`Host` that only records how frames leave."""

    name = "w0"

    def __init__(self):
        self.calls = []

    def send(self, frame):
        self.calls.append(("send", 1))

    def send_train(self, frames):
        self.calls.append(("send_train", len(frames)))


class TestWindowEgressRule:
    """On the window path the RX group decides only how the next chunks
    leave: ``_RX_BATCH_MIN`` or more results in fixed timeout mode send
    them as one train, anything else sends them one by one."""

    POOL = 8

    @pytest.mark.parametrize(
        "timeout_mode, results, phases, expected",
        [
            ("fixed", 8, 2, [("send_train", 8)]),
            ("fixed", 7, 2, [("send", 1)] * 7),
            ("adaptive", 8, 2, [("send", 1)] * 8),
            ("fixed", 8, 1, []),  # the group that completes the tensor
        ],
        ids=["fixed-8", "fixed-7", "adaptive-8", "completing"],
    )
    def test_egress(self, timeout_mode, results, phases, expected):
        assert SwitchMLWorker._RX_BATCH_MIN == self.POOL
        sim = Simulator()
        host = RecordingHost()
        at_complete = []
        worker = SwitchMLWorker(
            sim, host, 0, 1, self.POOL, K, timeout_mode=timeout_mode,
            burst_epsilon=2e-5,
            on_complete=lambda wid, t: at_complete.append(
                (worker._outbox, list(host.calls))
            ),
        )
        worker.start(np.ones(K * self.POOL * phases, dtype=np.int64))
        # the initial window leaves as one train
        assert host.calls == [("send_train", self.POOL)]
        host.calls.clear()
        frames = [
            SwitchMLPacket(
                wid=0, ver=0, idx=i, off=K * i, num_elements=K,
                vector=np.ones(K, dtype=np.int64), from_switch=True,
            ).to_frame("sw", "w0")
            for i in range(results)
        ]
        worker.on_frames(frames)
        assert host.calls == expected
        assert worker._outbox is None
        if phases == 1:
            # the outbox was flushed and closed before on_complete ran
            assert at_complete == [(None, [])]
            assert np.array_equal(worker.result, np.ones(K * self.POOL))
        else:
            assert at_complete == []
