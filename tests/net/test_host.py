"""Unit tests for hosts: core sharding, RX/TX costs, I/O latency."""

import pytest

from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.net.loss import BernoulliLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator


class Recorder:
    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def on_frame(self, frame):
        self.frames.append((self.sim.now, frame))


def make_host(sim, spec=None):
    host = Host(sim, "w0", spec)
    # loopback uplink so send() has a target and io latency has a rate
    sink = []
    uplink = Link(sim, LinkSpec(rate_gbps=10.0, propagation_s=0.0), "up",
                  deliver=sink.append)
    host.uplink = uplink
    return host, sink


class TestFlowDirector:
    def test_flow_key_maps_to_stable_core(self):
        sim = Simulator()
        host, _ = make_host(sim, HostSpec(num_cores=4))
        assert host.core_for(5) is host.core_for(5)
        assert host.core_for(1) is not host.core_for(2)

    def test_sharding_wraps_modulo_cores(self):
        sim = Simulator()
        host, _ = make_host(sim, HostSpec(num_cores=4))
        assert host.core_for(2) is host.core_for(6)


class TestReceivePath:
    def test_frames_dispatch_to_agent(self):
        sim = Simulator()
        host, _ = make_host(sim)
        agent = Recorder(sim)
        host.attach_agent(agent)
        host.deliver(Frame(wire_bytes=180, flow_key=0))
        sim.run()
        assert len(agent.frames) == 1
        assert host.frames_received == 1

    def test_rx_cost_and_io_latency_delay_dispatch(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=1, per_frame_rx_s=100e-9,
            io_fixed_latency_s=1e-6, io_batch_frames=0,
        )
        host, _ = make_host(sim, spec)
        agent = Recorder(sim)
        host.attach_agent(agent)
        host.deliver(Frame(wire_bytes=180))
        sim.run()
        assert agent.frames[0][0] == pytest.approx(100e-9 + 1e-6)

    def test_same_core_frames_serialize(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=1, per_frame_rx_s=1e-6,
            io_fixed_latency_s=0.0, io_batch_frames=0,
        )
        host, _ = make_host(sim, spec)
        agent = Recorder(sim)
        host.attach_agent(agent)
        host.deliver(Frame(wire_bytes=180, flow_key=0))
        host.deliver(Frame(wire_bytes=180, flow_key=0))
        sim.run()
        times = [t for t, _ in agent.frames]
        assert times == pytest.approx([1e-6, 2e-6])

    def test_different_cores_run_in_parallel(self):
        sim = Simulator()
        spec = HostSpec(
            num_cores=2, per_frame_rx_s=1e-6,
            io_fixed_latency_s=0.0, io_batch_frames=0,
        )
        host, _ = make_host(sim, spec)
        agent = Recorder(sim)
        host.attach_agent(agent)
        host.deliver(Frame(wire_bytes=180, flow_key=0))
        host.deliver(Frame(wire_bytes=180, flow_key=1))
        sim.run()
        times = [t for t, _ in agent.frames]
        assert times == pytest.approx([1e-6, 1e-6])

    def test_missing_agent_raises(self):
        sim = Simulator()
        host, _ = make_host(sim)
        host.deliver(Frame(wire_bytes=180))
        with pytest.raises(RuntimeError):
            sim.run()


class TestSendPath:
    def test_send_reaches_uplink(self):
        sim = Simulator()
        host, sink = make_host(sim)
        host.send(Frame(wire_bytes=180))
        sim.run()
        assert len(sink) == 1
        assert host.frames_sent == 1

    def test_send_without_uplink_raises(self):
        sim = Simulator()
        host = Host(sim, "w0")
        with pytest.raises(RuntimeError):
            host.send(Frame(wire_bytes=180))

    def test_io_batch_latency_scales_with_link_rate(self):
        sim = Simulator()
        spec = HostSpec(io_fixed_latency_s=1e-6, io_batch_frames=16)
        host, _ = make_host(sim, spec)
        latency = host._io_latency(Frame(wire_bytes=180))
        assert latency == pytest.approx(1e-6 + 16 * 180 * 8 / 10e9)


class TestHostSpec:
    def test_defaults_allow_line_rate_at_10g(self):
        """One core must sustain 10 Gbps of 180 B frames (paper SSB)."""
        spec = HostSpec()
        pairs_per_second = 1.0 / (spec.per_frame_rx_s + spec.per_frame_tx_s)
        line_rate_pps = 10e9 / 8.0 / 180
        assert pairs_per_second > line_rate_pps

    def test_four_cores_fall_short_at_100g(self):
        """The 100 Gbps penalty gap (paper SS5.1): 4 cores < line rate."""
        spec = HostSpec()
        pairs = spec.num_cores / (spec.per_frame_rx_s + spec.per_frame_tx_s)
        line_rate_pps = 100e9 / 8.0 / 180
        assert pairs < line_rate_pps
        assert pairs > 0.5 * line_rate_pps  # but above half

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            HostSpec(num_cores=0)
        with pytest.raises(ValueError):
            HostSpec(per_frame_rx_s=-1.0)
        with pytest.raises(ValueError):
            HostSpec(io_fixed_latency_s=-1.0)


class TestSendTrainLockstep:
    """``send_train`` against N back-to-back ``send`` calls on a twin
    host: same core busy chains, same counters, and -- through the
    uplink -- the same per-frame arrivals, draws and ``LinkStats``."""

    def _twin(self):
        sim = Simulator()
        host = Host(sim, "w0", HostSpec(num_cores=4))
        got = []
        host.uplink = Link(
            sim,
            LinkSpec(rate_gbps=10.0, propagation_s=5e-7, jitter_s=2e-7,
                     corruption_probability=0.1),
            "up", loss=BernoulliLoss(0.2),
            deliver=lambda f: got.append((sim.now, f.flow_key, f.corrupted)),
        )
        seen = []
        host.observer = lambda f, what, t: seen.append((f.flow_key, what, t))
        return sim, host, got, seen

    def _state(self, host, got, seen):
        st = host.uplink.stats
        return {
            "cores": [(c.busy_until, c.jobs_served, c.busy_time)
                      for c in host.cores],
            "frames_sent": host.frames_sent,
            "observer": seen,
            "arrivals": sorted(got),
            "link": (st.frames_sent, st.frames_lost, st.frames_corrupted,
                     st.frames_delivered, st.bytes_sent, st.busy_time),
            "cursor": (host.uplink._u_i, host.uplink._u_buf),
        }

    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_train_matches_scalar_sends(self, n):
        def frames():
            # core 0 gets a head start of work, so its frames submit
            # *after* later-charged ones: the train must restore order
            return [Frame(wire_bytes=180 + 8 * (i % 3), flow_key=(i * 7) % 5)
                    for i in range(n)]

        def run(as_train):
            sim, host, got, seen = self._twin()
            host.cores[0].busy_until = 3e-7
            if as_train:
                host.send_train(frames())
            else:
                for f in frames():
                    host.send(f)
            sim.run()
            return self._state(host, got, seen)

        assert run(True) == run(False)


class _BurstRecorder(Recorder):
    def __init__(self, sim):
        super().__init__(sim)
        self.bursts = []

    def on_frames(self, frames):
        self.bursts.append((self.sim.now, [f.flow_key for f in frames]))


class TestWindowedReceive:
    """``burst_epsilon > 0``: the downlink hands over whole drains, and
    dispatches inside one window reach the agent as one RX burst."""

    def _host(self, sim, eps):
        host, _ = make_host(sim, HostSpec(
            num_cores=2, per_frame_rx_s=50e-9,
            io_fixed_latency_s=1e-6, io_batch_frames=0,
        ))
        host.burst_epsilon = eps
        return host

    def test_one_window_one_burst_in_dispatch_order(self):
        sim = Simulator()
        host = self._host(sim, eps=1e-6)
        agent = _BurstRecorder(sim)
        host.attach_agent(agent)
        # keys 0,2,4 queue on core 0, key 1 runs alone on core 1 and
        # dispatches second despite arriving last
        host.deliver_burst_many(
            [Frame(wire_bytes=180, flow_key=k) for k in (0, 2, 4, 1)]
        )
        assert sim.pending == 1
        sim.run()
        t0 = 50e-9 + 1e-6  # the opener's dispatch time
        assert agent.bursts == [(pytest.approx(t0 + 1e-6), [0, 1, 2, 4])]
        assert host.frames_received == 4

    def test_dispatch_past_the_window_opens_the_next(self):
        sim = Simulator()
        host = self._host(sim, eps=60e-9)
        agent = _BurstRecorder(sim)
        host.attach_agent(agent)
        host.deliver_burst_many(
            [Frame(wire_bytes=180, flow_key=0) for _ in range(3)]
        )
        sim.run()
        assert [len(keys) for _, keys in agent.bursts] == [2, 1]

    def test_core_accounting_matches_per_frame_deliver(self):
        def run(windowed):
            sim = Simulator()
            host = self._host(sim, eps=1e-6)
            host.attach_agent(Recorder(sim))
            frames = [Frame(wire_bytes=180, flow_key=k) for k in (0, 1, 0, 0, 1)]
            if windowed:
                host.deliver_burst_many(frames)
            else:
                for f in frames:
                    host.deliver(f)
            sim.run()
            return ([(c.busy_until, c.jobs_served, c.busy_time) for c in host.cores],
                    host.frames_received, len(host.agent.frames))

        assert run(True) == run(False)

    def test_missing_agent_raises(self):
        sim = Simulator()
        host = self._host(sim, eps=1e-6)
        host.deliver_burst_many([Frame(wire_bytes=180)])
        with pytest.raises(RuntimeError, match="no agent"):
            sim.run()
