"""Unit tests for the switch chassis and plain forwarding program."""

import pytest

from repro.net.link import Link, LinkSpec
from repro.net.packet import Frame
from repro.net.switchchassis import ForwardingProgram, PortDecision, SwitchChassis
from repro.sim.engine import Simulator


def build_switch(sim, num_ports=3, latency=1e-6):
    chassis = SwitchChassis(sim, "sw", pipeline_latency_s=latency)
    sinks = {}
    for port in range(num_ports):
        sinks[port] = []
        link = Link(
            sim, LinkSpec(rate_gbps=10.0, propagation_s=0.0), f"sw->h{port}",
            deliver=sinks[port].append,
        )
        chassis.attach_port(port, link)
    return chassis, sinks


class TestForwarding:
    def test_forwards_by_destination(self):
        sim = Simulator()
        chassis, sinks = build_switch(sim)
        chassis.load_program(ForwardingProgram({"h0": 0, "h1": 1, "h2": 2}))
        chassis.ingress(Frame(wire_bytes=100, dst="h2"), in_port=0)
        sim.run()
        assert len(sinks[2]) == 1
        assert not sinks[0] and not sinks[1]

    def test_unknown_destination_dropped(self):
        sim = Simulator()
        chassis, sinks = build_switch(sim)
        chassis.load_program(ForwardingProgram({"h0": 0}))
        chassis.ingress(Frame(wire_bytes=100, dst="nowhere"), in_port=0)
        sim.run()
        assert chassis.frames_dropped == 1
        assert all(not s for s in sinks.values())

    def test_pipeline_latency_applied(self):
        sim = Simulator()
        chassis, sinks = build_switch(sim, latency=5e-6)
        chassis.load_program(ForwardingProgram({"h1": 1}))
        arrivals = []
        chassis._egress[1].connect(lambda f: arrivals.append(sim.now))
        chassis.ingress(Frame(wire_bytes=125), in_port=0)  # 100 ns serialization
        chassis.ingress(Frame(wire_bytes=125, dst="h1"), in_port=0)
        sim.run()
        assert arrivals[0] == pytest.approx(5e-6 + 125 * 8 / 10e9)


class TestMulticast:
    def test_program_can_replicate_to_all_ports(self):
        class Flood:
            def process(self, frame, in_port):
                return PortDecision(
                    deliveries=[
                        (p, frame.copy_for(f"h{p}")) for p in (0, 1, 2) if p != in_port
                    ]
                )

        sim = Simulator()
        chassis, sinks = build_switch(sim)
        chassis.load_program(Flood())
        chassis.ingress(Frame(wire_bytes=100, dst="any"), in_port=1)
        sim.run()
        assert len(sinks[0]) == 1 and len(sinks[2]) == 1 and not sinks[1]
        assert chassis.frames_out == 2


class TestWiring:
    def test_duplicate_port_rejected(self):
        sim = Simulator()
        chassis, _ = build_switch(sim, num_ports=1)
        with pytest.raises(ValueError):
            chassis.attach_port(0, Link(sim, LinkSpec(), "dup", deliver=lambda f: None))

    def test_no_program_raises(self):
        sim = Simulator()
        chassis, _ = build_switch(sim)
        with pytest.raises(RuntimeError):
            chassis.ingress(Frame(wire_bytes=100), in_port=0)

    def test_unattached_egress_port_raises(self):
        class ToNowhere:
            def process(self, frame, in_port):
                return PortDecision(deliveries=[(99, frame)])

        sim = Simulator()
        chassis, _ = build_switch(sim)
        chassis.load_program(ToNowhere())
        chassis.ingress(Frame(wire_bytes=100), in_port=0)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_ports_listing(self):
        sim = Simulator()
        chassis, _ = build_switch(sim, num_ports=3)
        assert chassis.ports == [0, 1, 2]

    def test_ingress_callback_binds_port(self):
        seen = []

        class Spy:
            def process(self, frame, in_port):
                seen.append(in_port)
                return PortDecision.drop()

        sim = Simulator()
        chassis, _ = build_switch(sim)
        chassis.load_program(Spy())
        chassis.ingress_callback(2)(Frame(wire_bytes=100))
        sim.run()
        assert seen == [2]


class _BatchEcho:
    """A batch-capable program: every frame goes back out of the port it
    came in on and to port 0; records the groups it was handed."""

    def __init__(self):
        self.groups = []

    def process(self, frame, in_port):  # pragma: no cover - batch path only
        raise AssertionError("per-frame entry on a batch-capable program")

    def process_batch(self, group):
        self.groups.append([(f.flow_key, port) for f, port in group])
        return [
            PortDecision(deliveries=[(port, frame), (0, Frame(wire_bytes=100))])
            for frame, port in group
            if frame.flow_key >= 0  # negative keys are absorbed
        ]


class TestWindowedIngress:
    """``burst_epsilon > 0``: link drains from every port pool into one
    ingress window, one pipeline drain, one frame train per egress."""

    def _switch(self, sim, eps):
        chassis, sinks = build_switch(sim, num_ports=3)
        chassis.burst_epsilon = eps
        for link in chassis._egress.values():
            link.burst_epsilon = eps
        return chassis, sinks

    def test_drains_across_ports_share_one_pipeline_pass(self):
        sim = Simulator()
        chassis, sinks = self._switch(sim, eps=2e-6)
        program = _BatchEcho()
        chassis.load_program(program)
        chassis.burst_ingress_many_callback(1)(
            [Frame(wire_bytes=100, flow_key=k) for k in (1, -1)]
        )
        sim.schedule_call(
            1e-6, chassis.burst_ingress_many_callback(2),
            [Frame(wire_bytes=100, flow_key=2)],
        )
        # past the window: its own drain
        sim.schedule_call(
            5e-6, chassis.burst_ingress_many_callback(1),
            [Frame(wire_bytes=100, flow_key=3)],
        )
        sim.run()
        assert program.groups == [[(1, 1), (-1, 1), (2, 2)], [(3, 1)]]
        assert (chassis.frames_in, chassis.frames_out, chassis.frames_dropped) \
            == (4, 6, 1)
        assert [f.flow_key for f in sinks[1]] == [1, 3]
        assert [f.flow_key for f in sinks[2]] == [2]
        assert len(sinks[0]) == 3
        # the first window's three port-0 replicas left as one train
        assert chassis._egress[0].stats.frames_sent == 3

    def test_per_frame_program_shares_the_drain_event(self):
        sim = Simulator()
        chassis, sinks = self._switch(sim, eps=2e-6)
        chassis.load_program(ForwardingProgram({"h1": 1}))
        chassis.burst_ingress_many_callback(0)(
            [Frame(wire_bytes=100, dst="h1", flow_key=k) for k in range(3)]
        )
        assert sim.pending == 1
        sim.run()
        assert [f.flow_key for f in sinks[1]] == [0, 1, 2]

    def test_unattached_egress_port_raises(self):
        class ToNowhere(_BatchEcho):
            def process_batch(self, group):
                return [PortDecision(deliveries=[(99, f)]) for f, _ in group]

        sim = Simulator()
        chassis, _ = self._switch(sim, eps=2e-6)
        chassis.load_program(ToNowhere())
        chassis.burst_ingress_many_callback(0)([Frame(wire_bytes=100)])
        with pytest.raises(RuntimeError, match="port 99"):
            sim.run()

    def test_no_program_raises(self):
        sim = Simulator()
        chassis, _ = self._switch(sim, eps=2e-6)
        with pytest.raises(RuntimeError, match="no dataplane program"):
            chassis.burst_ingress_many_callback(0)([Frame(wire_bytes=100)])
