"""Unit tests for the rack topology builder."""

import pytest

from repro.net.loss import BernoulliLoss, ScriptedLoss
from repro.net.switchchassis import ForwardingProgram
from repro.net.packet import Frame
from repro.net.topology import RackSpec, build_rack
from repro.sim.engine import Simulator


class TestBuildRack:
    def test_builds_requested_hosts_and_links(self):
        sim = Simulator()
        rack = build_rack(sim, RackSpec(num_hosts=4))
        assert len(rack.hosts) == 4
        assert len(rack.uplinks) == 4
        assert len(rack.downlinks) == 4
        assert rack.switch.ports == [0, 1, 2, 3]

    def test_host_names_and_port_map(self):
        sim = Simulator()
        rack = build_rack(sim, RackSpec(num_hosts=2))
        assert [h.name for h in rack.hosts] == ["w0", "w1"]
        assert rack.port_map() == {"w0": 0, "w1": 1}
        assert rack.host_port(1) == 1

    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError):
            build_rack(Simulator(), RackSpec(num_hosts=0))

    def test_loss_factory_builds_independent_instances(self):
        """Stateful loss models must not be shared across links."""
        sim = Simulator()
        rack = build_rack(
            sim, RackSpec(num_hosts=3, loss_factory=lambda: ScriptedLoss({0}))
        )
        models = [l.loss for l in rack.uplinks + rack.downlinks]
        assert len({id(m) for m in models}) == len(models)

    def test_end_to_end_forwarding_through_rack(self):
        """Host 0 -> switch -> host 1 over the built links."""
        sim = Simulator()
        rack = build_rack(sim, RackSpec(num_hosts=2))
        rack.switch.load_program(ForwardingProgram(rack.port_map()))
        received = []

        class Agent:
            def on_frame(self, frame):
                received.append(frame)

        rack.hosts[1].attach_agent(Agent())
        rack.hosts[0].send(Frame(wire_bytes=180, src="w0", dst="w1"))
        sim.run()
        assert len(received) == 1
        assert rack.conservation_holds()

    def test_total_frames_lost_counts_both_directions(self):
        sim = Simulator()
        rack = build_rack(
            sim, RackSpec(num_hosts=2, loss_factory=lambda: BernoulliLoss(1.0))
        )
        rack.switch.load_program(ForwardingProgram(rack.port_map()))
        rack.hosts[0].send(Frame(wire_bytes=180, src="w0", dst="w1"))
        sim.run()
        assert rack.total_frames_lost() == 1
        assert rack.conservation_holds()


class TestAttachHost:
    def test_wires_host_switch_and_links(self):
        from repro.net.topology import attach_host

        sim = Simulator()
        sw = __import__("repro.net.switchchassis", fromlist=["SwitchChassis"]).SwitchChassis(sim, "sw")
        host, up, down = attach_host(sim, sw, port=3, name="h7")
        assert host.name == "h7"
        assert up.name == "h7->sw"
        assert down.name == "sw->h7"
        assert host.uplink is up
        assert 3 in sw.ports

    def test_loss_models_are_per_link(self):
        from repro.net.switchchassis import SwitchChassis
        from repro.net.topology import attach_host

        sim = Simulator()
        sw = SwitchChassis(sim, "sw")
        _, up, down = attach_host(
            sim, sw, port=0, name="h0", loss_factory=lambda: ScriptedLoss({0})
        )
        assert up.loss is not down.loss


class TestConnectSwitches:
    def test_trunk_names_and_ports(self):
        from repro.net.switchchassis import SwitchChassis
        from repro.net.topology import connect_switches

        sim = Simulator()
        lower = SwitchChassis(sim, "leafX")
        upper = SwitchChassis(sim, "spineY")
        up, down = connect_switches(
            sim, lower=lower, lower_port=4, upper=upper, upper_port=1
        )
        assert up.name == "leafX->spineY"
        assert down.name == "spineY->leafX"
        assert 4 in lower.ports
        assert 1 in upper.ports


class TestNetPackageBoundary:
    """The repro.net public API surface stays importable and complete."""

    def test_every_all_name_resolves(self):
        import repro.net as net

        for name in net.__all__:
            assert getattr(net, name) is not None

    def test_all_is_sorted_and_unique(self):
        import repro.net as net

        assert sorted(net.__all__) == list(net.__all__)
        assert len(set(net.__all__)) == len(net.__all__)

    def test_topology_builders_exported(self):
        import repro.net as net

        for name in (
            "attach_host",
            "connect_switches",
            "build_rack",
            "Rack",
            "RackSpec",
        ):
            assert name in net.__all__

    def test_fabric_subpackage_boundary(self):
        import repro.net.fabric as fabric

        for name in fabric.__all__:
            assert getattr(fabric, name) is not None
        assert sorted(fabric.__all__) == list(fabric.__all__)
