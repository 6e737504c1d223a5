"""Fabric dataplanes: the leaf and spine chassis programs.

The leaf runs the SS6 :class:`~repro.core.hierarchy.RackAggregatorProgram`
(aggregate the rack, forward one partial upstream); the *active* spine
runs plain Algorithm 3 (:class:`~repro.core.switch_program.SwitchMLProgram`)
over the leaves; standby spines run no aggregation program at all.  Both
adapters additionally punt :class:`LinkHeartbeat` frames to the fabric
controller -- the CPU-port path per-link liveness is built on -- and the
leaf measures the two aggregation tiers into ``repro.obs`` histograms:

* ``fabric_leaf_tier_seconds``  -- first child contribution of a slot
  phase to the partial leaving on the uplink;
* ``fabric_spine_tier_seconds`` -- partial out to final result back.

Routing at the leaf is controller-programmed: partials always leave on
the uplink facing the leaf's *active* spine; a reroute installs a fresh
adapter pointing at the survivor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.hierarchy import RackAggregatorProgram
from repro.core.packet import Heartbeat, SwitchMLPacket, fanout_frames
from repro.core.switch_program import SwitchAction, SwitchMLProgram
from repro.net.packet import ETHERNET_OVERHEAD_BYTES, Frame
from repro.net.switchchassis import PortDecision
from repro.obs.base import NULL_OBS, Observability

__all__ = [
    "LINK_HEARTBEAT_WIRE_BYTES",
    "LeafDataplane",
    "LinkHeartbeat",
    "SpineDataplane",
]

#: the chassis' shared drop decision, resolved once (process() runs per frame)
_PORT_DROP = PortDecision.drop()

#: a link heartbeat carries leaf id, spine id, direction, and a sequence
#: number (4 + 4 + 1 + 4 bytes of payload, padded)
LINK_HEARTBEAT_WIRE_BYTES = ETHERNET_OVERHEAD_BYTES + 16


@dataclass(slots=True)
class LinkHeartbeat:
    """A per-trunk liveness beacon, one per direction.

    Emitted by the switch-local CPU at each end of every leaf-spine
    trunk and punted to the fabric controller at the far end.  Because
    the beacon rides the trunk itself, a dead cable, a flapping port,
    and a crashed far-end switch all present identically: the beacons
    stop arriving.  ``toward_spine`` says which direction this beacon
    probed (True = emitted by the leaf, heard at the spine).
    """

    leaf: int
    spine: int
    toward_spine: bool
    seq: int = 0

    def to_frame(self, src: str, dst: str) -> Frame:
        return Frame(
            wire_bytes=LINK_HEARTBEAT_WIRE_BYTES,
            message=self,
            src=src,
            dst=dst,
        )


class LeafDataplane:
    """Chassis adapter for a leaf: workers below, one trunk per spine.

    Ports ``0..m-1`` are workers; ``m + s`` faces spine ``s``.  Partials
    go up the ``active_spine`` trunk only (the controller's path
    selection); results are accepted from any trunk port (the old path
    may still drain) and fenced by epoch inside the program.
    """

    def __init__(
        self,
        program: RackAggregatorProgram,
        child_names: list[str],
        spine_names: list[str],
        active_spine: int,
        switch_name: str,
        punt: Callable[[LinkHeartbeat], None],
        clock: Callable[[], float] | None = None,
        obs: "Observability | None" = None,
        bytes_per_element: int = 4,
    ):
        self.program = program
        self.child_names = child_names
        self.spine_names = spine_names
        self.num_children = len(child_names)
        self.active_spine = active_spine
        self.switch_name = switch_name
        self.punt = punt
        self.bytes_per_element = bytes_per_element
        self.heartbeats_punted = 0
        self.worker_heartbeats_dropped = 0
        self._clock = clock if clock is not None else (lambda: 0.0)
        obs = obs if obs is not None else NULL_OBS
        metrics = obs.metrics
        self._m_on = metrics.enabled
        self._h_leaf = metrics.histogram(
            "fabric_leaf_tier_seconds",
            "first child contribution to partial forwarded, per slot phase",
        )
        self._h_spine = metrics.histogram(
            "fabric_spine_tier_seconds",
            "partial forwarded to result received, per slot phase",
        )
        #: (ver, idx) -> first-contribution / partial-forwarded timestamps
        self._t_first: dict[tuple[int, int], float] = {}
        self._t_fwd: dict[tuple[int, int], float] = {}

    def uplink_port(self, spine: int) -> int:
        return self.num_children + spine

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        message = frame.message
        if isinstance(message, LinkHeartbeat):
            if not frame.corrupted:
                self.heartbeats_punted += 1
                self.punt(message)
            return _PORT_DROP
        if isinstance(message, Heartbeat):
            # worker beacons terminate here; fabric liveness is per-trunk
            self.worker_heartbeats_dropped += 1
            return _PORT_DROP
        if not isinstance(message, SwitchMLPacket):
            return _PORT_DROP

        if in_port >= self.num_children:
            # From a spine: a completed aggregate for the rack.
            decision = self.program.handle_result(message)
            if decision.action is not SwitchAction.MULTICAST:
                return _PORT_DROP
            assert decision.packet is not None
            if self._m_on:
                key = (message.ver, message.idx)
                t0 = self._t_fwd.pop(key, None)
                if t0 is not None:
                    self._h_spine.observe(self._clock() - t0)
            return PortDecision(
                deliveries=list(
                    enumerate(
                        fanout_frames(
                            decision.packet,
                            self.switch_name,
                            self.child_names,
                            self.bytes_per_element,
                        )
                    )
                )
            )

        # From a worker.
        if self._m_on:
            key = (message.ver, message.idx)
            if message.epoch == self.program.epoch:
                self._t_first.setdefault(key, self._clock())
        decision = self.program.handle_child(message)
        if decision.action is SwitchAction.MULTICAST:
            # forward the partial up the active trunk
            assert decision.packet is not None
            if self._m_on:
                now = self._clock()
                if not decision.packet.is_retransmission:
                    t0 = self._t_first.pop(key, None)
                    if t0 is not None:
                        self._h_leaf.observe(now - t0)
                    self._t_fwd[key] = now
            out = decision.packet.to_frame(
                self.switch_name,
                self.spine_names[self.active_spine],
                self.bytes_per_element,
            )
            return PortDecision(deliveries=[(self.uplink_port(self.active_spine), out)])
        if decision.action is SwitchAction.UNICAST:
            assert decision.packet is not None and decision.unicast_wid is not None
            out = decision.packet.to_frame(
                self.switch_name,
                self.child_names[decision.unicast_wid],
                self.bytes_per_element,
            )
            return PortDecision(deliveries=[(decision.unicast_wid, out)])
        return _PORT_DROP


class SpineDataplane:
    """Chassis adapter for a spine: Algorithm 3 over the leaves, or pure
    standby (heartbeat punt only) when no program is mounted.

    Spine port ``l`` faces leaf ``l``; partials arrive with
    ``wid = leaf index`` and results are addressed back per leaf.
    """

    def __init__(
        self,
        leaf_names: list[str],
        switch_name: str,
        punt: Callable[[LinkHeartbeat], None],
        program: SwitchMLProgram | None = None,
        bytes_per_element: int = 4,
    ):
        self.leaf_names = leaf_names
        self.switch_name = switch_name
        self.punt = punt
        self.program = program
        self.bytes_per_element = bytes_per_element
        self.heartbeats_punted = 0
        self.standby_drops = 0

    def process(self, frame: Frame, in_port: int) -> PortDecision:
        message = frame.message
        if isinstance(message, LinkHeartbeat):
            if not frame.corrupted:
                self.heartbeats_punted += 1
                self.punt(message)
            return _PORT_DROP
        if not isinstance(message, SwitchMLPacket) or message.from_switch:
            return _PORT_DROP
        if self.program is None:
            self.standby_drops += 1
            return _PORT_DROP
        decision = self.program.handle(message)
        if decision.action is SwitchAction.DROP:
            return _PORT_DROP
        assert decision.packet is not None
        if decision.action is SwitchAction.UNICAST:
            leaf = decision.unicast_wid
            assert leaf is not None
            out = decision.packet.to_frame(
                self.switch_name, self.leaf_names[leaf], self.bytes_per_element
            )
            return PortDecision(deliveries=[(leaf, out)])
        return PortDecision(
            deliveries=list(
                enumerate(
                    fanout_frames(
                        decision.packet,
                        self.switch_name,
                        self.leaf_names,
                        self.bytes_per_element,
                    )
                )
            )
        )
