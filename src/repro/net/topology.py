"""Topology builders: the single-rack star and the low-level wiring
helpers every multi-switch layout shares.

The paper's deployment (SS5.1) is a rack: every worker has one cable to
the programmable ToR switch.  :func:`build_rack` wires that up --
per-worker uplink and downlink links, each with its own loss model
instance (the paper injects loss "on every link") and its own RNG
substream.

:mod:`repro.net.fabric` composes leaves and spines into a Clos -- the
SS6 tree of racks is its one-spine case -- on the same two primitives
here rather than re-implementing the wiring:

* :func:`attach_host` -- one host, one switch port, both cable
  directions;
* :func:`connect_switches` -- a switch-to-switch trunk, both directions.

Link names are canonical (``a->b``) and double as the RNG substream
keys, so a topology's randomness is a function of its names, not of the
order in which its links were constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.net.loss import LossModel, NoLoss
from repro.net.switchchassis import SwitchChassis
from repro.sim.engine import Simulator

__all__ = [
    "Rack",
    "RackSpec",
    "attach_host",
    "build_rack",
    "connect_switches",
]


@dataclass
class RackSpec:
    """Everything needed to instantiate a rack.

    ``loss_factory`` builds a fresh loss-model instance per link so that
    stateful models (Gilbert-Elliott, scripted) do not share state across
    links.
    """

    num_hosts: int = 8
    link: LinkSpec = field(default_factory=LinkSpec)
    host: HostSpec = field(default_factory=HostSpec)
    pipeline_latency_s: float = 800e-9
    loss_factory: Callable[[], LossModel] = NoLoss
    host_name_prefix: str = "w"


@dataclass
class Rack:
    """A built rack: hosts star-connected to one switch."""

    sim: Simulator
    switch: SwitchChassis
    hosts: list[Host]
    uplinks: list[Link]
    downlinks: list[Link]

    def host_port(self, index: int) -> int:
        """Switch port number of host ``index`` (identity mapping)."""
        return index

    def port_map(self) -> dict[str, int]:
        """host name -> switch port, for forwarding programs."""
        return {host.name: i for i, host in enumerate(self.hosts)}

    def total_frames_lost(self) -> int:
        return sum(l.stats.frames_lost for l in self.uplinks + self.downlinks)

    def conservation_holds(self) -> bool:
        """Every link satisfies sent == delivered + lost (once idle)."""
        return all(
            l.stats.conservation_holds() for l in self.uplinks + self.downlinks
        )


def attach_host(
    sim: Simulator,
    switch: SwitchChassis,
    port: int,
    name: str,
    host_spec: HostSpec | None = None,
    link_spec: LinkSpec | None = None,
    loss_factory: Callable[[], LossModel] = NoLoss,
) -> tuple[Host, Link, Link]:
    """Wire one host to one switch port, both cable directions.

    The uplink (``host->switch``) delivers into the switch's ingress
    pipeline for ``port``; the downlink (``switch->host``) is attached as
    the port's egress.  Each direction gets its own loss-model instance
    and -- because substreams are keyed by link name -- its own RNG.
    Returns ``(host, uplink, downlink)``.
    """
    host_spec = host_spec if host_spec is not None else HostSpec()
    link_spec = link_spec if link_spec is not None else LinkSpec()
    host = Host(sim, name=name, spec=host_spec)
    uplink = Link(
        sim,
        link_spec,
        name=f"{host.name}->{switch.name}",
        deliver=switch.ingress_callback(port),
        loss=loss_factory(),
    )
    downlink = Link(
        sim,
        link_spec,
        name=f"{switch.name}->{host.name}",
        deliver=host.deliver,
        loss=loss_factory(),
    )
    host.uplink = uplink
    switch.attach_port(port, downlink)
    return host, uplink, downlink


def connect_switches(
    sim: Simulator,
    lower: SwitchChassis,
    lower_port: int,
    upper: SwitchChassis,
    upper_port: int,
    link_spec: LinkSpec | None = None,
    loss_factory: Callable[[], LossModel] = NoLoss,
) -> tuple[Link, Link]:
    """Trunk two switches together, both directions.

    ``lower_port`` is the uplink-facing port on ``lower`` (egress toward
    ``upper``); ``upper_port`` is the downlink-facing port on ``upper``.
    Returns ``(uplink, downlink)`` where the uplink carries
    lower-to-upper traffic.
    """
    link_spec = link_spec if link_spec is not None else LinkSpec()
    uplink = Link(
        sim,
        link_spec,
        name=f"{lower.name}->{upper.name}",
        deliver=upper.ingress_callback(upper_port),
        loss=loss_factory(),
    )
    downlink = Link(
        sim,
        link_spec,
        name=f"{upper.name}->{lower.name}",
        deliver=lower.ingress_callback(lower_port),
        loss=loss_factory(),
    )
    lower.attach_port(lower_port, uplink)
    upper.attach_port(upper_port, downlink)
    return uplink, downlink


def build_rack(sim: Simulator, spec: RackSpec) -> Rack:
    """Instantiate hosts, switch, and both link directions per host.

    Port ``i`` of the switch connects to host ``i``.  The caller still has
    to load a dataplane program into ``rack.switch`` and attach agents to
    the hosts.
    """
    if spec.num_hosts < 1:
        raise ValueError("a rack needs at least one host")

    switch = SwitchChassis(sim, name="sw", pipeline_latency_s=spec.pipeline_latency_s)
    hosts: list[Host] = []
    uplinks: list[Link] = []
    downlinks: list[Link] = []

    for i in range(spec.num_hosts):
        host, uplink, downlink = attach_host(
            sim,
            switch,
            port=i,
            name=f"{spec.host_name_prefix}{i}",
            host_spec=spec.host,
            link_spec=spec.link,
            loss_factory=spec.loss_factory,
        )
        hosts.append(host)
        uplinks.append(uplink)
        downlinks.append(downlink)

    return Rack(sim=sim, switch=switch, hosts=hosts, uplinks=uplinks, downlinks=downlinks)
