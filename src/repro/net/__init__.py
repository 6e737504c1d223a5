"""Network substrate: frames, links, hosts, and the switch chassis.

This package models the paper's testbed network -- a single rack of
workers star-connected to one programmable switch -- at packet
granularity.  Multi-switch layouts, the SS6 tree of racks included (a
one-spine Clos), live in :mod:`repro.net.fabric`:

* :mod:`repro.net.packet` -- wire frames and size accounting.  The paper's
  numbers (180-byte SwitchML frames carrying 128 B of payload, 28.9 %
  header overhead; 1516-byte MTU frames at 3.4 %) fall straight out of the
  constants here.
* :mod:`repro.net.loss` -- loss injection: Bernoulli (the paper's 0.01-1 %
  uniform random loss), Gilbert-Elliott bursts, and scripted drops used to
  replay the Appendix A execution trace.
* :mod:`repro.net.link` -- store-and-forward links with serialization
  delay, propagation delay, FIFO queueing, and optional buffer caps.
* :mod:`repro.net.host` -- end hosts with a configurable number of CPU
  cores (serial resources) and flow-director-style RX sharding.
* :mod:`repro.net.switchchassis` -- the switch box: ports, an ingress
  pipeline slot for a dataplane program, and a traffic manager that
  performs multicast replication (paper SS4: "the traffic manager
  duplicates the packet ... and performs a multicast").
* :mod:`repro.net.topology` -- the single-rack star builder and the
  host/trunk wiring primitives the fabric builder shares.
"""

from repro.net.host import Host, HostSpec
from repro.net.link import Link, LinkSpec
from repro.net.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ScriptedLoss,
)
from repro.net.packet import (
    ETHERNET_OVERHEAD_BYTES,
    MTU_FRAME_BYTES,
    SWITCHML_FRAME_BYTES,
    SWITCHML_HEADER_BYTES,
    Frame,
    elements_per_packet,
    frame_bytes_for_elements,
    goodput_fraction,
)
from repro.net.switchchassis import PortDecision, SwitchChassis
from repro.net.topology import (
    Rack,
    RackSpec,
    attach_host,
    build_rack,
    connect_switches,
)

__all__ = [
    "BernoulliLoss",
    "ETHERNET_OVERHEAD_BYTES",
    "Frame",
    "GilbertElliottLoss",
    "Host",
    "HostSpec",
    "Link",
    "LinkSpec",
    "LossModel",
    "MTU_FRAME_BYTES",
    "NoLoss",
    "PortDecision",
    "Rack",
    "RackSpec",
    "SWITCHML_FRAME_BYTES",
    "SWITCHML_HEADER_BYTES",
    "ScriptedLoss",
    "SwitchChassis",
    "attach_host",
    "build_rack",
    "connect_switches",
    "elements_per_packet",
    "frame_bytes_for_elements",
    "goodput_fraction",
]
