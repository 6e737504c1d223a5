"""Wire frames and size accounting.

The paper's SwitchML packet carries ``k = 32`` 32-bit integers (128 bytes
of payload) in a ``b = 180`` byte frame (SS3.4, SS3.6).  The 52-byte
difference is the stack of headers: Ethernet (14) + IPv4 (20) + UDP (8) +
the SwitchML header (wid, ver, idx, off -- 10 bytes padded to 10) below.
The same 52 bytes on a 1516-byte MTU frame leaves room for 366 elements
(1464 bytes), giving the 28.9 % -> 3.4 % header-overhead comparison of
SS5.5 ("Limited payload size").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "ETHERNET_OVERHEAD_BYTES",
    "FRAME_OVERHEAD_BYTES",
    "MTU_FRAME_BYTES",
    "SWITCHML_FRAME_BYTES",
    "SWITCHML_HEADER_BYTES",
    "BYTES_PER_ELEMENT",
    "Frame",
    "elements_per_packet",
    "frame_bytes_for_elements",
    "goodput_fraction",
]

#: Ethernet (14) + IPv4 (20) + UDP (8) header bytes.
ETHERNET_OVERHEAD_BYTES = 42

#: SwitchML header: worker id (2) + pool version (1, padded) + pool index
#: (2) + tensor offset (4) + job/checksum (1) = 10 bytes.
SWITCHML_HEADER_BYTES = 10

#: Total per-frame overhead on the wire.
FRAME_OVERHEAD_BYTES = ETHERNET_OVERHEAD_BYTES + SWITCHML_HEADER_BYTES

#: Bytes per tensor element; the switch aggregates 32-bit integers.
BYTES_PER_ELEMENT = 4

#: The paper's frame size: 32 elements * 4 B + 52 B overhead = 180 B.
SWITCHML_FRAME_BYTES = 32 * BYTES_PER_ELEMENT + FRAME_OVERHEAD_BYTES

#: The paper's MTU comparison point: 1516-byte frames, 366 elements.
MTU_FRAME_BYTES = 1516


def frame_bytes_for_elements(k: int, bytes_per_element: int = BYTES_PER_ELEMENT) -> int:
    """Wire size of a SwitchML frame carrying ``k`` elements."""
    if k <= 0:
        raise ValueError(f"element count must be positive, got {k}")
    return k * bytes_per_element + FRAME_OVERHEAD_BYTES


def elements_per_packet(frame_bytes: int, bytes_per_element: int = BYTES_PER_ELEMENT) -> int:
    """Elements that fit in a frame of ``frame_bytes`` total wire size."""
    payload = frame_bytes - FRAME_OVERHEAD_BYTES
    if payload < bytes_per_element:
        raise ValueError(f"frame of {frame_bytes} B has no room for payload")
    return payload // bytes_per_element


def goodput_fraction(k: int, bytes_per_element: int = BYTES_PER_ELEMENT) -> float:
    """Payload fraction of the wire frame for ``k`` elements.

    ``goodput_fraction(32) == 128/180 ~= 0.711`` -- the 28.9 % overhead the
    paper quotes; ``goodput_fraction(366) ~= 0.966``.
    """
    payload = k * bytes_per_element
    return payload / (payload + FRAME_OVERHEAD_BYTES)


@dataclass(slots=True)
class Frame:
    """A frame on the wire.

    ``message`` is the protocol-level message object (e.g. a
    :class:`repro.core.packet.SwitchMLPacket`); the network layer treats it
    opaquely.  ``flow_key`` selects the RX core at the receiving host
    (flow-director sharding, paper SSB); SwitchML uses the pool index so
    that slots shard across cores "without any shared state".

    Frames are created once per packet-hop in the simulator's inner loop,
    so the class is slotted and does no validation; link and host layers
    validate sizes where they are configured.
    """

    wire_bytes: int
    message: Any = None
    src: str = ""
    dst: str = ""
    flow_key: int = 0
    #: set by a link's corruption model; receivers checksum and discard
    corrupted: bool = False
    #: in-band telemetry: flat ``(series, stamp, series, stamp, ...)``
    #: pairs appended by the instrumented links and switch pipelines the
    #: frame crossed (:mod:`repro.obs.telemetry`), drained (reset to
    #: None) at the frame's sink.  None unless a telemetry hub is
    #: installed -- the common case.
    hops: tuple | None = None

    def copy_for(self, dst: str) -> "Frame":
        """A replica of this frame addressed to ``dst`` (multicast copy).

        The message object is shared, not copied: the switch's traffic
        manager replicates frames, and replicas carry the same payload.
        Receivers must not mutate messages in place.  Replicas start
        with no telemetry stamps: each copy traverses its own downlink
        and accumulates its own hop stamps.
        """
        return Frame(
            wire_bytes=self.wire_bytes,
            message=self.message,
            src=self.src,
            dst=dst,
            flow_key=self.flow_key,
        )
