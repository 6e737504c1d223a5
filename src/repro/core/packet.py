"""The SwitchML packet format.

A packet ``p(wid, ver, idx, off, vector)`` carries (Algorithms 3-4):

* ``wid``  -- the sending worker's id (used for the ``seen`` bitmap and
  for unicasting retransmitted results);
* ``ver``  -- the single-bit pool version selecting active vs shadow pool;
* ``idx``  -- the pool slot index;
* ``off``  -- the element offset of this chunk within the model update;
* ``vector`` -- ``k`` 32-bit integers (quantized gradient values).

The same format travels both directions; ``from_switch`` marks result
packets in the simulator (on the wire the direction is implicit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Frame-size accounting is single-sourced in repro.net.packet; the
# private aliases keep this module from re-exporting the names (import
# Frame / FRAME_OVERHEAD_BYTES from repro.net.packet, not from here --
# tests/core/test_packet_module_boundary.py enforces the boundary).
from repro.net.packet import (
    FRAME_OVERHEAD_BYTES as _FRAME_OVERHEAD_BYTES,
    Frame as _Frame,
)

__all__ = [
    "HEARTBEAT_WIRE_BYTES",
    "Heartbeat",
    "SwitchMLPacket",
    "fanout_frames",
]


@dataclass(slots=True)
class SwitchMLPacket:
    """One SwitchML update or result packet.

    ``vector`` may be ``None`` in *phantom* mode, where large sweeps skip
    payload arithmetic and only timing is simulated; ``num_elements``
    then still sizes the frame correctly.

    Packets are created once per protocol step in the simulator's inner
    loop; field validation happens at the protocol layers (the switch
    program rejects out-of-range ``idx``/``wid``; :meth:`validate` is
    available for explicit checks in tests and at API boundaries).
    """

    wid: int
    ver: int
    idx: int
    off: int
    num_elements: int
    vector: np.ndarray | None = None
    from_switch: bool = False
    is_retransmission: bool = False
    job_id: int = 0
    #: Control-plane pool epoch (distinct from the 1-bit ``ver``): the
    #: controller bumps it on every reconfiguration, and the switch
    #: program drops packets whose epoch does not match its lease, so
    #: in-flight traffic from a pre-failure configuration can never
    #: contaminate the recovered job's aggregator slots.
    epoch: int = 0

    def validate(self) -> None:
        """Check field ranges; raises ValueError on malformed packets."""
        if self.ver not in (0, 1):
            raise ValueError(f"pool version must be 0 or 1, got {self.ver}")
        if self.epoch < 0:
            raise ValueError(f"pool epoch must be non-negative, got {self.epoch}")
        if self.idx < 0:
            raise ValueError(f"pool index must be non-negative, got {self.idx}")
        if self.off < 0:
            raise ValueError(f"offset must be non-negative, got {self.off}")
        if self.num_elements <= 0:
            raise ValueError(f"num_elements must be positive, got {self.num_elements}")
        if self.vector is not None and len(self.vector) != self.num_elements:
            raise ValueError(
                f"vector length {len(self.vector)} != num_elements {self.num_elements}"
            )

    def wire_bytes(self, bytes_per_element: int = 4) -> int:
        """Frame size on the wire for this packet."""
        return self.num_elements * bytes_per_element + _FRAME_OVERHEAD_BYTES

    def to_frame(self, src: str, dst: str, bytes_per_element: int = 4) -> _Frame:
        """Wrap in a wire frame.  ``flow_key`` is the slot index so that
        flow-director sharding keeps each slot on one core (SSB)."""
        return _Frame(
            wire_bytes=self.wire_bytes(bytes_per_element),
            message=self,
            src=src,
            dst=dst,
            flow_key=self.idx,
        )

    def result_copy(self, vector: np.ndarray | None) -> "SwitchMLPacket":
        """The switch's response packet for this update (same slot/offset,
        payload rewritten with the aggregate)."""
        return SwitchMLPacket(
            wid=self.wid,
            ver=self.ver,
            idx=self.idx,
            off=self.off,
            num_elements=self.num_elements,
            vector=vector,
            from_switch=True,
            job_id=self.job_id,
            epoch=self.epoch,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        direction = "res" if self.from_switch else "upd"
        retrans = " re" if self.is_retransmission else ""
        return (
            f"<SwitchMLPacket {direction}{retrans} wid={self.wid} ver={self.ver} "
            f"idx={self.idx} off={self.off} k={self.num_elements}>"
        )


def fanout_frames(
    packet: SwitchMLPacket,
    src: str,
    dests: list[str],
    bytes_per_element: int = 4,
) -> list[_Frame]:
    """Multicast replica build: one frame per destination, one wire-size
    computation for all of them (the switch's result fan-out sends the
    same packet to every member)."""
    wire = packet.num_elements * bytes_per_element + _FRAME_OVERHEAD_BYTES
    idx = packet.idx
    return [
        _Frame(wire_bytes=wire, message=packet, src=src, dst=dst, flow_key=idx)
        for dst in dests
    ]


#: A heartbeat is a minimal frame: headers plus member id, epoch, and a
#: progress counter (2 + 4 + 4 = 10 bytes of payload, padded).
HEARTBEAT_WIRE_BYTES = _FRAME_OVERHEAD_BYTES + 12


@dataclass(slots=True)
class Heartbeat:
    """A worker liveness beacon, sent through the dataplane.

    Heartbeats travel *in-band* -- worker NIC, uplink, switch pipeline --
    and are punted to the controller at the switch (the CPU port).  This
    is deliberate: liveness measured through the dataplane reflects
    exactly the reachability the collective needs, so a dead worker, a
    downed link, and a rebooting switch all manifest the same way (missed
    heartbeats), which is how the membership layer detects all three.

    ``member`` is the worker's *stable* member id, which survives the
    protocol-level ``wid`` renumbering that happens when a job is
    re-admitted with fewer workers.  ``progress`` carries the worker's
    result counter so the controller can also observe stalls.
    """

    member: int
    epoch: int = 0
    progress: int = 0

    def to_frame(self, src: str, dst: str, flow_key: int = 0) -> _Frame:
        return _Frame(
            wire_bytes=HEARTBEAT_WIRE_BYTES,
            message=self,
            src=src,
            dst=dst,
            flow_key=flow_key,
        )
