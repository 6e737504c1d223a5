"""The layer map: which simulator layer a source file belongs to.

Keys are path prefixes relative to ``src/repro/``; the longest matching
prefix wins, and a file that matches none falls to ``other``.  The
names are the modules' own, so a regression reads as "`link` got
slower", not as a function list.
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "PER_PACKET_LAYERS", "layer_of"]

#: every layer the traced pass reports, in report order
LAYERS = (
    "engine",
    "link",
    "host",
    "chassis",
    "switch_program",
    "worker",
    "protocol",
    "job",
    "fabric",
    "controlplane",
    "obs",
    "other",
)

#: layers on the per-frame path: every workload runs them, so their self
#: time (total and per worker packet) is reported as a time; the other
#: layers are idle on some workload and report share and counts only
PER_PACKET_LAYERS = (
    "engine", "link", "host", "chassis", "switch_program", "worker", "obs",
)

_PREFIXES = {
    "sim/": "engine",
    "sim/trace.py": "obs",
    "net/link.py": "link",
    "net/loss.py": "link",
    "net/host.py": "host",
    "net/switchchassis.py": "chassis",
    "core/switch_program.py": "switch_program",
    "core/backend.py": "switch_program",
    "dataplane/": "switch_program",
    "core/worker.py": "worker",
    "core/packet.py": "worker",
    "core/stream.py": "worker",
    "net/packet.py": "worker",
    "core/protocol.py": "protocol",
    "core/job.py": "job",
    "net/topology.py": "job",
    "net/fabric/": "fabric",
    "core/hierarchy.py": "fabric",
    "controlplane/": "controlplane",
    "obs/": "obs",
    "harness/telemetry.py": "obs",
}
_BY_LENGTH = sorted(_PREFIXES, key=len, reverse=True)


def layer_of(relpath: str) -> str:
    """Layer of a file given its path relative to ``src/repro/``."""
    relpath = relpath.replace(os.sep, "/")
    for prefix in _BY_LENGTH:
        if relpath.startswith(prefix):
            return _PREFIXES[prefix]
    return "other"
