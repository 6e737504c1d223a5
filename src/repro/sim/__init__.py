"""Deterministic discrete-event simulation engine.

This package is the clock that everything else in :mod:`repro` runs on.
It provides:

* :class:`~repro.sim.engine.Simulator` -- a classic event-heap simulator
  with cancellable events and named, seeded random substreams.
* :class:`~repro.sim.resources.SerialResource` -- a FIFO serial server used
  to model CPU cores, NIC serialization, and other one-at-a-time resources.
* :class:`~repro.sim.trace.TraceRecorder` -- time-bucketed counters used to
  build packet-rate timelines (paper Figure 6).

Design notes
------------
The engine is callback-based rather than coroutine-based: protocol agents
(workers, switch programs, parameter servers) are event-driven state
machines in the paper as well ("upon receive p", "upon timeout p"), so the
callback style is the most direct transcription of Algorithms 1-4.

Determinism is a hard requirement (DESIGN.md invariant list): two runs with
the same seed must produce identical traces.  Ties in event time are broken
by a monotonically increasing sequence number, and all randomness flows
through named substreams derived from the simulator's root seed.
"""

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.resources import SerialResource
from repro.sim.trace import TraceRecorder

__all__ = [
    "Event",
    "SerialResource",
    "SimulationError",
    "Simulator",
    "TraceRecorder",
]
