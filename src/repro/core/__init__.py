"""The SwitchML protocol: the paper's core contribution.

* :mod:`repro.core.packet` -- the SwitchML packet format
  ``(wid, ver, idx, off, vector)``.
* :mod:`repro.core.switch_program` -- the switch-side aggregation logic:
  Algorithm 1 (lossless) and Algorithm 3 (shadow copies + ``seen``
  bitmap loss recovery), executed on the register file of
  :mod:`repro.dataplane`.
* :mod:`repro.core.worker` -- the worker-side protocol: Algorithm 2
  (lossless) and Algorithm 4 (timeout-driven retransmission), including
  the self-clocked slot reuse discipline.
* :mod:`repro.core.stream` -- the virtual stream buffer manager that
  turns a framework's sequence of per-layer tensors into one continuous
  aggregation stream (Appendix B).
* :mod:`repro.core.tuning` -- pool sizing from the bandwidth-delay
  product (SS3.6).
* :mod:`repro.core.job` -- end-to-end jobs: builds a simulated rack,
  wires workers and the switch program together, runs all-reduce, and
  reports TAT / traces / statistics.
* :mod:`repro.core.hierarchy` -- the SS6 rack-switch program; a tree of
  racks runs as a one-spine :class:`repro.net.fabric.FabricJob`.
"""

from repro.core.aggregator_device import AggregatorDeviceConfig, AggregatorDeviceJob
from repro.core.fp16_program import Float16SwitchMLProgram
from repro.core.job import AllReduceResult, SwitchMLConfig, SwitchMLJob
from repro.core.tenancy import AdmissionError, MultiTenantRack, PoolAllocator
from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import (
    LosslessSwitchMLProgram,
    SwitchAction,
    SwitchMLProgram,
)
from repro.core.stream import StreamBufferManager, TensorSlice
from repro.core.tuning import next_power_of_two, optimal_pool_size
from repro.core.worker import SwitchMLWorker, WorkerStats

__all__ = [
    "AdmissionError",
    "AggregatorDeviceConfig",
    "AggregatorDeviceJob",
    "Float16SwitchMLProgram",
    "AllReduceResult",
    "MultiTenantRack",
    "PoolAllocator",
    "LosslessSwitchMLProgram",
    "StreamBufferManager",
    "SwitchAction",
    "SwitchMLConfig",
    "SwitchMLJob",
    "SwitchMLPacket",
    "SwitchMLProgram",
    "SwitchMLWorker",
    "TensorSlice",
    "WorkerStats",
    "next_power_of_two",
    "optimal_pool_size",
]
