"""repro: a full reproduction of SwitchML (NSDI 2021).

SwitchML accelerates data-parallel distributed training by aggregating
quantized model updates inside a programmable switch.  This package
reimplements the whole system -- switch dataplane, worker protocol,
quantization, baselines, ML substrate, and the paper's evaluation -- on a
deterministic packet-level simulator.  See DESIGN.md for the inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quick start
-----------
>>> import numpy as np
>>> from repro import SwitchMLJob, SwitchMLConfig
>>> job = SwitchMLJob(SwitchMLConfig(num_workers=4, pool_size=16))
>>> tensors = [np.full(256, w, dtype=np.int64) for w in range(4)]
>>> out = job.all_reduce(tensors)
>>> bool((out.results[0] == 0 + 1 + 2 + 3).all())
True
"""

from repro.api import FloatAllReduceResult, allreduce_float
from repro.core import (
    AllReduceResult,
    MultiTenantRack,
    PoolAllocator,
    LosslessSwitchMLProgram,
    StreamBufferManager,
    SwitchMLConfig,
    SwitchMLJob,
    SwitchMLPacket,
    SwitchMLProgram,
    SwitchMLWorker,
    optimal_pool_size,
)
from repro.net import HostSpec, LinkSpec

__version__ = "1.0.0"

__all__ = [
    "AllReduceResult",
    "FloatAllReduceResult",
    "MultiTenantRack",
    "PoolAllocator",
    "allreduce_float",
    "HostSpec",
    "LinkSpec",
    "LosslessSwitchMLProgram",
    "StreamBufferManager",
    "SwitchMLConfig",
    "SwitchMLJob",
    "SwitchMLPacket",
    "SwitchMLProgram",
    "SwitchMLWorker",
    "__version__",
    "optimal_pool_size",
]
