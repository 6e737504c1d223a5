"""repro.net.fabric: multi-switch Clos fabrics with a fabric controller.

The scale-out layer beyond a single rack: a generated 2-tier
spine-leaf fabric (with one spine, the SS6 tree of racks), two-tier
in-network aggregation with per-switch slot pools, and an SDN-style
controller doing discovery, ECMP-style placement, per-trunk liveness,
and reroute-on-failure through the pool-epoch fence.

* :mod:`repro.net.fabric.topology`   -- :func:`build_fabric` and the specs
* :mod:`repro.net.fabric.dataplane`  -- leaf/spine chassis programs
* :mod:`repro.net.fabric.controller` -- the fabric controller
* :mod:`repro.net.fabric.job`        -- :class:`FabricJob`, the runnable
* :mod:`repro.net.fabric.faults`     -- cross-rack FaultPlans
"""

from repro.net.fabric.controller import (
    FabricController,
    FabricState,
    LinkLiveness,
    RerouteRecord,
)
from repro.net.fabric.dataplane import LeafDataplane, LinkHeartbeat, SpineDataplane
from repro.net.fabric.faults import (
    CongestTrunk,
    CrashSpine,
    FabricFaultInjector,
    FabricFaultPlan,
    FlapFabricLink,
    StragglerRack,
)
from repro.net.fabric.job import (
    FabricConfig,
    FabricJob,
    FabricRunResult,
    collect_fabric_telemetry,
    fabric_summary,
)
from repro.net.fabric.topology import (
    ClosFabric,
    FabricLeaf,
    FabricSpec,
    FabricSpine,
    build_fabric,
)

__all__ = [
    "ClosFabric",
    "CongestTrunk",
    "CrashSpine",
    "FabricConfig",
    "FabricController",
    "FabricFaultInjector",
    "FabricFaultPlan",
    "FabricJob",
    "FabricLeaf",
    "FabricRunResult",
    "FabricSpec",
    "FabricSpine",
    "FabricState",
    "FlapFabricLink",
    "LeafDataplane",
    "LinkHeartbeat",
    "LinkLiveness",
    "RerouteRecord",
    "SpineDataplane",
    "StragglerRack",
    "build_fabric",
    "collect_fabric_telemetry",
    "fabric_summary",
]
