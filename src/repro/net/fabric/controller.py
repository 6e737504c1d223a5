"""The fabric controller: discovery, path selection, liveness, reroute.

An SDN-style controller for the 2-tier Clos of
:mod:`repro.net.fabric.topology`.  It owns four concerns:

* **Topology discovery** -- walk the built fabric once and record the
  adjacency (which trunk connects which leaf to which spine, and the
  port each end uses), the view every later decision consults.
* **Path selection** -- ECMP-style: the spine that aggregates a job is
  a deterministic hash of the job id over the currently healthy spines,
  so concurrent jobs spread across the spine tier without coordination.
* **Per-link liveness** -- both ends of every trunk emit
  :class:`~repro.net.fabric.dataplane.LinkHeartbeat` beacons through the
  trunk itself; the far end punts them here.  A periodic sweep marks a
  trunk DOWN once either direction has been silent longer than
  ``link_down_after_s``.  A spine whose every trunk is down is declared
  dead (its CPU stopped beaconing too -- the crash signature).
* **Reroute-on-failure** -- when the aggregation spine becomes
  unhealthy, re-home the job: quiesce the workers, renew the pool lease
  (epoch + 1 -- the same fence that guards single-rack recovery), mount
  the fresh program on a surviving spine, point every leaf's uplink at
  it, and replay from the fleet-wide completed prefix.  In-flight
  pre-failure traffic is epoch-fenced at both tiers, so the re-homed
  aggregation is bit-correct by the same argument as SS3.5.

State machine: ``MONITORING`` -> (active spine unhealthy) ->
``REROUTING`` -> ``MONITORING`` (survivor found) or ``FAILED`` (spine
tier exhausted; the run stops there and reports ``completed=False``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.fabric.dataplane import LinkHeartbeat
from repro.obs.base import NULL_OBS, Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric.job import FabricJob

__all__ = ["FabricController", "FabricState", "LinkLiveness", "RerouteRecord"]

#: Knuth's multiplicative hash constant -- a stable, salt-free spread of
#: job ids over the healthy spines (Python's ``hash`` is salted).
_ECMP_MIX = 2654435761

#: spines whose load sits within this of the minimum count as tied (and
#: fall back to the hash): utilization noise below this is not signal
_LOAD_TIE_EPS = 1e-3


class FabricState(enum.Enum):
    MONITORING = "monitoring"
    REROUTING = "rerouting"
    FAILED = "failed"


@dataclass
class LinkLiveness:
    """Controller-side view of one leaf-spine trunk."""

    leaf: int
    spine: int
    up: bool = True
    #: last beacon heard per direction (True = leaf-to-spine)
    last_heard: dict[bool, float] = field(default_factory=dict)
    down_transitions: int = 0

    def stalest(self) -> float:
        return min(self.last_heard.values())


@dataclass
class RerouteRecord:
    """One re-homing incident, with its phase timeline.

    ``failed_at`` is the last moment the failed path was known-good (the
    stalest beacon on it); ``detected_at`` is when the sweep crossed the
    threshold.  The gap between them -- detection lag -- dominates
    ``recovery_time``, as it does in production fabrics.
    """

    cause: str
    from_spine: int
    to_spine: int | None
    epoch_before: int
    epoch_after: int
    resumed_from_element: int
    failed_at: float
    detected_at: float
    completed_at: float

    @property
    def recovery_time(self) -> float:
        return self.completed_at - self.failed_at

    @property
    def detection_lag(self) -> float:
        return self.detected_at - self.failed_at


class FabricController:
    """Supervises one :class:`~repro.net.fabric.job.FabricJob`'s fabric."""

    def __init__(
        self,
        job: "FabricJob",
        probe_interval_s: float = 2e-4,
        link_down_after_s: float = 1e-3,
        obs: "Observability | None" = None,
    ):
        if probe_interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if link_down_after_s <= probe_interval_s:
            raise ValueError(
                "link_down_after_s must exceed the probe interval, or every "
                "sweep declares every link down"
            )
        self.job = job
        self.sim = job.sim
        self.probe_interval_s = probe_interval_s
        self.link_down_after_s = link_down_after_s
        self.state = FabricState.MONITORING
        self.records: list[RerouteRecord] = []
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_reroutes = metrics.counter(
            "fabric_reroutes_total", "aggregation re-homings to a new spine"
        )
        self._m_link_down = metrics.counter(
            "fabric_link_down_total", "trunk DOWN transitions"
        )
        self._m_link_up = metrics.counter(
            "fabric_link_up_total", "trunk UP transitions (flap healed)"
        )
        self._h_recovery = metrics.histogram(
            "fabric_recovery_seconds",
            "failure (last good beacon) to replay issued, per reroute",
        )
        self._g_active_spine = metrics.gauge(
            "fabric_active_spine", "spine currently homing the aggregation"
        )
        self._m_load_aware = metrics.counter(
            "fabric_load_aware_placements_total",
            "pool placements decided from telemetry trunk loads",
        )
        self._tracer = self.obs.tracer
        # -- topology discovery (the one walk; everything below uses it)
        self.links: dict[tuple[int, int], LinkLiveness] = {}
        self._adjacency: list[dict[str, int | str]] = []
        for leaf, spine, uplink, downlink in job.fabric.trunk_links():
            self.links[(leaf, spine)] = LinkLiveness(leaf=leaf, spine=spine)
            self._adjacency.append(
                {
                    "leaf": leaf,
                    "spine": spine,
                    "leaf_port": job.fabric.leaves[leaf].uplink_port(spine),
                    "spine_port": leaf,
                    "uplink": uplink.name,
                    "downlink": downlink.name,
                }
            )
        self._seq = 0
        self._probe_timer = None
        self._sweep_timer = None

    @property
    def probes_sent(self) -> int:
        """Beacon rounds emitted so far.  Each round put one beacon on
        every trunk uplink, so a trunk's aggregation frames are its
        ``frames_sent`` minus this."""
        return self._seq

    # ------------------------------------------------------------------
    # Discovery & path selection
    # ------------------------------------------------------------------
    def topology_view(self) -> dict:
        """The discovered adjacency, as plain data (CLI/JSON-friendly)."""
        fabric = self.job.fabric
        return {
            "leaves": [leaf.switch.name for leaf in fabric.leaves],
            "spines": [spine.switch.name for spine in fabric.spines],
            "hosts_per_leaf": fabric.spec.hosts_per_leaf,
            "trunks": list(self._adjacency),
        }

    def healthy_spines(self) -> list[int]:
        """Spines with a beaconing CPU and every trunk UP."""
        fabric = self.job.fabric
        out = []
        for spine in fabric.spines:
            s = spine.index
            if not spine.cpu_alive:
                continue
            if all(self.links[(l, s)].up for l in range(len(fabric.leaves))):
                out.append(s)
        return out

    def spine_is_dead(self, spine: int) -> bool:
        """Every trunk down = the crash signature (one flap is not)."""
        return all(
            not self.links[(l, spine)].up
            for l in range(len(self.job.fabric.leaves))
        )

    def select_spine(self, job_id: int, candidates: list[int]) -> int:
        """ECMP-style deterministic choice among ``candidates``."""
        if not candidates:
            raise ValueError("no healthy spine to select")
        return candidates[(job_id * _ECMP_MIX) % len(candidates)]

    def spine_loads(self, window: int | None = None) -> dict[int, float]:
        """Mean trunk utilization per spine index over the telemetry
        load window (empty dict when no telemetry hub is installed)."""
        telemetry = self.obs.telemetry
        if telemetry is None:
            return {}
        collector = telemetry.collector
        if window is None:
            window = telemetry.config.load_window
        end_idx = collector.interval_index(self.sim.now)
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for adj in self._adjacency:
            spine = adj["spine"]
            for key in ("uplink", "downlink"):
                series = collector.links.get(adj[key])
                util = (
                    series.utilization(window, end_idx)
                    if series is not None
                    else 0.0
                )
                sums[spine] = sums.get(spine, 0.0) + util
                counts[spine] = counts.get(spine, 0) + 1
        return {s: sums[s] / counts[s] for s in sums}

    def place_load_aware(
        self,
        job_id: int,
        candidates: list[int] | None = None,
        window: int | None = None,
    ) -> int:
        """Least-loaded-spine placement with an ECMP tie-break.

        Ranks the healthy candidate spines by mean trunk utilization
        over the telemetry load window and homes the pool on the least
        loaded; spines within ``_LOAD_TIE_EPS`` of the minimum are tied
        and resolved by the same deterministic job-id hash as
        :meth:`select_spine`.  Without a telemetry hub (or before any
        traffic), every load reads zero, all candidates tie, and the
        choice degrades to exactly the hash-ECMP placement."""
        if candidates is None:
            candidates = self.healthy_spines()
        if not candidates:
            raise ValueError("no healthy spine to select")
        loads = self.spine_loads(window)
        if not loads:
            return self.select_spine(job_id, candidates)
        ranked = {s: loads.get(s, 0.0) for s in candidates}
        floor = min(ranked.values())
        tied = [s for s in candidates if ranked[s] <= floor + _LOAD_TIE_EPS]
        choice = tied[(job_id * _ECMP_MIX) % len(tied)]
        self._m_load_aware.inc()
        self._tracer.emit(
            "fabric.place_load_aware", ts=self.sim.now, cat="fabric",
            spine=choice,
            loads={f"spine{s}": round(l, 4) for s, l in ranked.items()},
        )
        return choice

    # ------------------------------------------------------------------
    # Liveness: beacons out, punts in, sweep
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin beaconing and sweeping (idempotent)."""
        self.stop()
        now = self.sim.now
        for link in self.links.values():
            link.last_heard = {True: now, False: now}
        self._g_active_spine.set(self.job.active_spine)
        self._probe_timer = self.sim.schedule(
            self.probe_interval_s, self._probe_tick
        )
        self._sweep_timer = self.sim.schedule(
            self.link_down_after_s, self._sweep
        )

    def stop(self) -> None:
        for attr in ("_probe_timer", "_sweep_timer"):
            timer = getattr(self, attr)
            if timer is not None:
                timer.cancel()
                setattr(self, attr, None)

    def _probe_tick(self) -> None:
        fabric = self.job.fabric
        self._seq += 1
        for leaf, spine, uplink, downlink in fabric.trunk_links():
            leaf_name = fabric.leaves[leaf].switch.name
            spine_name = fabric.spines[spine].switch.name
            # leaf CPU -> spine (leaves do not crash in this model)
            uplink.send(
                LinkHeartbeat(leaf, spine, True, self._seq).to_frame(
                    leaf_name, spine_name
                )
            )
            # spine CPU -> leaf, only while that CPU is alive
            if fabric.spines[spine].cpu_alive:
                downlink.send(
                    LinkHeartbeat(leaf, spine, False, self._seq).to_frame(
                        spine_name, leaf_name
                    )
                )
        self._probe_timer = self.sim.schedule(
            self.probe_interval_s, self._probe_tick
        )

    def on_heartbeat(self, beat: LinkHeartbeat) -> None:
        """Punt path from the leaf/spine dataplanes."""
        link = self.links.get((beat.leaf, beat.spine))
        if link is None:
            return
        link.last_heard[beat.toward_spine] = self.sim.now

    def _sweep(self) -> None:
        now = self.sim.now
        for link in self.links.values():
            silent = now - link.stalest()
            if link.up and silent > self.link_down_after_s:
                link.up = False
                link.down_transitions += 1
                self._m_link_down.inc()
                self._tracer.emit(
                    "fabric.link_down", ts=now, cat="fabric",
                    leaf=link.leaf, spine=link.spine,
                )
            elif not link.up and silent <= self.link_down_after_s:
                link.up = True
                self._m_link_up.inc()
                self._tracer.emit(
                    "fabric.link_up", ts=now, cat="fabric",
                    leaf=link.leaf, spine=link.spine,
                )
        if self.state is not FabricState.FAILED:
            active = self.job.active_spine
            bad = [
                link for link in self.links.values()
                if link.spine == active and not link.up
            ]
            if bad or not self.job.fabric.spines[active].cpu_alive:
                self._reroute(bad)
        self._sweep_timer = self.sim.schedule(
            self.probe_interval_s, self._sweep
        )

    # ------------------------------------------------------------------
    # Reroute
    # ------------------------------------------------------------------
    def _reroute(self, bad_links: list[LinkLiveness]) -> None:
        """Re-home the aggregation off the failed active spine."""
        job = self.job
        now = self.sim.now
        old = job.active_spine
        cause = (
            "spine-dead" if self.spine_is_dead(old) or
            not job.fabric.spines[old].cpu_alive
            else "trunk-down"
        )
        failed_at = min(
            (l.stalest() for l in bad_links),
            default=now - self.link_down_after_s,
        )
        self.state = FabricState.REROUTING
        self._tracer.emit(
            "fabric.reroute_start", ts=now, cat="fabric",
            from_spine=old, cause=cause,
        )
        job.quiesce_all()
        candidates = [s for s in self.healthy_spines() if s != old]
        epoch_before = job.epoch
        if not candidates:
            self.state = FabricState.FAILED
            self.records.append(
                RerouteRecord(
                    cause=cause, from_spine=old, to_spine=None,
                    epoch_before=epoch_before, epoch_after=epoch_before,
                    resumed_from_element=0,
                    failed_at=failed_at, detected_at=now, completed_at=now,
                )
            )
            self._tracer.emit(
                "fabric.failed", ts=now, cat="fabric", from_spine=old
            )
            # Nothing can complete any more: end the run here instead of
            # beaconing out the rest of the deadline.
            self.sim.stop()
            return
        # load-aware when a telemetry hub is live (break the ECMP tie
        # toward the least-loaded survivor); pure hash-ECMP otherwise
        new = self.place_load_aware(job.job_id, candidates)
        job.rehome(new)
        resumed = job.replay_from_prefix()
        self._g_active_spine.set(new)
        self._m_reroutes.inc()
        record = RerouteRecord(
            cause=cause, from_spine=old, to_spine=new,
            epoch_before=epoch_before, epoch_after=job.epoch,
            resumed_from_element=resumed,
            failed_at=failed_at, detected_at=now, completed_at=self.sim.now,
        )
        self.records.append(record)
        self._h_recovery.observe(record.recovery_time)
        self._tracer.emit(
            "fabric.reroute_done", ts=self.sim.now, cat="fabric",
            to_spine=new, epoch=job.epoch, resumed_from=resumed,
        )
        self.state = FabricState.MONITORING

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One text block: state, links, and reroute history."""
        lines = [f"fabric controller: state={self.state.value}"]
        down = [l for l in self.links.values() if not l.up]
        lines.append(
            f"trunks: {len(self.links) - len(down)}/{len(self.links)} up"
            + (f" (down: {[(l.leaf, l.spine) for l in down]})" if down else "")
        )
        if not self.records:
            lines.append("reroutes: none")
        for r in self.records:
            dest = f"spine{r.to_spine}" if r.to_spine is not None else "NONE"
            lines.append(
                f"reroute [{r.cause}] spine{r.from_spine} -> {dest}: "
                f"epoch {r.epoch_before} -> {r.epoch_after}, resumed from "
                f"element {r.resumed_from_element}, recovery "
                f"{r.recovery_time * 1e3:.3f} ms "
                f"(detection {r.detection_lag * 1e3:.3f} ms)"
            )
        return "\n".join(lines)
