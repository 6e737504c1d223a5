"""In-band network telemetry: per-hop frame stamping, interval series,
and congestion/straggler/hot-spine detection.

The paper's evaluation reasons from inside the network -- SS5.1's
wire-vs-host diagnosis, Figure 6's resend timeline -- and the load-aware
fabric placement on the ROADMAP needs a switch-resident load signal.
This module is that substrate, modelled on INT (in-band network
telemetry):

* **Stamping.**  When a :class:`Telemetry` hub is installed, every link
  tap records each send device-side as the frame is serialized (enqueue
  backlog in bytes and frames, queueing delay) and appends an in-band
  stamp -- the interval bucket it was sent in and the hop's full
  latency -- to the flat tuple ``frame.hops``; every switch pipeline
  tap does the same with the loaded program's slot-pool occupancy and
  pool epoch.  A stamp is bound to its series (and interval) when it is
  made: draining needs no name lookup and no re-bucketing.
* **Draining.**  Frames terminate either at a host (results reaching a
  worker) or inside a switch (absorbed by aggregation, punted, fenced).
  Both sinks file the frame's stamps into fixed-interval ring-buffer
  series on the *simulated* clock.  A frame lost on the wire takes its
  stamps with it -- in-band telemetry is lossy by construction -- so
  the per-link send/drop/loss counters are recorded device-side at the
  transmitter (INT "postcards"), while hop latencies and switch
  occupancy travel in-band.
* **Overflow.**  A series keeps ``TelemetryConfig.capacity`` interval
  buckets.  A stamp whose bucket was evicted before its frame drained
  counts in the series' ``late_drops`` (reported by
  :meth:`Telemetry.summary` and ``telemetry_json``); it is never filed
  under a newer interval.
* **Detecting.**  On top of the series sit three detectors:
  sustained congestion (per-interval peak queueing delay over a
  threshold for N consecutive intervals), straggler workers
  (completion-lag z-score over per-sink result counts), and hot spines
  (trunk utilization far above the other spines').  Their reports feed
  ``FabricController.place_load_aware()``.

Stamping is **off by default** and near-free when disabled: the hot
paths test one attribute against ``None`` (benchmarked in
``benchmarks/test_obs_overhead.py``).  Opt in per run::

    obs = Observability(telemetry=True)      # or telemetry=TelemetryConfig(...)
    job = FabricJob(FabricConfig(obs=obs))
    job.all_reduce(num_elements=32 * 1024)
    print(obs.telemetry.summary())
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Frame

__all__ = [
    "CongestionReport",
    "HotSpineReport",
    "LinkSeries",
    "StragglerReport",
    "SwitchSeries",
    "Telemetry",
    "TelemetryCollector",
    "TelemetryConfig",
    "detect_congestion",
    "detect_hot_spines",
    "detect_stragglers",
]


@dataclass
class TelemetryConfig:
    """Interval geometry and detector thresholds.

    Defaults suit the 10 Gbps rack: a 180 B frame serializes in 144 ns,
    so 10 us of queueing delay is a ~70-frame standing queue -- well
    past the transient the start-of-run burst creates, which drains
    within one 50 us interval and is excluded by the
    ``congestion_min_intervals`` persistence requirement.
    """

    #: width of one time-series bucket on the simulated clock
    interval_s: float = 50e-6
    #: ring capacity per series (oldest buckets evicted beyond this)
    capacity: int = 2048
    #: per-interval peak queueing delay that counts as congested
    congestion_queue_delay_s: float = 10e-6
    #: consecutive congested intervals before the detector fires
    congestion_min_intervals: int = 5
    #: completion-lag z-score that marks a worker as a straggler
    straggler_z: float = 2.0
    #: a spine is hot when its trunk load exceeds the other spines'
    #: mean by this factor (and clears ``hot_spine_min_utilization``)
    hot_spine_ratio: float = 1.5
    hot_spine_min_utilization: float = 0.05
    #: intervals of history the load queries look back over
    load_window: int = 20

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        if self.congestion_min_intervals < 1:
            raise ValueError("congestion_min_intervals must be positive")
        if self.load_window < 1:
            raise ValueError("load_window must be positive")


class _Bucket:
    """One interval's aggregate for a link series."""

    __slots__ = (
        "idx", "bytes_sent", "frames", "queue_drops", "losses",
        "queue_delay_max", "queue_delay_sum", "backlog_bytes_max",
        "backlog_frames_max", "latency_max", "latency_sum", "latency_n",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.bytes_sent = 0
        self.frames = 0
        self.queue_drops = 0
        self.losses = 0
        self.queue_delay_max = 0.0
        self.queue_delay_sum = 0.0
        self.backlog_bytes_max = 0.0
        self.backlog_frames_max = 0
        self.latency_max = 0.0
        self.latency_sum = 0.0
        self.latency_n = 0


class _SwitchBucket:
    """One interval's aggregate for a switch series."""

    __slots__ = ("idx", "occ_max", "occ_sum", "samples", "epoch_max")

    def __init__(self, idx: int):
        self.idx = idx
        self.occ_max = 0
        self.occ_sum = 0
        self.samples = 0
        self.epoch_max = 0


class _RingSeries:
    """Shared bucket bookkeeping: sparse dict of interval buckets with
    capacity eviction.  Buckets exist only for intervals that saw
    samples; a missing bucket is an idle interval.  Records older than
    the eviction horizon (a reused frame finally delivered long after
    its stamp) are counted in ``late_drops``, never mis-filed.

    Device-side records arrive in near-monotone time, so the series
    keeps a *cursor* on the current bucket: the bucket lookup happens
    once per interval, not once per record."""

    _factory: type

    def __init__(self, name: str, interval_s: float, capacity: int):
        self.name = name
        self.interval_s = interval_s
        self.capacity = capacity
        self._buckets: dict[int, Any] = {}
        self._evict_horizon = -1
        self.late_drops = 0
        self._cur: Any = None
        self._cur_idx = -1

    def _at(self, idx: int):
        """The bucket of interval ``idx`` (created on first use), or
        None -- counted in ``late_drops`` -- behind the eviction horizon."""
        if idx <= self._evict_horizon:
            self.late_drops += 1
            return None
        b = self._buckets.get(idx)
        if b is None:
            self._buckets[idx] = b = self._factory(idx)
            while len(self._buckets) > self.capacity:
                oldest = min(self._buckets)
                del self._buckets[oldest]
                if oldest > self._evict_horizon:
                    self._evict_horizon = oldest
                if oldest == self._cur_idx:
                    self._cur_idx = -1
            if idx <= self._evict_horizon:
                # older than everything a full series holds: evicted as
                # it was opened
                self.late_drops += 1
                return None
        return b

    def _seek(self, idx: int):
        """``_at(idx)``, moving the cursor to the bucket."""
        b = self._at(idx)
        if b is not None:
            self._cur = b
            self._cur_idx = idx
        return b

    def intervals(self) -> list:
        """Buckets in interval order (sparse: idle intervals absent)."""
        return [self._buckets[i] for i in sorted(self._buckets)]

    def __len__(self) -> int:
        return len(self._buckets)

    @property
    def last_index(self) -> int:
        return max(self._buckets) if self._buckets else -1


class LinkSeries(_RingSeries):
    """Fixed-interval time series for one link.

    Send/drop/loss counters arrive device-side from the transmitter's
    tap; hop latencies arrive in-band when a sink drains the frame."""

    _factory = _Bucket

    def __init__(self, name: str, rate_bps: float, interval_s: float,
                 capacity: int):
        super().__init__(name, interval_s, capacity)
        self.rate_bps = rate_bps

    # -- device-side recording -----------------------------------------
    def record_send(self, ts: float, wire_bytes: int, queue_delay_s: float,
                    backlog_bytes: float, backlog_frames: int):
        """File one transmitted frame; returns its bucket (None when
        ``ts`` is behind the eviction horizon) for the in-band stamp."""
        idx = int(ts / self.interval_s)
        b = self._cur if idx == self._cur_idx else self._seek(idx)
        if b is None:
            return None
        b.bytes_sent += wire_bytes
        b.frames += 1
        b.queue_delay_sum += queue_delay_s
        if queue_delay_s > b.queue_delay_max:
            b.queue_delay_max = queue_delay_s
        if backlog_bytes > b.backlog_bytes_max:
            b.backlog_bytes_max = backlog_bytes
        if backlog_frames > b.backlog_frames_max:
            b.backlog_frames_max = backlog_frames
        return b

    def record_drop(self, ts: float, lost: bool) -> None:
        idx = int(ts / self.interval_s)
        b = self._cur if idx == self._cur_idx else self._seek(idx)
        if b is None:
            return
        if lost:
            b.losses += 1
        else:
            b.queue_drops += 1

    # -- in-band recording ---------------------------------------------
    def file(self, stamp: tuple) -> None:
        """File one drained ``(bucket, hop latency)`` stamp."""
        b, latency = stamp
        if b is None or b.idx <= self._evict_horizon:
            self.late_drops += 1
            return
        b.latency_sum += latency
        b.latency_n += 1
        if latency > b.latency_max:
            b.latency_max = latency

    # -- queries ---------------------------------------------------------
    def utilization(self, window: int | None = None,
                    end_idx: int | None = None) -> float:
        """Mean utilization over the trailing ``window`` intervals
        (idle intervals count as zero; the whole series when None)."""
        if not self._buckets:
            return 0.0
        if end_idx is None:
            end_idx = self.last_index
        if window is None:
            lo = min(self._buckets)
            window = end_idx - lo + 1
        else:
            lo = end_idx - window + 1
        if window <= 0:
            return 0.0
        total = sum(b.bytes_sent for i, b in self._buckets.items()
                    if lo <= i <= end_idx)
        return min(1.0, total * 8.0 / (self.rate_bps * window * self.interval_s))

    def queue_delay_quantile(self, q: float) -> float:
        """Quantile over the per-interval *peak* queueing delays."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        peaks = sorted(b.queue_delay_max for b in self._buckets.values())
        if not peaks:
            return float("nan")
        return peaks[min(len(peaks) - 1, int(q * len(peaks)))]

    def drop_rate(self) -> float:
        """Drops + losses over frames offered, across stored intervals."""
        frames = drops = 0
        for b in self._buckets.values():
            frames += b.frames
            drops += b.queue_drops + b.losses
        offered = frames + drops
        return drops / offered if offered else 0.0

    def peak_queue_delay(self) -> float:
        return max((b.queue_delay_max for b in self._buckets.values()),
                   default=0.0)

    def peak_backlog_bytes(self) -> float:
        return max((b.backlog_bytes_max for b in self._buckets.values()),
                   default=0.0)


class SwitchSeries(_RingSeries):
    """Fixed-interval pool-occupancy series for one switch (fed from
    drained in-band records)."""

    _factory = _SwitchBucket

    def record_occupancy(self, ts: float, occupancy: int, epoch: int) -> None:
        self.file((int(ts / self.interval_s), occupancy, epoch))

    def file(self, stamp: tuple) -> None:
        """File one drained ``(interval index, occupancy, epoch)`` stamp;
        the bucket is created now, so an interval whose frames were all
        lost downstream stays idle."""
        idx, occupancy, epoch = stamp
        b = self._cur if idx == self._cur_idx else self._seek(idx)
        if b is None:
            return
        b.samples += 1
        b.occ_sum += occupancy
        if occupancy > b.occ_max:
            b.occ_max = occupancy
        if epoch > b.epoch_max:
            b.epoch_max = epoch

    def peak_occupancy(self) -> int:
        return max((b.occ_max for b in self._buckets.values()), default=0)

    def mean_occupancy(self) -> float:
        n = sum(b.samples for b in self._buckets.values())
        if not n:
            return 0.0
        return sum(b.occ_sum for b in self._buckets.values()) / n

    def last_epoch(self) -> int:
        if not self._buckets:
            return 0
        return self._buckets[self.last_index].epoch_max


class TelemetryCollector:
    """The sink side: drains stamped frames into the series.

    One collector serves every sink of a topology (hosts and switch
    pipelines); ``drain`` files the ``(series, stamp)`` pairs on
    ``frame.hops`` and resets the field so pooled frames can be
    re-stamped on their next trip."""

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config if config is not None else TelemetryConfig()
        self.links: dict[str, LinkSeries] = {}
        self.switches: dict[str, SwitchSeries] = {}
        #: sink host name -> result frames drained (completion progress)
        self.progress: dict[str, int] = {}
        self.progress_last_ts: dict[str, float] = {}
        self.frames_drained = 0
        self.hops_drained = 0

    def interval_index(self, ts: float) -> int:
        return int(ts / self.config.interval_s)

    def link_series(self, name: str, rate_bps: float) -> LinkSeries:
        s = self.links.get(name)
        if s is None:
            cfg = self.config
            self.links[name] = s = LinkSeries(
                name, rate_bps, cfg.interval_s, cfg.capacity
            )
        return s

    def switch_series(self, name: str) -> SwitchSeries:
        s = self.switches.get(name)
        if s is None:
            cfg = self.config
            self.switches[name] = s = SwitchSeries(
                name, cfg.interval_s, cfg.capacity
            )
        return s

    def drain(self, frame: "Frame", now: float, sink: str | None = None) -> None:
        """File ``frame``'s hop stamps; called once per terminating frame."""
        hops = frame.hops
        if hops is None:
            return
        frame.hops = None
        self.frames_drained += 1
        self.hops_drained += len(hops) >> 1
        for i in range(0, len(hops), 2):
            hops[i].file(hops[i + 1])
        if sink is not None and getattr(frame.message, "from_switch", False):
            self.progress[sink] = self.progress.get(sink, 0) + 1
            self.progress_last_ts[sink] = now


class LinkTap:
    """Transmitter-side stamper installed as ``Link.telemetry``.

    Keeps a departure-time deque so the enqueue stamp can report the
    backlog in *frames* as well as bytes (the link itself only tracks
    ``busy_until``); only frames that clear the loss draw are stamped --
    the bits of a lost frame never arrive anywhere that could drain
    them."""

    __slots__ = ("series", "_departures")

    def __init__(self, series: LinkSeries):
        self.series = series
        self._departures: deque[float] = deque()

    def on_transmit(self, frame: "Frame", now: float, wire_bytes: int,
                    done: float, arrival: float) -> None:
        dep = self._departures
        while dep and dep[0] <= now:
            dep.popleft()
        backlog_frames = len(dep)
        dep.append(done)
        series = self.series
        queue_delay = done - now - wire_bytes * 8.0 / series.rate_bps
        if queue_delay < 0.0:
            queue_delay = 0.0
        backlog_bytes = queue_delay * series.rate_bps / 8.0
        stamp = (
            series.record_send(
                now, wire_bytes, queue_delay, backlog_bytes, backlog_frames
            ),
            arrival - now,
        )
        hops = frame.hops
        frame.hops = (series, stamp) if hops is None else hops + (series, stamp)

    def on_drop(self, now: float, lost: bool) -> None:
        self.series.record_drop(now, lost)


class ChassisTap:
    """Pipeline-side stamper installed as ``SwitchChassis.telemetry``.

    ``observe`` reads the clock and the loaded program's pool occupancy
    and epoch (dataplane adapters are unwrapped one level, so a
    reroute's program swap is picked up without re-instrumenting) once
    per pipeline pass, before the program runs.  A frame of that pass
    either terminated here -- ``absorb`` files the observation and
    drains what the frame carried (aggregated partials, punted
    heartbeats, fence drops) -- or was forwarded as-is, and ``stamp``
    sends the observation on in-band."""

    __slots__ = ("chassis", "collector", "series", "_seen")

    def __init__(self, chassis, collector: TelemetryCollector):
        self.chassis = chassis
        self.collector = collector
        self.series = collector.switch_series(chassis.name)
        #: the current pass's (interval index, occupancy, epoch) stamp
        self._seen = (0, 0, 0)

    def observe(self) -> None:
        chassis = self.chassis
        prog = chassis.program
        inner = getattr(prog, "program", None)
        if inner is not None:
            prog = inner
        self._seen = (
            int(chassis.sim.now / self.series.interval_s),
            getattr(prog, "occupied_slots", 0) or 0,
            getattr(prog, "epoch", 0) or 0,
        )

    def stamp(self, frame: "Frame") -> None:
        hops = frame.hops
        here = (self.series, self._seen)
        frame.hops = here if hops is None else hops + here

    def absorb(self, frame: "Frame") -> None:
        collector = self.collector
        hops = frame.hops
        frame.hops = None
        collector.frames_drained += 1
        collector.hops_drained += 1
        self.series.file(self._seen)
        if hops is not None:
            collector.hops_drained += len(hops) >> 1
            for i in range(0, len(hops), 2):
                hops[i].file(hops[i + 1])


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CongestionReport:
    """One sustained-congestion incident on one link."""

    link: str
    intervals: int
    start_s: float
    end_s: float
    peak_queue_delay_s: float
    peak_backlog_bytes: float


@dataclass(frozen=True)
class StragglerReport:
    """One worker whose completion progress lags the fleet."""

    worker: str
    results: int
    fleet_mean: float
    z_score: float


@dataclass(frozen=True)
class HotSpineReport:
    """One spine whose trunk load dwarfs its peers'."""

    spine: str
    utilization: float
    peers_mean: float
    ratio: float


def detect_congestion(
    collector: TelemetryCollector, config: TelemetryConfig | None = None
) -> list[CongestionReport]:
    """Links whose per-interval peak queueing delay stayed over the
    threshold for at least ``congestion_min_intervals`` *consecutive*
    intervals (an idle or below-threshold interval breaks the run)."""
    cfg = config if config is not None else collector.config
    threshold = cfg.congestion_queue_delay_s
    need = cfg.congestion_min_intervals
    out: list[CongestionReport] = []
    for name, series in sorted(collector.links.items()):
        best: tuple[int, int] | None = None  # (length, start idx)
        run_start = run_len = 0
        prev_idx: int | None = None
        for b in series.intervals():
            if b.queue_delay_max >= threshold:
                if run_len and prev_idx == b.idx - 1:
                    run_len += 1
                else:
                    run_start, run_len = b.idx, 1
                if best is None or run_len > best[0]:
                    best = (run_len, run_start)
            else:
                run_len = 0
            prev_idx = b.idx
        if best is not None and best[0] >= need:
            length, start = best
            out.append(CongestionReport(
                link=name,
                intervals=length,
                start_s=start * series.interval_s,
                end_s=(start + length) * series.interval_s,
                peak_queue_delay_s=series.peak_queue_delay(),
                peak_backlog_bytes=series.peak_backlog_bytes(),
            ))
    out.sort(key=lambda r: -r.peak_queue_delay_s)
    return out


def detect_stragglers(
    collector: TelemetryCollector, config: TelemetryConfig | None = None
) -> list[StragglerReport]:
    """Workers whose drained-result count sits ``straggler_z`` standard
    deviations below the fleet mean (needs >= 3 reporting sinks)."""
    cfg = config if config is not None else collector.config
    progress = collector.progress
    if len(progress) < 3:
        return []
    counts = list(progress.values())
    n = len(counts)
    mean = sum(counts) / n
    var = sum((c - mean) ** 2 for c in counts) / n
    if var <= 0.0:
        return []
    std = var ** 0.5
    out = [
        StragglerReport(worker=w, results=c, fleet_mean=mean,
                        z_score=(mean - c) / std)
        for w, c in sorted(progress.items())
        if c < mean and (mean - c) / std >= cfg.straggler_z
    ]
    out.sort(key=lambda r: -r.z_score)
    return out


def _spine_loads(
    collector: TelemetryCollector, spine_trunks: dict[str, list[str]],
    window: int, end_idx: int | None,
) -> dict[str, float]:
    """Mean trunk utilization per spine over the trailing ``window``."""
    loads: dict[str, float] = {}
    for spine, trunks in spine_trunks.items():
        series = [collector.links[t] for t in trunks if t in collector.links]
        loads[spine] = (
            sum(s.utilization(window, end_idx) for s in series) / len(series)
            if series else 0.0
        )
    return loads


def detect_hot_spines(
    collector: TelemetryCollector,
    spine_trunks: dict[str, list[str]],
    config: TelemetryConfig | None = None,
    end_idx: int | None = None,
) -> list[HotSpineReport]:
    """Spines whose mean trunk utilization over the load window exceeds
    the other spines' mean by ``hot_spine_ratio``.

    ``spine_trunks`` maps each spine name to its trunk link names (both
    directions); :class:`Telemetry` records it at instrument time."""
    cfg = config if config is not None else collector.config
    loads = _spine_loads(collector, spine_trunks, cfg.load_window, end_idx)
    out: list[HotSpineReport] = []
    for spine, load in sorted(loads.items()):
        peers = [v for k, v in loads.items() if k != spine]
        if not peers or load < cfg.hot_spine_min_utilization:
            continue
        peers_mean = sum(peers) / len(peers)
        ratio = load / peers_mean if peers_mean > 0 else float("inf")
        if ratio >= cfg.hot_spine_ratio:
            out.append(HotSpineReport(
                spine=spine, utilization=load,
                peers_mean=peers_mean, ratio=ratio,
            ))
    out.sort(key=lambda r: -r.utilization)
    return out


# ----------------------------------------------------------------------
# The hub
# ----------------------------------------------------------------------
class Telemetry:
    """One run's telemetry: config + collector + instrumented devices.

    Construct one (usually via ``Observability(telemetry=True)``), let
    the job wire it through ``instrument_rack`` / ``instrument_fabric``,
    run, then query the collector, the detectors, or :meth:`summary`."""

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config if config is not None else TelemetryConfig()
        self.collector = TelemetryCollector(self.config)
        #: spine switch name -> trunk link names (set by instrument_fabric)
        self.spine_trunks: dict[str, list[str]] = {}
        self.instrumented_links = 0
        self.instrumented_switches = 0
        self.instrumented_hosts = 0

    # -- wiring ----------------------------------------------------------
    def instrument_link(self, link) -> None:
        if link.telemetry is None:
            series = self.collector.link_series(link.name, link.spec.rate_bps)
            link.telemetry = LinkTap(series)
            self.instrumented_links += 1

    def instrument_chassis(self, chassis) -> None:
        if chassis.telemetry is None:
            chassis.telemetry = ChassisTap(chassis, self.collector)
            self.instrumented_switches += 1

    def instrument_host(self, host) -> None:
        if host.telemetry is None:
            host.telemetry = self.collector
            self.instrumented_hosts += 1

    def instrument_rack(self, rack) -> None:
        """Wire a single-rack topology (``repro.net.topology.Rack``)."""
        for link in list(rack.uplinks) + list(rack.downlinks):
            self.instrument_link(link)
        self.instrument_chassis(rack.switch)
        for host in rack.hosts:
            self.instrument_host(host)

    def instrument_fabric(self, fabric) -> None:
        """Wire a whole Clos (``repro.net.fabric.topology.ClosFabric``),
        recording the spine -> trunk map the hot-spine detector and
        load-aware placement consult."""
        for link in fabric.all_links():
            self.instrument_link(link)
        for leaf in fabric.leaves:
            self.instrument_chassis(leaf.switch)
            for host in leaf.hosts:
                self.instrument_host(host)
        for spine in fabric.spines:
            self.instrument_chassis(spine.switch)
            trunks = self.spine_trunks.setdefault(spine.switch.name, [])
            for leaf in fabric.leaves:
                up = leaf.uplinks[spine.index]
                down = leaf.downlinks[spine.index]
                for name in (up.name, down.name):
                    if name not in trunks:
                        trunks.append(name)

    # -- detector façade -------------------------------------------------
    def congestion_reports(self) -> list[CongestionReport]:
        return detect_congestion(self.collector, self.config)

    def straggler_reports(self) -> list[StragglerReport]:
        return detect_stragglers(self.collector, self.config)

    def hot_spine_reports(self, end_idx: int | None = None) -> list[HotSpineReport]:
        return detect_hot_spines(
            self.collector, self.spine_trunks, self.config, end_idx
        )

    def spine_loads(self, end_idx: int | None = None) -> dict[str, float]:
        """Mean trunk utilization per spine over the load window."""
        return _spine_loads(
            self.collector, self.spine_trunks, self.config.load_window, end_idx
        )

    # -- reporting -------------------------------------------------------
    def late_drops(self) -> dict[str, int]:
        """Records and stamps per series that arrived behind the
        eviction horizon; series that lost none are absent."""
        col = self.collector
        return {
            name: s.late_drops
            for name, s in sorted({**col.links, **col.switches}.items())
            if s.late_drops
        }

    def as_dict(self) -> dict:
        """JSON-friendly snapshot: series summaries + detector reports."""
        col = self.collector
        return {
            "config": {
                "interval_s": self.config.interval_s,
                "congestion_queue_delay_s": self.config.congestion_queue_delay_s,
                "congestion_min_intervals": self.config.congestion_min_intervals,
                "straggler_z": self.config.straggler_z,
                "hot_spine_ratio": self.config.hot_spine_ratio,
                "load_window": self.config.load_window,
            },
            "frames_drained": col.frames_drained,
            "hops_drained": col.hops_drained,
            "late_drops": sum(self.late_drops().values()),
            "links": {
                name: {
                    "intervals": len(s),
                    "utilization": s.utilization(),
                    "queue_delay_p50_s": s.queue_delay_quantile(0.5),
                    "queue_delay_p99_s": s.queue_delay_quantile(0.99),
                    "peak_queue_delay_s": s.peak_queue_delay(),
                    "peak_backlog_bytes": s.peak_backlog_bytes(),
                    "drop_rate": s.drop_rate(),
                    "late_drops": s.late_drops,
                }
                for name, s in sorted(col.links.items())
                if len(s)
            },
            "switches": {
                name: {
                    "intervals": len(s),
                    "peak_occupancy": s.peak_occupancy(),
                    "mean_occupancy": s.mean_occupancy(),
                    "epoch": s.last_epoch(),
                    "late_drops": s.late_drops,
                }
                for name, s in sorted(col.switches.items())
                if len(s)
            },
            "workers": dict(sorted(col.progress.items())),
            "detectors": {
                "congestion": [vars(r) for r in self.congestion_reports()],
                "stragglers": [vars(r) for r in self.straggler_reports()],
                "hot_spines": [vars(r) for r in self.hot_spine_reports()],
            },
        }

    def summary(self, link_limit: int | None = 8) -> str:
        """Text report: busiest links, switch pools, detector verdicts."""
        from repro.harness.report import format_table

        col = self.collector
        active = [s for s in col.links.values() if len(s)]
        ranked = sorted(active, key=lambda s: -s.utilization())
        shown = ranked if link_limit is None else ranked[:link_limit]
        rows = [
            [
                s.name,
                f"{s.utilization():.1%}",
                f"{s.queue_delay_quantile(0.99) * 1e6:.1f}us",
                f"{s.peak_backlog_bytes() / 1024:.1f}KiB",
                f"{s.drop_rate():.2%}",
            ]
            for s in shown
        ]
        lines = [format_table(
            ["link", "util", "p99 qdelay", "peak backlog", "drops"],
            rows,
            title=(
                f"in-band telemetry: {len(active)} link series at "
                f"{self.config.interval_s * 1e6:.0f}us intervals, "
                f"{col.frames_drained} frames drained"
            ),
        )]
        if link_limit is not None and len(ranked) > len(shown):
            lines.append(f"... and {len(ranked) - len(shown)} more links")
        pools = [
            f"{name}: peak={s.peak_occupancy()} "
            f"mean={s.mean_occupancy():.1f} epoch={s.last_epoch()}"
            for name, s in sorted(col.switches.items())
            if len(s) and s.peak_occupancy()
        ]
        if pools:
            lines.append("switch pools: " + "; ".join(pools))
        late = self.late_drops()
        lines.append(
            "late drops: " + (
                f"{sum(late.values())} (" + "; ".join(
                    f"{name}: {n}" for name, n in late.items()
                ) + ")" if late else "none"
            )
        )
        congested = self.congestion_reports()
        stragglers = self.straggler_reports()
        hot = self.hot_spine_reports()
        lines.append(
            "congestion: " + (
                "; ".join(
                    f"{r.link} ({r.intervals} intervals, peak "
                    f"{r.peak_queue_delay_s * 1e6:.1f}us)"
                    for r in congested
                ) if congested else "none detected"
            )
        )
        lines.append(
            "stragglers: " + (
                "; ".join(
                    f"{r.worker} (z={r.z_score:.1f}, "
                    f"{r.results} vs mean {r.fleet_mean:.1f})"
                    for r in stragglers
                ) if stragglers else "none detected"
            )
        )
        if self.spine_trunks:
            lines.append(
                "hot spines: " + (
                    "; ".join(
                        f"{r.spine} ({r.utilization:.1%} vs peers "
                        f"{r.peers_mean:.1%})"
                        for r in hot
                    ) if hot else "none detected"
                )
            )
        return "\n".join(lines)
