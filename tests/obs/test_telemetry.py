"""In-band telemetry tests: tap stamps, interval series, the collector,
the detectors, and the instrumented single-rack path."""

import math

import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.packet import Frame
from repro.obs.base import Observability
from repro.obs.telemetry import (
    ChassisTap,
    LinkSeries,
    LinkTap,
    SwitchSeries,
    Telemetry,
    TelemetryCollector,
    TelemetryConfig,
    detect_congestion,
    detect_hot_spines,
    detect_stragglers,
)

INTERVAL = 50e-6


def link_series(name="l", rate_bps=10e9, interval=INTERVAL, capacity=64):
    return LinkSeries(name, rate_bps, interval, capacity)


class TestTelemetryConfig:
    def test_defaults_valid(self):
        cfg = TelemetryConfig()
        assert cfg.interval_s == pytest.approx(50e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"capacity": 1},
            {"congestion_min_intervals": 0},
            {"load_window": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)


class TestLinkSeries:
    def test_sends_bucket_by_interval(self):
        s = link_series()
        s.record_send(0.0, 1250, 0.0, 0.0, 0)
        s.record_send(INTERVAL * 0.9, 1250, 0.0, 0.0, 0)
        s.record_send(INTERVAL * 1.1, 1250, 0.0, 0.0, 0)
        assert len(s) == 2
        first, second = s.intervals()
        assert (first.idx, first.frames) == (0, 2)
        assert (second.idx, second.frames) == (1, 1)

    def test_utilization_counts_idle_intervals_as_zero(self):
        # one fully busy interval then three idle ones
        s = link_series(rate_bps=10e9)
        busy_bytes = int(10e9 * INTERVAL / 8)
        s.record_send(0.0, busy_bytes, 0.0, 0.0, 0)
        s.record_send(INTERVAL * 3.5, 1, 0.0, 0.0, 0)  # open interval 3
        assert s.utilization(window=1, end_idx=0) == pytest.approx(1.0)
        assert s.utilization(window=4, end_idx=3) == pytest.approx(0.25, rel=1e-3)

    def test_queue_delay_quantile_over_interval_peaks(self):
        s = link_series()
        for i, qd in enumerate((1e-6, 5e-6, 9e-6)):
            s.record_send(i * INTERVAL, 100, qd, 0.0, 0)
        assert s.queue_delay_quantile(1.0) == pytest.approx(9e-6)
        assert s.queue_delay_quantile(0.0) == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            s.queue_delay_quantile(1.5)

    def test_quantile_of_empty_series_is_nan(self):
        assert math.isnan(link_series().queue_delay_quantile(0.5))

    def test_drop_rate_counts_losses_and_queue_drops(self):
        s = link_series()
        for i in range(8):
            s.record_send(i * 1e-6, 100, 0.0, 0.0, 0)
        s.record_drop(1e-6, lost=True)
        s.record_drop(2e-6, lost=False)
        assert s.drop_rate() == pytest.approx(2 / 10)
        b = s.intervals()[0]
        assert (b.losses, b.queue_drops) == (1, 1)

    def test_eviction_drops_late_records(self):
        s = link_series(capacity=2)
        for i in range(3):
            s.record_send(i * INTERVAL, 100, 0.0, 0.0, 0)
        assert len(s) == 2  # interval 0 evicted
        assert s.late_drops == 0
        s.record_send(0.0, 100, 0.0, 0.0, 0)  # behind the horizon
        assert s.late_drops == 1
        assert len(s) == 2


class TestSwitchSeries:
    def test_occupancy_peaks_and_mean(self):
        s = SwitchSeries("spine0", INTERVAL, 64)
        s.record_occupancy(0.0, 2, epoch=0)
        s.record_occupancy(1e-6, 6, epoch=1)
        s.record_occupancy(INTERVAL * 1.5, 4, epoch=1)
        assert s.peak_occupancy() == 6
        assert s.mean_occupancy() == pytest.approx(4.0)
        assert s.last_epoch() == 1


class FakeChassis:
    """The three attributes a ChassisTap reads off its switch."""

    class _Sim:
        now = 0.0

    class _Program:
        occupied_slots = 0
        epoch = 0

    def __init__(self, name="sw"):
        self.name = name
        self.sim = self._Sim()
        self.program = self._Program()

    def at(self, now, occupied_slots=0, epoch=0):
        self.sim.now = now
        self.program.occupied_slots = occupied_slots
        self.program.epoch = epoch


class TestLinkTap:
    def test_transmit_records_device_side_and_stamps_in_band(self):
        s = link_series(rate_bps=1e9)
        tap = LinkTap(s)
        frame = Frame(wire_bytes=125)
        # 125 B at 1 Gbps serializes in 1 us; done 2 us from now means
        # the frame waited 1 us behind the transmitter
        tap.on_transmit(frame, now=0.0, wire_bytes=125, done=2e-6,
                        arrival=2.5e-6)
        b = s.intervals()[0]
        assert frame.hops == (s, (b, 2.5e-6))
        assert (b.frames, b.bytes_sent) == (1, 125)
        assert b.queue_delay_max == pytest.approx(1e-6)
        assert b.backlog_bytes_max == pytest.approx(125.0)
        assert b.backlog_frames_max == 0
        # the hop latency travels in-band: filed only when drained
        assert b.latency_n == 0
        TelemetryCollector().drain(frame, now=3e-6)
        assert frame.hops is None
        assert b.latency_n == 1
        assert b.latency_max == pytest.approx(2.5e-6)

    def test_backlog_frames_counts_undeparted_frames(self):
        s = link_series(rate_bps=1e9)
        tap = LinkTap(s)
        tap.on_transmit(Frame(wire_bytes=125), now=0.0, wire_bytes=125,
                        done=1e-6, arrival=2e-6)
        assert s.intervals()[0].backlog_frames_max == 0
        tap.on_transmit(Frame(wire_bytes=125), now=0.0, wire_bytes=125,
                        done=2e-6, arrival=3e-6)
        assert s.intervals()[0].backlog_frames_max == 1

    def test_second_hop_appends_to_the_flat_tuple(self):
        a, b = link_series("a"), link_series("b")
        frame = Frame(wire_bytes=100)
        LinkTap(a).on_transmit(frame, 0.0, 100, 1e-7, 6e-7)
        LinkTap(b).on_transmit(frame, 1e-6, 100, 1.1e-6, 1.6e-6)
        assert frame.hops[::2] == (a, b)
        col = TelemetryCollector()
        col.drain(frame, now=2e-6)
        assert (col.frames_drained, col.hops_drained) == (1, 2)
        assert a.intervals()[0].latency_n == b.intervals()[0].latency_n == 1

    def test_out_of_order_send_leaves_the_cursor_interval(self):
        s = link_series()
        tap = LinkTap(s)
        for now in (INTERVAL * 2.5, INTERVAL * 0.5, INTERVAL * 2.6):
            tap.on_transmit(Frame(wire_bytes=10), now, 10, now, now)
        assert [(b.idx, b.frames) for b in s.intervals()] == [(0, 1), (2, 2)]


class TestOverflow:
    """Overflow is visible, never silent: a stamp that cannot be filed
    where it belongs is counted in ``late_drops``."""

    def _wrapped(self, hub=None):
        """Three frames sent in intervals 0, 1, 2 of a 2-bucket series:
        interval 0 is evicted while its frame is still in flight."""
        s = (
            link_series(capacity=2) if hub is None
            else hub.collector.link_series("a->b", 10e9)
        )
        tap = LinkTap(s)
        frames = [Frame(wire_bytes=10) for _ in range(3)]
        for i, frame in enumerate(frames):
            now = i * INTERVAL
            tap.on_transmit(frame, now, 10, now, now + (i + 1) * 1e-6)
        return s, frames

    def test_evicted_bucket_drops_the_stamp(self):
        s, frames = self._wrapped()
        assert [b.idx for b in s.intervals()] == [1, 2]
        col = TelemetryCollector()
        for frame in frames:
            col.drain(frame, now=1.0)
        # every frame and hop is counted; one stamp had nowhere to go
        assert (col.frames_drained, col.hops_drained) == (3, 3)
        assert s.late_drops == 1

    def test_late_stamp_is_not_filed_into_a_newer_bucket(self):
        s, frames = self._wrapped()
        TelemetryCollector().drain(frames[0], now=1.0)
        assert [b.latency_n for b in s.intervals()] == [0, 0]
        TelemetryCollector().drain(frames[2], now=1.0)
        assert [(b.idx, b.latency_n, b.latency_max) for b in s.intervals()] == [
            (1, 0, 0.0), (2, 1, pytest.approx(3e-6)),
        ]

    def test_device_side_record_behind_the_horizon(self):
        s, _frames = self._wrapped()
        frame = Frame(wire_bytes=10)
        LinkTap(s).on_transmit(frame, 0.0, 10, 0.0, 1e-6)  # interval 0 again
        assert s.late_drops == 1 and len(s) == 2
        TelemetryCollector().drain(frame, now=1.0)  # its stamp has no bucket
        assert s.late_drops == 2

    def test_switch_series_eviction(self):
        col = TelemetryCollector(TelemetryConfig(capacity=2))
        chassis = FakeChassis()
        tap = ChassisTap(chassis, col)
        frames = [Frame(wire_bytes=10) for _ in range(3)]
        for i, frame in enumerate(frames):
            chassis.at(i * INTERVAL, occupied_slots=10 + i)
            tap.observe()
            tap.stamp(frame)  # forwarded as-is: the stamp rides on
        for frame in reversed(frames):
            col.drain(frame, now=1.0)
        series = col.switches["sw"]
        # drained newest first: intervals 2 and 1 fill the series, and
        # the stamp for interval 0 would be evicted as it was filed
        assert [(b.idx, b.occ_max) for b in series.intervals()] == [(1, 11), (2, 12)]
        assert series.late_drops == 1
        chassis.at(3 * INTERVAL, occupied_slots=13)
        tap.observe()
        tap.absorb(Frame(wire_bytes=10))  # opens interval 3, evicts 1
        old = Frame(wire_bytes=10)
        old.hops = (series, (1, 99, 0))
        col.drain(old, now=1.0)
        assert series.late_drops == 2
        assert [(b.idx, b.occ_max) for b in series.intervals()] == [(2, 12), (3, 13)]

    def test_late_drops_reported(self):
        hub = Telemetry(TelemetryConfig(capacity=2))
        _s, frames = self._wrapped(hub)
        for frame in frames:
            hub.collector.drain(frame, now=1.0)
        assert hub.late_drops() == {"a->b": 1}
        doc = hub.as_dict()
        assert doc["late_drops"] == 1
        assert doc["links"]["a->b"]["late_drops"] == 1
        assert "late drops: 1 (a->b: 1)" in hub.summary()
        assert "late drops: none" in Telemetry().summary()


class TestChassisTap:
    def test_absorb_files_the_observation_and_drains_the_frame(self):
        col = TelemetryCollector()
        link = col.link_series("a->b", 10e9)
        chassis = FakeChassis()
        tap = ChassisTap(chassis, col)
        frame = Frame(wire_bytes=180)
        LinkTap(link).on_transmit(frame, 1e-6, 180, 1.2e-6, 3e-6)
        chassis.at(2e-6, occupied_slots=5, epoch=1)
        tap.observe()
        tap.absorb(frame)
        assert frame.hops is None
        assert (col.frames_drained, col.hops_drained) == (1, 2)
        assert link.intervals()[0].latency_n == 1
        assert col.switches["sw"].peak_occupancy() == 5
        assert col.switches["sw"].last_epoch() == 1

    def test_absorbing_an_unstamped_frame_counts_the_pipeline_hop(self):
        col = TelemetryCollector()
        tap = ChassisTap(FakeChassis(), col)
        tap.observe()
        tap.absorb(Frame(wire_bytes=180))
        assert (col.frames_drained, col.hops_drained) == (1, 1)

    def test_forwarded_frame_carries_the_observation_to_its_sink(self):
        col = TelemetryCollector()
        chassis = FakeChassis()
        tap = ChassisTap(chassis, col)
        frame = Frame(wire_bytes=180)
        chassis.at(INTERVAL * 1.5, occupied_slots=7)
        tap.observe()
        tap.stamp(frame)
        assert frame.hops == (col.switches["sw"], (1, 7, 0))
        # the bucket is created when the stamp drains, under the stamp's
        # interval, whatever the pipeline has seen since
        assert len(col.switches["sw"]) == 0
        chassis.at(INTERVAL * 9.5, occupied_slots=1)
        tap.observe()
        col.drain(frame, now=INTERVAL * 9.5)
        (b,) = col.switches["sw"].intervals()
        assert (b.idx, b.occ_max) == (1, 7)


class TestCollector:
    def test_progress_counts_switch_results_per_sink(self):
        class Result:
            from_switch = True

        col = TelemetryCollector()
        frame = Frame(wire_bytes=180, message=Result())
        frame.hops = ()
        col.drain(frame, now=1e-6, sink="w3")
        assert col.progress == {"w3": 1}
        assert col.progress_last_ts["w3"] == pytest.approx(1e-6)

    def test_unstamped_frame_is_a_noop(self):
        col = TelemetryCollector()
        col.drain(Frame(wire_bytes=180), now=0.0, sink="w0")
        assert col.frames_drained == 0
        assert col.progress == {}


class TestDetectCongestion:
    def _series_with_run(self, col, name, start_idx, length, qd=20e-6):
        s = col.link_series(name, 10e9)
        for i in range(start_idx, start_idx + length):
            s.record_send(i * INTERVAL + 1e-9, 100, qd, qd * 10e9 / 8, 1)
        return s

    def test_sustained_run_detected(self):
        col = TelemetryCollector()
        self._series_with_run(col, "hot", 0, 5)
        (report,) = detect_congestion(col)
        assert report.link == "hot"
        assert report.intervals == 5
        assert report.start_s == pytest.approx(0.0)
        assert report.end_s == pytest.approx(5 * INTERVAL)
        assert report.peak_queue_delay_s == pytest.approx(20e-6)

    def test_gap_breaks_the_run(self):
        col = TelemetryCollector()
        # 3 congested, one idle interval, 3 congested: longest run is 3
        self._series_with_run(col, "gappy", 0, 3)
        self._series_with_run(col, "gappy", 4, 3)
        assert detect_congestion(col) == []

    def test_below_threshold_ignored(self):
        col = TelemetryCollector()
        self._series_with_run(col, "cool", 0, 10, qd=1e-6)
        assert detect_congestion(col) == []


class TestDetectStragglers:
    def test_lagging_worker_flagged(self):
        col = TelemetryCollector()
        col.progress = {f"w{i}": 100 for i in range(7)}
        col.progress["w7"] = 40  # z ~= 2.6 against the fleet
        (report,) = detect_stragglers(col)
        assert report.worker == "w7"
        assert report.results == 40
        assert report.z_score >= 2.0

    def test_needs_three_sinks(self):
        col = TelemetryCollector()
        col.progress = {"w0": 100, "w1": 1}
        assert detect_stragglers(col) == []

    def test_uniform_progress_is_quiet(self):
        col = TelemetryCollector()
        col.progress = {f"w{i}": 64 for i in range(8)}
        assert detect_stragglers(col) == []


class TestDetectHotSpines:
    def _busy(self, col, name, intervals, fill):
        s = col.link_series(name, 10e9)
        per_interval = int(10e9 * INTERVAL / 8 * fill)
        for i in range(intervals):
            s.record_send(i * INTERVAL + 1e-9, per_interval, 0.0, 0.0, 0)

    def test_loaded_spine_flagged(self):
        col = TelemetryCollector()
        self._busy(col, "leaf0->spine0", 20, 0.6)
        self._busy(col, "leaf0->spine1", 20, 0.05)
        trunks = {"spine0": ["leaf0->spine0"], "spine1": ["leaf0->spine1"]}
        (report,) = detect_hot_spines(col, trunks, end_idx=19)
        assert report.spine == "spine0"
        assert report.ratio > 1.5

    def test_balanced_spines_quiet(self):
        col = TelemetryCollector()
        self._busy(col, "leaf0->spine0", 20, 0.4)
        self._busy(col, "leaf0->spine1", 20, 0.4)
        trunks = {"spine0": ["leaf0->spine0"], "spine1": ["leaf0->spine1"]}
        assert detect_hot_spines(col, trunks, end_idx=19) == []


class TestObservabilityTelemetryParam:
    def test_off_by_default(self):
        assert Observability().telemetry is None
        assert Observability.off().telemetry is None

    def test_true_builds_a_hub(self):
        assert isinstance(Observability(telemetry=True).telemetry, Telemetry)

    def test_config_and_hub_accepted(self):
        cfg = TelemetryConfig(interval_s=1e-3)
        obs = Observability(telemetry=cfg)
        assert obs.telemetry.config is cfg
        hub = Telemetry()
        assert Observability(telemetry=hub).telemetry is hub

    def test_junk_rejected(self):
        with pytest.raises(TypeError):
            Observability(telemetry="yes")

    def test_independent_of_enabled(self):
        obs = Observability(enabled=False, telemetry=True)
        assert obs.telemetry is not None
        assert not obs.enabled


class TestInstrumentedRack:
    def _run(self, burst_epsilon=0.0):
        obs = Observability(enabled=False, telemetry=True)
        job = SwitchMLJob(SwitchMLConfig(
            num_workers=4, burst_epsilon=burst_epsilon, obs=obs
        ))
        res = job.all_reduce(num_elements=4096, verify=False)
        assert res.completed
        return obs.telemetry.collector

    def test_frames_drain_and_series_fill(self):
        col = self._run()
        assert col.frames_drained > 0
        assert col.hops_drained >= col.frames_drained
        assert any(len(s) for s in col.links.values())
        # every worker drained the same number of results
        assert len(set(col.progress.values())) == 1
        assert len(col.progress) == 4

    def test_window_path_carries_the_same_stamps(self):
        # clean links: both paths move the same frames over the same
        # hops, batched or not
        packet = self._run()
        window = self._run(burst_epsilon=2e-5)
        assert packet.frames_drained == window.frames_drained
        assert packet.hops_drained == window.hops_drained
        assert packet.progress == window.progress

    def test_frames_not_stamped_without_hub(self):
        job = SwitchMLJob(SwitchMLConfig(num_workers=2))
        res = job.all_reduce(num_elements=1024, verify=False)
        assert res.completed
        for link in job.rack.uplinks + job.rack.downlinks:
            assert link.telemetry is None
