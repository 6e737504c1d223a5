"""Unit tests for the metrics registry: instruments, labels, null path."""

import math

import numpy as np
import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
)


class TestCounter:
    def test_increments(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_negative_increment_rejected(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_samples(self):
        c = Counter("requests_total")
        c.inc(2)
        (sample,) = c.samples()
        assert sample.name == "requests_total"
        assert sample.labels == ()
        assert sample.value == 2


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)
        assert h.min == 0.05
        assert h.max == 2.0
        assert h.mean == pytest.approx(0.85)

    def test_bucket_assignment_and_cumulative_samples(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        by_le = {
            s.label_dict["le"]: s.value
            for s in h.samples() if s.name.endswith("_bucket")
        }
        assert by_le == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_quantiles(self):
        h = Histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_of_empty_is_nan(self):
        assert math.isnan(Histogram("h", buckets=(1.0,)).quantile(0.5))

    def test_quantile_of_empty_is_nan_at_extremes(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.0))
        assert math.isnan(h.quantile(1.0))

    def test_quantile_single_sample(self):
        # one sample in (1, 2]: every q maps to that bucket's bound,
        # except q=0 whose zero-observation target the first bucket
        # already satisfies
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 2.0

    def test_quantile_overflow_bucket_reports_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(7.5)  # beyond every bound: lands in +Inf
        assert h.quantile(1.0) == 7.5

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0,)).quantile(1.5)
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0,)).quantile(-0.1)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_deferred_fold_equals_one_update_per_sample(self):
        # 10 001 samples: crosses the unprompted-fold threshold, ends
        # with a partial pending list, and mixes observe/observe_many
        rng = np.random.default_rng(3)
        values = (10.0 ** rng.uniform(-7, 1, 10_001)).tolist()
        h = Histogram("lat_seconds")
        for v in values[:5000]:
            h.observe(v)
        h.observe_many(np.array(values[5000:]))
        total, counts = 0.0, [0] * (len(h.buckets) + 1)
        for v in values:
            total += v
            counts[next(
                (i for i, bound in enumerate(h.buckets) if v <= bound), -1
            )] += 1
        assert h.sum == total  # to the bit: the fold adds in order
        assert h.bucket_counts == counts
        assert (h.count, h.min, h.max) == (len(values), min(values), max(values))
        assert all(type(n) is int for n in h.bucket_counts)


class TestLabels:
    def test_children_are_interned(self):
        c = Counter("pkts_total", label_names=("wid",))
        assert c.labels("0") is c.labels("0")
        assert c.labels("0") is not c.labels("1")

    def test_labelled_family_requires_labels_before_inc(self):
        c = Counter("pkts_total", label_names=("wid",))
        with pytest.raises(ValueError):
            c.inc()

    def test_every_family_update_requires_labels(self):
        g = Gauge("depth", label_names=("q",))
        h = Histogram("lat", label_names=("q",))
        for update in (g.set, g.inc, g.dec, h.observe, h.observe_many):
            with pytest.raises(ValueError, match=r"call \.labels"):
                update(1.0)
        # the family is still its kind, and its children record
        assert isinstance(g, Gauge) and isinstance(g.labels("0"), Gauge)
        g.labels("0").set(3)
        assert [s.value for s in g.samples()] == [3]

    def test_wrong_label_count_rejected(self):
        c = Counter("pkts_total", label_names=("wid",))
        with pytest.raises(ValueError):
            c.labels("0", "1")

    def test_keyword_labels(self):
        c = Counter("pkts_total", label_names=("wid", "dir"))
        c.labels(wid=3, dir="tx").inc(7)
        assert c.labels("3", "tx").value == 7

    def test_family_samples_cover_all_children(self):
        c = Counter("pkts_total", label_names=("wid",))
        c.labels("0").inc(1)
        c.labels("1").inc(2)
        values = {s.label_dict["wid"]: s.value for s in c.samples()}
        assert values == {"0": 1, "1": 2}

    def test_histogram_children_inherit_buckets(self):
        h = Histogram("lat", label_names=("wid",), buckets=(0.5, 5.0))
        child = h.labels("0")
        child.observe(0.2)
        assert child.buckets == (0.5, 5.0)
        assert child.bucket_counts[0] == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", label_names=("a",))
        with pytest.raises(ValueError):
            reg.counter("x", label_names=("b",))

    def test_collect_and_names(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.gauge("b").set(2)
        assert reg.names() == ["a_total", "b"]
        assert {s.name for s in reg.collect()} == {"a_total", "b"}

    def test_as_dict_encodes_labels(self):
        reg = MetricsRegistry()
        reg.counter("pkts_total", label_names=("wid",)).labels("0").inc(5)
        assert reg.as_dict() == {"pkts_total{wid=0}": 5}

    def test_render_is_a_table(self):
        reg = MetricsRegistry()
        reg.counter("pkts_total").inc(3)
        text = reg.render()
        assert "pkts_total" in text and "3" in text


class TestCollectHooks:
    """The pull model: flushers run before every public read."""

    def _mirrored(self):
        reg = MetricsRegistry()
        source = {"events": 0, "depth": 0}
        events, depth = reg.counter("events_total"), reg.gauge("depth")
        flushed = [0]

        def flush():
            events.inc(source["events"] - flushed[0])
            flushed[0] = source["events"]
            depth.set(source["depth"])

        reg.on_collect(flush)
        return reg, source

    @pytest.mark.parametrize("read", [
        lambda reg: reg.get("events_total").value,
        lambda reg: reg.as_dict()["events_total"],
        lambda reg: {s.name: s.value for s in reg.collect()}["events_total"],
        lambda reg: float(reg.render().split("events_total")[1].split()[0]),
    ])
    def test_every_read_is_fresh(self, read):
        reg, source = self._mirrored()
        source["events"] = 5
        assert read(reg) == 5
        source["events"] = 9
        assert read(reg) == 9

    def test_names_runs_the_flushers_too(self):
        reg = MetricsRegistry()
        reg.on_collect(lambda: reg.counter("made_on_flush_total"))
        assert reg.names() == ["made_on_flush_total"]

    def test_gauge_follows_the_source_down(self):
        reg, source = self._mirrored()
        source["depth"] = 7
        assert reg.get("depth").value == 7
        source["depth"] = 2
        assert reg.get("depth").value == 2

    def test_disabled_registry_drops_flushers(self):
        reg = MetricsRegistry(enabled=False)
        reg.on_collect(lambda: pytest.fail("a disabled registry never reads"))
        assert reg.collect() == [] and reg.names() == []


class TestDisabledRegistry:
    def test_hands_out_shared_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.counter("a") is reg.counter("b")

    def test_null_instruments_absorb_everything(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a", label_names=("wid",))
        c.labels("0").inc()  # labels() returns self, inc() is a no-op
        h = reg.histogram("h")
        h.observe(1.0)
        g = reg.gauge("g")
        g.set(9)
        g.dec()
        assert c.value == 0
        assert h.count == 0
        assert reg.collect() == []
        assert reg.as_dict() == {}
