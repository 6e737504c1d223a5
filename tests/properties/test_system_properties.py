"""Property-based tests spanning whole subsystems: the engine, links,
the hierarchy (a one-spine fabric), and multi-tenant isolation."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tenancy import MultiTenantRack
from repro.net.fabric import FabricConfig, FabricJob
from repro.net.link import Link, LinkSpec
from repro.net.loss import BernoulliLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator

FAST = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEngineOrderingProperty:
    @FAST
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=60))
    def test_any_schedule_fires_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert sorted(d for _, d in fired) == sorted(delays)

    @FAST
    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=40),
           st.sets(st.integers(min_value=0, max_value=39)))
    def test_cancellation_removes_exactly_the_cancelled(self, delays, cancel):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(float(d), fired.append, i)
            for i, d in enumerate(delays)
        ]
        for index in cancel:
            if index < len(events):
                events[index].cancel()
        sim.run()
        expected = {i for i in range(len(delays))
                    if i not in cancel or i >= len(events)}
        assert set(fired) == {i for i in expected}


class TestLinkConservationProperty:
    @FAST
    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_sent_equals_delivered_plus_lost(self, frames, loss, seed):
        sim = Simulator(seed=seed)
        delivered = []
        link = Link(
            sim, LinkSpec(rate_gbps=10.0), "prop",
            deliver=delivered.append, loss=BernoulliLoss(loss),
        )
        for i in range(frames):
            link.send(Frame(wire_bytes=180, flow_key=i))
        sim.run()
        assert link.stats.conservation_holds()
        assert link.stats.frames_delivered == len(delivered)
        assert link.stats.frames_sent == frames

    @FAST
    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=0, max_value=1000))
    def test_fifo_order_without_jitter(self, frames, seed):
        sim = Simulator(seed=seed)
        order = []
        link = Link(sim, LinkSpec(), "fifo",
                    deliver=lambda f: order.append(f.flow_key))
        for i in range(frames):
            link.send(Frame(wire_bytes=100 + (i % 5) * 100, flow_key=i))
        sim.run()
        assert order == list(range(frames))


class TestHierarchyProperty:
    @FAST
    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0.0, 0.0, 0.01]),
        st.integers(min_value=0, max_value=500),
    )
    def test_tree_aggregation_exact_for_any_shape(
        self, racks, per_rack, chunks, loss, seed
    ):
        job = FabricJob(
            FabricConfig(
                num_leaves=racks, num_spines=1, workers_per_leaf=per_rack,
                pool_size=4, timeout_s=2e-4,
                loss_factory=lambda: BernoulliLoss(loss),
                seed=seed,
            )
        )
        n = racks * per_rack
        rng = np.random.default_rng(seed)
        tensors = [rng.integers(-1000, 1000, 32 * 4 * chunks).astype(np.int64)
                   for _ in range(n)]
        out = job.all_reduce(tensors)  # verify=True raises on mismatch
        assert out.completed


class TestTenancyProperty:
    @FAST
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=500),
    )
    def test_concurrent_jobs_never_interfere(self, workers_a, workers_b, seed):
        rack = MultiTenantRack(num_hosts=workers_a + workers_b, seed=seed)
        job_a = rack.add_job(num_workers=workers_a, pool_size=4)
        job_b = rack.add_job(num_workers=workers_b, pool_size=8)
        rng = np.random.default_rng(seed)
        size_a, size_b = 32 * 4 * 3, 32 * 8 * 2
        ta = [rng.integers(-50, 50, size_a).astype(np.int64)
              for _ in range(workers_a)]
        tb = [rng.integers(-50, 50, size_b).astype(np.int64)
              for _ in range(workers_b)]
        rack.start_job(job_a, ta)
        rack.start_job(job_b, tb)
        rack.run()
        ra = rack.result(job_a, size_a)
        rb = rack.result(job_b, size_b)
        assert ra.completed and rb.completed
        assert all(np.array_equal(r, np.sum(ta, axis=0)) for r in ra.results)
        assert all(np.array_equal(r, np.sum(tb, axis=0)) for r in rb.results)


class TestStreamManagerProperty:
    @FAST
    @given(
        st.lists(
            st.integers(min_value=1, max_value=300),
            min_size=1, max_size=12,
        ),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
        st.integers(min_value=0, max_value=999),
    )
    def test_pack_aggregate_unpack_roundtrip(self, sizes, k, pad_each, seed):
        """Any tensor-size sequence survives pack -> elementwise op ->
        unpack, for any chunk size and padding policy."""
        from repro.core.stream import StreamBufferManager

        rng = np.random.default_rng(seed)
        manager = StreamBufferManager(k, pad_each_tensor=pad_each)
        tensors = {}
        for index, size in enumerate(sizes):
            name = f"t{index}"
            tensors[name] = rng.integers(-1000, 1000, size)
            manager.add_tensor(name, tensors[name])
        stream = manager.build_stream()
        assert len(stream) % k == 0
        aggregated = stream * 3  # any elementwise aggregation
        out = manager.extract_all(aggregated)
        for name, original in tensors.items():
            assert np.array_equal(out[name], original * 3)
