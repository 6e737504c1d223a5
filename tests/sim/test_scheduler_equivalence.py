"""The timer wheel must be invisible: it fires the exact same (time,
tag) sequence as a single heap on any workload, including equal-time
FIFO ties, cancellations, nested scheduling, compaction, and run(until=)
window edges.

The single heap is the engine itself with a wheel bucket no run reaches
(``wheel_granularity_s=1e9``): every entry then sits in the near heap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Simulator


def heap_oracle(**kwargs) -> Simulator:
    """The single-heap layout: no entry ever reaches a wheel bucket."""
    return Simulator(wheel_granularity_s=1e9, **kwargs)


SCHEDULERS = (heap_oracle, Simulator)


def _both(**kwargs):
    return tuple(make(**kwargs) for make in SCHEDULERS)


def _drive_random_workload(sim: Simulator, seed: int) -> list[tuple[float, int]]:
    """A randomized schedule / schedule_call / cancel workload.

    All randomness comes from a local generator seeded identically for
    both engines, and is consumed in the same order, so the two runs
    issue byte-identical operation sequences.  Fired events are recorded
    as (time, tag) pairs.
    """
    rng = np.random.default_rng(seed)
    fired: list[tuple[float, int]] = []
    handles: list = []
    tag = [0]

    def record(t):
        fired.append((sim.now, t))
        # nested scheduling from callbacks, mixing every insert API
        roll = rng.random()
        if roll < 0.25 and len(fired) < 400:
            delay = float(rng.integers(0, 50)) * 1e-6
            tag[0] += 1
            sim.schedule_call(delay, record, tag[0])
        elif roll < 0.35 and len(fired) < 400:
            delay = float(rng.integers(0, 2000)) * 1e-6  # past wheel horizon
            tag[0] += 1
            handles.append(sim.schedule(delay, record, tag[0]))
        elif roll < 0.45 and handles:
            handles.pop(int(rng.integers(0, len(handles)))).cancel()

    for _ in range(120):
        # a burst of equal-time events exercises the FIFO tie-break
        t = float(rng.integers(0, 300)) * 1e-5
        for _ in range(int(rng.integers(1, 4))):
            tag[0] += 1
            if rng.random() < 0.5:
                sim.schedule_call_at(t, record, tag[0])
            else:
                handles.append(sim.schedule_at(t, record, tag[0]))
    # cancel a random subset before running
    for _ in range(20):
        if handles:
            handles.pop(int(rng.integers(0, len(handles)))).cancel()

    sim.run()
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_random_workloads_fire_identically(seed):
    heap_sim, wheel_sim = _both()
    heap_fired = _drive_random_workload(heap_sim, seed)
    wheel_fired = _drive_random_workload(wheel_sim, seed)
    assert heap_fired == wheel_fired
    assert heap_sim.events_processed == wheel_sim.events_processed
    assert heap_sim.now == wheel_sim.now
    # the oracle never poured a bucket; the wheel did
    assert heap_sim._horizon_idx == 1 < wheel_sim._horizon_idx


def test_equal_time_fifo_ties_across_apis():
    """Events at one instant fire in scheduling order regardless of
    which insert API (handle, handle-free, relative, absolute) each
    one used or which layout runs them."""
    orders = []
    for make in SCHEDULERS:
        sim = make()
        out: list[int] = []
        t = 5e-4  # beyond the wheel horizon so buckets are exercised
        sim.schedule_at(t, out.append, 0)
        sim.schedule_call_at(t, out.append, 1)
        sim.schedule(t, out.append, 2)
        sim.schedule_call(t, out.append, 3)
        sim.schedule_at(t, out.append, 4)
        sim.run()
        orders.append(out)
    assert orders[0] == orders[1] == [0, 1, 2, 3, 4]


def test_run_until_edges_match():
    """run(until=) is inclusive, composes in windows, and advances the
    clock identically on both layouts -- including events exactly on
    the window edge and cancelled heads."""
    results = []
    for make in SCHEDULERS:
        sim = make()
        out: list[tuple[float, str]] = []

        def mark(label, _sim=sim, _out=out):
            _out.append((_sim.now, label))

        sim.schedule_at(1e-4, mark, "edge")          # exactly at until
        sim.schedule_at(1e-4 + 1e-9, mark, "after")  # just past it
        doomed = sim.schedule_at(5e-5, mark, "cancelled-head")
        doomed.cancel()
        sim.schedule_at(9e-4, mark, "window2")
        sim.run(until=1e-4)
        clock_after_w1 = sim.now
        sim.run(until=1e-3)
        results.append((out, clock_after_w1, sim.now))
    assert results[0] == results[1]
    out, clock_after_w1, final = results[0]
    assert [label for _, label in out] == ["edge", "after", "window2"]
    assert clock_after_w1 == 1e-4
    assert final == 1e-3


def test_compaction_preserves_order_and_counts():
    """Mass-cancelling triggers compaction; survivors still fire in
    order and the entry counts collapse to the live population."""
    for make in SCHEDULERS:
        sim = make(compact_min_dead=64)
        out: list[int] = []
        handles = [
            sim.schedule_at(i * 1e-6, out.append, i) for i in range(1000)
        ]
        for i, handle in enumerate(handles):
            if i % 10:  # kill 90%
                handle.cancel()
        assert sim.compactions >= 1, make
        assert sim.pending == 100
        # compaction purged most of the 900 dead entries; only the
        # below-threshold tail cancelled after the last rebuild remains
        assert sim.pending_entries - sim.pending < 300
        sim.run()
        assert out == list(range(0, 1000, 10))
        assert sim.pending == 0


def test_pending_is_o1_and_counts_all_insert_apis():
    """`pending` is maintained arithmetically: it tracks handle-free
    fast-path events too, and never requires a structure scan."""
    sim = Simulator()
    sim.schedule_call(1e-6, lambda: None)
    sim.schedule_call_at(2e-3, lambda: None)  # lands in a wheel bucket
    handle = sim.schedule(3e-3, lambda: None)
    assert sim.pending == 3
    handle.cancel()
    assert sim.pending == 2
    assert sim.pending_entries == 3  # lazy: the dead entry still sits there
    sim.run()
    assert sim.pending == 0
    assert sim.pending_entries == 0


def test_run_deadline_matches_step_loop():
    """run_deadline(d) is exactly `while step(): if now > d: break` --
    the crossing event still fires -- on both layouts."""
    for make in SCHEDULERS:
        ref = make()
        fast = make()
        out_ref: list[float] = []
        out_fast: list[float] = []
        for sim, out in ((ref, out_ref), (fast, out_fast)):
            for i in range(50):
                sim.schedule_at(i * 1e-4, out.append, float(i))
        deadline = 2.05e-3
        while ref.step():
            if ref.now > deadline:
                break
        fast.run_deadline(deadline)
        assert out_ref == out_fast
        assert ref.now == fast.now
        assert ref.events_processed == fast.events_processed
