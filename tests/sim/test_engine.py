"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(3.0, out.append, "c")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(1.0, out.append, i)
        sim.run()
        assert out == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_unschedulable_times_leave_nothing_pending(self, bad):
        # inf overflows the wheel bucket, nan has none: each call is
        # rejected before anything is counted
        sim = Simulator()
        fn = lambda: None  # noqa: E731
        for schedule in (sim.schedule, sim.schedule_at,
                         sim.schedule_call, sim.schedule_call_at):
            with pytest.raises((OverflowError, ValueError)):
                schedule(bad, fn)
        assert sim.pending == 0
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.run()
        assert out == ["a"]
        assert sim.pending == 0

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        out = []

        def outer():
            out.append("outer")
            sim.schedule(1.0, lambda: out.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert out == ["outer", "inner"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_args_passed_through(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda a, b: out.append((a, b)), 1, "x")
        sim.run()
        assert out == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        event = sim.schedule(1.0, out.append, "nope")
        event.cancel()
        sim.run()
        assert out == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.active
        assert not drop.active


class TestRunControl:
    def test_run_until_is_inclusive(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "at-1")
        sim.schedule(2.0, out.append, "at-2")
        sim.run(until=1.0)
        assert out == ["at-1"]
        assert sim.now == 1.0

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_windows_compose(self):
        sim = Simulator()
        out = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, out.append, t)
        sim.run(until=1.5)
        assert out == [1.0]
        sim.run(until=10.0)
        assert out == [1.0, 2.0, 3.0]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(float(i + 1), out.append, i)
        sim.run(max_events=2)
        assert out == [0, 1]

    def test_run_until_idle_guards_against_runaway(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestStop:
    @pytest.mark.parametrize("granularity", [64e-6, 1e9], ids=["wheel", "heap"])
    def test_stop_from_a_callback_leaves_equal_time_events_unfired(self, granularity):
        sim = Simulator(wheel_granularity_s=granularity)
        out = []

        def finish():
            out.append("finish")
            sim.stop()
            out.append("callback ran to its end")

        sim.schedule(1.0, out.append, "before")
        sim.schedule(2.0, finish)
        sim.schedule(2.0, out.append, "same instant")
        sim.schedule(3.0, out.append, "later")
        sim.run_deadline(10.0)
        assert out == ["before", "finish", "callback ran to its end"]
        assert (sim.now, sim.events_processed, sim.pending) == (2.0, 2, 2)
        # the flag does not outlive the run: the rest fires next time
        sim.run_deadline(10.0)
        assert out[3:] == ["same instant", "later"]
        assert sim.events_processed == 4

    def test_stop_outside_a_run_does_not_cut_the_next_one_short(self):
        sim = Simulator()
        out = []
        sim.stop()
        for t in (1.0, 2.0):
            sim.schedule(t, out.append, t)
        sim.run_deadline(10.0)
        assert out == [1.0, 2.0]

    def test_stop_cleared_when_a_callback_raises(self):
        sim = Simulator()
        out = []

        def boom():
            sim.stop()
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, out.append, "after")
        with pytest.raises(RuntimeError):
            sim.run_deadline(10.0)
        sim.run_deadline(10.0)
        assert out == ["after"]


class TestRandomness:
    def test_named_streams_are_deterministic(self):
        a = Simulator(seed=7).rng("x").random(5)
        b = Simulator(seed=7).rng("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_give_different_streams(self):
        sim = Simulator(seed=7)
        a = sim.rng("x").random(5)
        b = sim.rng("y").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_give_different_streams(self):
        a = Simulator(seed=1).rng("x").random(5)
        b = Simulator(seed=2).rng("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached_per_name(self):
        sim = Simulator(seed=7)
        assert sim.rng("x") is sim.rng("x")

    def test_adding_consumer_does_not_perturb_existing(self):
        # stream "x" must see the same values whether or not "y" is used
        sim1 = Simulator(seed=3)
        x_alone = sim1.rng("x").random(3)
        sim2 = Simulator(seed=3)
        sim2.rng("y").random(3)
        x_with_y = sim2.rng("x").random(3)
        assert np.array_equal(x_alone, x_with_y)

