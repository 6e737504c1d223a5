"""Unit tests for the link model: serialization, propagation, FIFO,
loss, and buffer caps."""

import pytest

from repro.net.link import _BERN_BLOCK, Link, LinkSpec
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, ScriptedLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator


def make_link(sim, out, rate_gbps=10.0, prop=1e-6, loss=None, queue_bytes=None):
    spec = LinkSpec(rate_gbps=rate_gbps, propagation_s=prop, queue_bytes=queue_bytes)
    return Link(sim, spec, "test", deliver=lambda f: out.append((sim.now, f)), loss=loss)


class TestDelays:
    def test_arrival_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, prop=1e-6)
        link.send(Frame(wire_bytes=1250))  # 1250 B at 10 Gbps = 1 us
        sim.run()
        assert out[0][0] == pytest.approx(1e-6 + 1e-6)

    def test_serialization_scales_with_size_and_rate(self):
        spec = LinkSpec(rate_gbps=100.0)
        assert spec.serialization_s(180) == pytest.approx(180 * 8 / 100e9)

    def test_back_to_back_frames_queue_fifo(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, prop=0.0)
        t = 1250 * 8 / 10e9
        for i in range(3):
            link.send(Frame(wire_bytes=1250, flow_key=i))
        sim.run()
        arrivals = [time for time, _ in out]
        assert arrivals == pytest.approx([t, 2 * t, 3 * t])
        assert [f.flow_key for _, f in out] == [0, 1, 2]

    def test_transmitter_idles_between_spaced_sends(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, prop=0.0)
        link.send(Frame(wire_bytes=1250))
        sim.schedule(1.0, link.send, Frame(wire_bytes=1250))
        sim.run()
        assert out[1][0] == pytest.approx(1.0 + 1250 * 8 / 10e9)

    def test_queue_delay_reports_backlog(self):
        sim = Simulator()
        link = make_link(sim, [], rate_gbps=10.0)
        assert link.queue_delay == 0.0
        link.send(Frame(wire_bytes=12500))  # 10 us of backlog
        assert link.queue_delay == pytest.approx(10e-6)


class TestLoss:
    def test_lost_frames_consume_transmitter_time(self):
        """A dropped frame still serializes (the bits leave, they just
        never arrive), delaying the frame behind it."""
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, prop=0.0, loss=ScriptedLoss({0}))
        t = 1250 * 8 / 10e9
        link.send(Frame(wire_bytes=1250))
        link.send(Frame(wire_bytes=1250))
        sim.run()
        assert len(out) == 1
        assert out[0][0] == pytest.approx(2 * t)

    def test_loss_statistics(self):
        sim = Simulator()
        link = make_link(sim, [], loss=BernoulliLoss(1.0))
        for _ in range(5):
            link.send(Frame(wire_bytes=100))
        sim.run()
        assert link.stats.frames_sent == 5
        assert link.stats.frames_lost == 5
        assert link.stats.frames_delivered == 0
        assert link.stats.conservation_holds()

    def test_conservation_with_mixed_outcomes(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, loss=ScriptedLoss({1, 3}))
        for _ in range(5):
            link.send(Frame(wire_bytes=100))
        sim.run()
        assert link.stats.frames_delivered == 3
        assert link.stats.frames_lost == 2
        assert link.stats.conservation_holds()


class TestQueueCap:
    def test_tail_drop_when_buffer_full(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, queue_bytes=2000)
        accepted = [link.send(Frame(wire_bytes=1000)) for _ in range(4)]
        sim.run()
        assert accepted == [True, True, False, False]
        assert link.stats.frames_queue_dropped == 2
        assert len(out) == 2
        assert link.stats.conservation_holds()

    def test_buffer_drains_over_time(self):
        sim = Simulator()
        out = []
        link = make_link(sim, out, rate_gbps=10.0, queue_bytes=1500)
        assert link.send(Frame(wire_bytes=1000))
        assert not link.send(Frame(wire_bytes=1000))  # full
        sim.run()
        assert link.send(Frame(wire_bytes=1000))  # drained


class TestMisc:
    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(), "dangling")
        with pytest.raises(RuntimeError):
            link.send(Frame(wire_bytes=100))

    def test_observer_sees_lifecycle(self):
        sim = Simulator()
        events = []
        link = make_link(sim, [], loss=ScriptedLoss({1}))
        link.observer = lambda f, kind, t: events.append(kind)
        link.send(Frame(wire_bytes=100))
        link.send(Frame(wire_bytes=100))
        sim.run()
        assert events == ["sent", "sent", "lost", "delivered"]

    def test_utilization(self):
        sim = Simulator()
        link = make_link(sim, [], rate_gbps=10.0)
        link.send(Frame(wire_bytes=1250))  # 1 us
        sim.run()
        assert link.utilization(2e-6) == pytest.approx(0.5)


class TestCorruptionDrawOrder:
    """The corruption draw comes from the same block buffer as the
    inlined Bernoulli loss path, in per-frame loss -> corruption ->
    jitter order -- not a scalar ``rng.random()`` on the side."""

    def _stream(self, name, n):
        # the link's named substream, replayed independently: block
        # draws walk the same double sequence as scalar draws
        rng = Simulator().rng(f"link:{name}")
        out = []
        while len(out) < n:
            out.extend(rng.random(_BERN_BLOCK).tolist())
        return out

    def test_decisions_follow_block_stream(self):
        loss_p, corrupt_p, jit = 0.3, 0.4, 1e-6
        sim = Simulator()
        spec = LinkSpec(rate_gbps=10.0, propagation_s=0.0,
                        jitter_s=jit, corruption_probability=corrupt_p)
        got = []
        link = Link(sim, spec, "draworder",
                    deliver=lambda f: got.append((sim.now, f)),
                    loss=BernoulliLoss(loss_p))
        frames = [Frame(wire_bytes=1250, flow_key=i) for i in range(200)]
        for f in frames:
            link.send(f)
        sim.run()

        u = iter(self._stream("draworder", 3 * len(frames)))
        ser = 1250 * 8 / 10e9
        done = 0.0
        expect = []
        for f in frames:
            done += ser
            if next(u) < loss_p:  # loss draw first
                continue
            corrupted = next(u) < corrupt_p  # then corruption
            arrival = done + jit * next(u)  # then jitter
            expect.append((arrival, f.flow_key, corrupted))
        assert [(t, f.flow_key, f.corrupted) for t, f in got] == expect
        assert link.stats.frames_corrupted == sum(c for _, _, c in expect)


class _Tap:
    """Stands in for the telemetry tap: records what each body reports."""

    def __init__(self):
        self.calls = []

    def on_transmit(self, frame, t, wire_bytes, done, arrival):
        self.calls.append(("tx", frame.flow_key, t, wire_bytes, done, arrival))

    def on_drop(self, t, lost):
        self.calls.append(("drop", t, lost))


#: name -> (spec, loss model factory, observer + tap installed?)
_LOCKSTEP = {
    "clean": (LinkSpec(), lambda: None, False),
    "bernoulli": (LinkSpec(), lambda: BernoulliLoss(0.2), False),
    "observed": (LinkSpec(), lambda: BernoulliLoss(0.2), True),
    "kitchen_sink": (
        LinkSpec(jitter_s=1e-6, corruption_probability=0.2, queue_bytes=9000),
        lambda: BernoulliLoss(0.2), True,
    ),
    # a stateful model draws through its own should_drop: the unbuffered
    # scalar-call order
    "stateful_loss": (
        LinkSpec(jitter_s=1e-6, corruption_probability=0.2),
        lambda: GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.3),
        False,
    ),
}


class TestSendBodiesLockstep:
    """``send_bodies`` over a train against N scalar ``send`` calls at
    the same submit times on a twin link: same per-frame arrivals and
    corruption flags, same loss/corruption/jitter draw order, same
    ``LinkStats``, busy chain and draw cursor."""

    def _twin(self, case):
        spec, loss, observed = _LOCKSTEP[case]
        sim = Simulator()
        got = []
        link = Link(sim, spec, "twin", loss=loss(),
                    deliver=lambda f: got.append((sim.now, f.flow_key, f.corrupted)))
        seen = []
        if observed:
            link.observer = lambda f, what, t: seen.append((f.flow_key, what, t))
            link.telemetry = _Tap()
        return sim, link, got, seen

    def _state(self, link, seen):
        st = link.stats
        return {
            "stats": (st.frames_sent, st.frames_lost, st.frames_corrupted,
                      st.frames_queue_dropped, st.bytes_sent, st.busy_time),
            "busy_until": link._busy_until,
            "cursor": (link._u_i, link._u_buf),
            "observer": [e for e in seen if e[1] != "delivered"],
            "tap": link.telemetry.calls if link.telemetry else None,
        }

    def _lockstep(self, case, n, preconsume=0):
        # bursts of three share a submit time; sizes vary so the queue
        # cap bites on some frames and not others.  `preconsume` scalar
        # sends on both twins first move the draw cursor off a block
        # boundary.
        submits = [(i // 3) * 4e-7 for i in range(n)]
        sizes = [1250 if i % 5 else 300 for i in range(n)]

        def twin():
            sim, link, got, seen = self._twin(case)
            for i in range(preconsume):
                link.send(Frame(wire_bytes=100, flow_key=-1 - i))
            return sim, link, got, seen

        sim, link, got, seen = twin()
        accepted = []
        for i, (t, size) in enumerate(zip(submits, sizes)):
            frame = Frame(wire_bytes=size, flow_key=i)
            sim.schedule_call_at(
                t, lambda f=frame: accepted.append(link.send(f))
            )
        sim.run()
        want = self._state(link, seen)

        sim, link, _, seen = twin()
        pairs = [(t, Frame(wire_bytes=size, flow_key=i))
                 for i, (t, size) in enumerate(zip(submits, sizes))]
        records, n_accepted = link.send_bodies(pairs)

        assert sorted((a, f.flow_key, f.corrupted) for a, f in records) == sorted(
            g for g in got if g[1] >= 0
        )
        assert n_accepted == sum(accepted)
        assert self._state(link, seen) == want
        assert want["stats"][0] == n_accepted + preconsume  # something was sent

    @pytest.mark.parametrize("n", [40, 150])
    @pytest.mark.parametrize("case", sorted(_LOCKSTEP))
    def test_bodies_match_scalar_sends(self, case, n):
        self._lockstep(case, n)

    def test_block_refill_mid_train(self):
        # most of the draw block is spent before the train starts, so
        # the train refills mid-sweep (twice, at 2 blocks long) exactly
        # where per-frame draws would
        self._lockstep("bernoulli", 2 * _BERN_BLOCK, preconsume=_BERN_BLOCK - 10)


class TestWindow:
    """``burst_epsilon > 0``: arrivals fold into one drain per window."""

    def _link(self, sim, eps, **kwargs):
        out = []
        link = Link(sim, LinkSpec(rate_gbps=10.0, propagation_s=1e-6), "w",
                    deliver=lambda f: out.append((sim.now, f.flow_key)), **kwargs)
        link.burst_epsilon = eps
        return link, out

    def test_arrivals_inside_the_window_share_one_drain(self):
        sim = Simulator()
        link, out = self._link(sim, eps=5e-6)
        for i in range(3):
            link.send(Frame(wire_bytes=1250, flow_key=i))  # 1 us apart
        assert sim.pending == 1
        sim.run()
        t0 = 1e-6 + 1e-6  # the opener's arrival
        assert out == [(pytest.approx(t0 + 5e-6), i) for i in range(3)]
        assert link.stats.frames_delivered == 3

    def test_arrival_past_the_window_opens_the_next(self):
        sim = Simulator()
        link, out = self._link(sim, eps=1.5e-6)
        for i in range(3):
            link.send(Frame(wire_bytes=1250, flow_key=i))
        assert sim.pending == 2  # frames 0+1, then frame 2
        sim.run()
        assert [k for _, k in out] == [0, 1, 2]
        assert out[0][0] == out[1][0] < out[2][0]

    def test_arrival_after_the_drain_fired_opens_a_fresh_window(self):
        sim = Simulator()
        link, out = self._link(sim, eps=5e-6)
        link.send(Frame(wire_bytes=1250, flow_key=0))
        sim.run()
        link.send(Frame(wire_bytes=1250, flow_key=1))
        sim.run()
        assert len(out) == 2 and out[1][0] > out[0][0]

    def test_train_and_scalar_sends_fold_alike(self):
        def run(as_train):
            sim = Simulator()
            link, out = self._link(sim, eps=2e-6, loss=BernoulliLoss(0.3))
            frames = [Frame(wire_bytes=1250, flow_key=i) for i in range(50)]
            if as_train:
                link.send_train([(0.0, f) for f in frames])
            else:
                for f in frames:
                    link.send(f)
            sim.run()
            return out, link.stats.frames_lost, sim.events_processed

        assert run(True) == run(False)

    def test_deliver_many_takes_the_whole_drain(self):
        sim = Simulator()
        link, _ = self._link(sim, eps=5e-6)
        drains = []
        link.connect(lambda f: pytest.fail("per-frame path"), drains.append)
        for i in range(3):
            link.send(Frame(wire_bytes=1250, flow_key=i))
        sim.run()
        assert [[f.flow_key for f in d] for d in drains] == [[0, 1, 2]]

    def test_observer_sees_every_frame(self):
        sim = Simulator()
        link, _ = self._link(sim, eps=5e-6)
        seen = []
        link.observer = lambda frame, what, t: seen.append(what)
        link.send(Frame(wire_bytes=1250, flow_key=0))
        link.send(Frame(wire_bytes=1250, flow_key=1))
        sim.run()
        assert seen == ["sent", "sent", "delivered", "delivered"]
