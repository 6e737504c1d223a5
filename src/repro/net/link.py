"""Point-to-point links with serialization delay, propagation delay,
FIFO queueing, optional buffer caps, and loss injection.

The model is standard store-and-forward: a frame of ``L`` bytes on a link
of rate ``R`` bps occupies the transmitter for ``8L/R`` seconds starting
when the transmitter frees up, then arrives ``propagation`` seconds after
its last bit leaves.  Injected losses (paper SS5.5) consume transmitter
time -- the bits go out, they just never arrive -- which matches how loss
behaves on a real wire and matters for TAT-inflation measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable

from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator

__all__ = ["Link", "LinkSpec", "LinkStats"]

#: sort key for (time, frame) pairs (stable: ties keep their order)
_submit_key = itemgetter(0)

#: block size of the inlined Bernoulli draw buffer; must match
#: BernoulliLoss._BLOCK so draw alignment survives path rebinds
_BERN_BLOCK = BernoulliLoss._BLOCK


@dataclass
class LinkSpec:
    """Parameters for one direction of a cable.

    ``propagation_s`` defaults to 500 ns -- roughly 100 m of fibre, a rack
    in-row run.  ``queue_bytes`` caps the transmitter backlog; ``None``
    means infinite (the paper's rack is dedicated and uncongested, SS3.2
    footnote).

    ``jitter_s`` adds a uniform random extra delay per frame, which can
    reorder deliveries -- the paper claims the protocol "is not
    influenced by packet reorderings" because every packet carries its
    pool index and offset (SS3.4); the reordering tests turn this on.

    ``corruption_probability`` flips the delivered frame's ``corrupted``
    flag (a bit-flip survives the wire but fails the receiver's
    checksum): "a simple checksum can be used to detect corruption and
    discard corrupted packets" (SS3.4).  Receivers treat a corrupt frame
    as a loss; the timeout machinery recovers it.
    """

    rate_gbps: float = 10.0
    propagation_s: float = 500e-9
    queue_bytes: int | None = None
    jitter_s: float = 0.0
    corruption_probability: float = 0.0

    @property
    def rate_bps(self) -> float:
        return self.rate_gbps * 1e9

    def serialization_s(self, wire_bytes: int) -> float:
        return wire_bytes * 8.0 / self.rate_bps


@dataclass
class LinkStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    frames_queue_dropped: int = 0
    frames_corrupted: int = 0
    bytes_sent: int = 0
    busy_time: float = 0.0
    _extra: dict = field(default_factory=dict)

    def conservation_holds(self) -> bool:
        """DESIGN.md invariant: every serialized frame was either
        delivered or lost (queue drops never reached the transmitter and
        are accounted separately)."""
        return self.frames_sent == self.frames_delivered + self.frames_lost


class Link:
    """One unidirectional link.

    Parameters
    ----------
    sim:
        Simulation engine.
    spec:
        Rate / delay / buffer parameters.
    name:
        Identifies the link in stats and RNG substreams.
    deliver:
        Callback invoked as ``deliver(frame)`` at arrival time.  Set (or
        replaced) later via :meth:`connect` by topology builders.
    loss:
        Loss model; defaults to :class:`NoLoss`.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        name: str,
        deliver: Callable[[Frame], Any] | None = None,
        loss: LossModel | None = None,
    ):
        self.sim = sim
        self.name = name
        self._deliver = deliver
        self._deliver_many: Callable[[list[Frame]], Any] | None = None
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._rng = sim.rng(f"link:{name}")
        self._schedule_call_at = sim.schedule_call_at
        # local block buffer of uniforms feeding ALL of this link's own
        # draws -- loss, corruption, jitter -- in per-frame order (see
        # _refresh_drop_path); survives spec swaps, reset on loss swaps
        self._u_buf = None
        self._u_i = 0
        #: epsilon-window coalescing (set by the job from
        #: ``SwitchMLConfig.burst_epsilon``): zero runs the per-frame
        #: path -- one arrival event per frame; a positive value folds
        #: arrivals within ``[t0, t0 + eps]`` of a window's opener into
        #: one drain event at ``t0 + eps``, trading bounded extra latency
        #: for larger batches downstream.
        self.burst_epsilon = 0.0
        # the open window: its (arrival, frame) group and opener time
        # (see _fold_window)
        self._arrive_group: list | None = None
        self._arrive_t = -1.0
        # `spec` and `loss` are properties: fault injection and topology
        # surgery replace the whole object (never mutate fields in
        # place), and the setters refresh the hot-path caches below.
        self.spec = spec
        self.loss = loss if loss is not None else NoLoss()
        #: optional hook called with (frame, "sent"|"lost"|"delivered", time)
        self.observer: Callable[[Frame, str, float], Any] | None = None
        #: in-band telemetry tap (repro.obs.telemetry.LinkTap), installed
        #: by Telemetry.instrument_link; None (one branch) when disabled
        self.telemetry: Any | None = None

    @property
    def spec(self) -> LinkSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: LinkSpec) -> None:
        self._spec = spec
        self._rate_bps = spec.rate_bps
        self._queue_bytes = spec.queue_bytes
        self._prop_s = spec.propagation_s
        self._jitter_s = spec.jitter_s
        self._corrupt_p = spec.corruption_probability
        self._refresh_drop_path()

    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, loss: LossModel) -> None:
        self._loss = loss
        # a NoLoss model needs no per-frame call (and consumes no
        # randomness), so the send path can skip it entirely
        self._lossless = type(loss) is NoLoss
        # a new loss model starts with a fresh draw buffer (a spec swap,
        # by contrast, keeps any pre-drawn uniforms -- discarding them
        # would change the rng consumption order mid-run)
        self._u_buf = None
        self._u_i = 0
        self._refresh_drop_path()

    def _refresh_drop_path(self) -> None:
        """Bind the per-frame draw path.

        ``_buffered`` links feed every draw the link makes -- the
        Bernoulli loss test, the corruption test, and the jitter sample
        -- from one block buffer of uniforms, consumed in per-frame
        order.  The decisions are bit-for-bit what the scalar calls
        produce: ``rng.random(n)`` walks the same double stream as ``n``
        scalar ``rng.random()`` calls, and ``rng.uniform(0, j)`` computes
        exactly ``j * rng.random()``.  Buffering is legal because the
        link's named substream has no other consumer -- which is also
        why it is restricted to the known-pure loss models: a stateful
        or user-supplied model may draw any number of uniforms per frame
        through its own ``should_drop``, so those keep the scalar calls
        (``_should_drop`` bound) in the exact historical order."""
        loss = getattr(self, "_loss", None)
        if loss is None:  # spec set before loss during __init__
            self._bern = None
            self._should_drop = None
            self._buffered = False
            return
        if type(loss) is BernoulliLoss:
            self._bern = loss
            self._should_drop = None
            self._buffered = True
        elif type(loss) is NoLoss:
            self._bern = None
            self._should_drop = None
            self._buffered = True
        else:
            self._bern = None
            self._should_drop = loss.should_drop
            self._buffered = False

    def connect(
        self,
        deliver: Callable[[Frame], Any],
        deliver_many: Callable[[list[Frame]], Any] | None = None,
    ) -> None:
        """Set the receiver callback.

        ``deliver_many``, when given, takes a whole window drain in one
        call; it must be behaviorally identical to calling ``deliver``
        once per frame in order (the drains use it to skip the per-frame
        callback overhead).
        """
        self._deliver = deliver
        self._deliver_many = deliver_many

    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Enqueue ``frame`` for transmission.

        Returns False if the frame was tail-dropped at the queue (only
        possible with a finite ``queue_bytes``).
        """
        if self._deliver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")

        sim = self.sim
        now = sim.now
        stats = self.stats
        observer = self.observer
        tap = self.telemetry
        wire_bytes = frame.wire_bytes
        busy = self._busy_until
        queue_bytes = self._queue_bytes
        if queue_bytes is not None:
            backlog_s = busy - now
            if backlog_s > 0.0:
                backlog_bytes = backlog_s * self._rate_bps / 8.0
                if backlog_bytes + wire_bytes > queue_bytes:
                    stats.frames_queue_dropped += 1
                    if observer is not None:
                        observer(frame, "queue_dropped", now)
                    if tap is not None:
                        tap.on_drop(now, False)
                    return False
            elif wire_bytes > queue_bytes:
                stats.frames_queue_dropped += 1
                if observer is not None:
                    observer(frame, "queue_dropped", now)
                if tap is not None:
                    tap.on_drop(now, False)
                return False

        serialization = wire_bytes * 8.0 / self._rate_bps
        done = (busy if busy > now else now) + serialization
        self._busy_until = done
        stats.frames_sent += 1
        stats.bytes_sent += wire_bytes
        stats.busy_time += serialization
        if observer is not None:
            observer(frame, "sent", now)

        bern = self._bern
        if bern is not None:
            # inlined BernoulliLoss.should_drop_buffered against the
            # link-local buffer (this link's rng has no other consumer)
            p = bern.probability
            if p != 0.0:
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                if buf[i] < p:
                    stats.frames_lost += 1
                    if observer is not None:
                        observer(frame, "lost", now)
                    if tap is not None:
                        tap.on_drop(now, True)
                    return True
        elif not self._lossless and self._should_drop(self._rng, frame, now):
            stats.frames_lost += 1
            if observer is not None:
                observer(frame, "lost", now)
            if tap is not None:
                tap.on_drop(now, True)
            return True

        buffered = self._buffered
        corrupt_p = self._corrupt_p
        if corrupt_p > 0.0:
            if buffered:
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                u = buf[i]
            else:
                u = self._rng.random()
            if u < corrupt_p:
                frame.corrupted = True
                stats.frames_corrupted += 1

        arrival = done + self._prop_s
        jit = self._jitter_s
        if jit > 0.0:
            if buffered:
                # uniform(0, j) computes exactly j * random(): same draw,
                # same double, bit-identical arrival
                i = self._u_i
                buf = self._u_buf
                if buf is None or i >= _BERN_BLOCK:
                    self._u_buf = buf = self._rng.random(_BERN_BLOCK).tolist()
                    i = 0
                self._u_i = i + 1
                arrival += jit * buf[i]
            else:
                arrival += float(self._rng.uniform(0.0, jit))
        if tap is not None:
            # stamped only after the loss draw: a lost frame's bits (and
            # its in-band records) never reach anything that could drain
            # them, matching real INT
            tap.on_transmit(frame, now, wire_bytes, done, arrival)
        if self.burst_epsilon > 0.0:
            self._fold_window(((arrival, frame),))
            return True
        # arrivals are never cancelled: handle-free fast path
        self._schedule_call_at(arrival, self._arrive, frame)
        return True

    # ------------------------------------------------------------------
    def send_train(self, pairs: list[tuple[float, Frame]]) -> int:
        """Process an ordered train of submits in one call.

        ``pairs`` is ``[(submit_time, frame), ...]`` with non-decreasing
        submit times at or after ``sim.now``.  Each frame's send body
        (:meth:`send_bodies`) runs now, in one Python frame instead of
        one engine event per frame -- the math uses each pair's submit
        time, never ``sim.now``, so running early is invisible to it --
        and the survivors fold into the epsilon window right away: the
        fold keys on each frame's *arrival* only, so no per-frame
        dispatch event is needed at all.

        Two observable differences from ``len(pairs)`` scalar
        :meth:`send` calls at the submit times, both inside what a
        positive epsilon already allows (protocol-equivalent, not
        schedule-identical):

        * a window stays joinable until its drain *fires*, so a frame
          whose submit falls after the drain instant joins early here
          where the scalar path would open a fresh window;
        * the busy chain is replayed in submit order within the train,
          so a scalar :meth:`send` submitting inside the train's span
          observes the whole train's backlog (and draws after the whole
          train), not the prefix in flight at its submit time -- as if
          the NIC had enqueued the burst's TX descriptors in one shot,
          which is what DPDK's TX burst does.

        Returns the number of frames accepted (= ``len(pairs)`` minus
        queue tail-drops, mirroring :meth:`send`'s return value).
        """
        records, accepted = self.send_bodies(pairs)
        self._fold_window(records)
        return accepted

    def _fold_window(self, records) -> None:
        """Fold ``(arrival, frame)`` records into the epsilon window.

        A window opener's arrival ``t0`` schedules the drain at
        ``t0 + eps``; records landing in ``[t0, t0 + eps]`` while the
        window is still open join it.  The drain clears the group ref,
        so a frame arriving after the drain fired opens a fresh window
        even if its timestamp is inside the old one.  Jittered arrivals
        can run backwards; those open a fresh window too.
        """
        eps = self.burst_epsilon
        group = self._arrive_group
        t0 = self._arrive_t
        for rec in records:
            arrival = rec[0]
            if group is not None and t0 <= arrival <= t0 + eps:
                group.append(rec)
            else:
                group = [rec]
                t0 = arrival
                self._arrive_group = group
                self._arrive_t = t0
                self._schedule_call_at(t0 + eps, self._drain_window, group)

    def send_bodies(
        self, pairs: list[tuple[float, Frame]]
    ) -> tuple[list[tuple[float, Frame]], int]:
        """Run the send bodies of a train; leave the fold to the caller.

        A frame's *send body* is everything :meth:`send` does short of
        creating engine entries: queue/backlog test, busy-chain
        serialization, stats, observer and telemetry taps, and the
        loss/corruption/jitter draws in per-frame stream order -- all
        computed from the pair's submit time.

        Returns ``(records, accepted)``: one ``(arrival, frame)`` record
        per surviving frame, in submit order, and ``len(pairs)`` minus
        queue tail-drops.
        """
        if self._deliver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")

        stats = self.stats
        observer = self.observer
        tap = self.telemetry
        rng = self._rng
        rate = self._rate_bps
        queue_bytes = self._queue_bytes
        prop = self._prop_s
        jit = self._jitter_s
        corrupt_p = self._corrupt_p
        buffered = self._buffered
        bern = self._bern
        lossless = self._lossless
        should_drop = self._should_drop
        busy = self._busy_until
        sent = 0
        lost = 0
        qdrops = 0
        bytes_sent = 0
        # the block-buffer cursor lives in locals for the whole sweep
        # (written back below); nothing else consumes this link's stream
        # while the bodies run
        u_i = self._u_i
        u_buf = self._u_buf
        records: list[tuple[float, Frame]] = []

        if (
            queue_bytes is None
            and observer is None
            and tap is None
            and corrupt_p == 0.0
            and jit == 0.0
            and (bern is not None or lossless)
        ):
            # the clean-link common case -- no queue cap, no corruption,
            # no jitter, no per-frame observer/tap: the body reduces to
            # the busy chain plus one Bernoulli draw
            n = len(pairs)
            p_loss = bern.probability if bern is not None else 0.0
            busy_time = stats.busy_time
            for t, frame in pairs:
                wire_bytes = frame.wire_bytes
                serialization = wire_bytes * 8.0 / rate
                done = (busy if busy > t else t) + serialization
                busy = done
                bytes_sent += wire_bytes
                busy_time += serialization
                if p_loss != 0.0:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    u = u_buf[u_i]
                    u_i += 1
                    if u < p_loss:
                        continue
                records.append((done + prop, frame))
            self._busy_until = busy
            self._u_i = u_i
            self._u_buf = u_buf
            stats.busy_time = busy_time
            stats.frames_sent += n
            stats.frames_lost += n - len(records)
            stats.bytes_sent += bytes_sent
            return records, n

        for t, frame in pairs:
            wire_bytes = frame.wire_bytes
            if queue_bytes is not None:
                backlog_s = busy - t
                if backlog_s > 0.0:
                    if backlog_s * rate / 8.0 + wire_bytes > queue_bytes:
                        qdrops += 1
                        if observer is not None:
                            observer(frame, "queue_dropped", t)
                        if tap is not None:
                            tap.on_drop(t, False)
                        continue
                elif wire_bytes > queue_bytes:
                    qdrops += 1
                    if observer is not None:
                        observer(frame, "queue_dropped", t)
                    if tap is not None:
                        tap.on_drop(t, False)
                    continue

            serialization = wire_bytes * 8.0 / rate
            done = (busy if busy > t else t) + serialization
            busy = done
            sent += 1
            bytes_sent += wire_bytes
            # accumulated per frame, not batched: float addition is not
            # associative, and busy_time must match the per-frame path
            # bit for bit
            stats.busy_time += serialization
            if observer is not None:
                observer(frame, "sent", t)

            if bern is not None:
                p = bern.probability
                if p != 0.0:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    u = u_buf[u_i]
                    u_i += 1
                    if u < p:
                        lost += 1
                        if observer is not None:
                            observer(frame, "lost", t)
                        if tap is not None:
                            tap.on_drop(t, True)
                        continue
            elif not lossless and should_drop(rng, frame, t):
                lost += 1
                if observer is not None:
                    observer(frame, "lost", t)
                if tap is not None:
                    tap.on_drop(t, True)
                continue

            if corrupt_p > 0.0:
                if buffered:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    u = u_buf[u_i]
                    u_i += 1
                else:
                    u = rng.random()
                if u < corrupt_p:
                    frame.corrupted = True
                    stats.frames_corrupted += 1

            arrival = done + prop
            if jit > 0.0:
                if buffered:
                    if u_buf is None or u_i >= _BERN_BLOCK:
                        u_buf = rng.random(_BERN_BLOCK).tolist()
                        u_i = 0
                    arrival += jit * u_buf[u_i]
                    u_i += 1
                else:
                    arrival += float(rng.uniform(0.0, jit))

            if tap is not None:
                tap.on_transmit(frame, t, wire_bytes, done, arrival)

            records.append((arrival, frame))

        self._busy_until = busy
        self._u_i = u_i
        self._u_buf = u_buf
        stats.frames_sent += sent
        stats.frames_lost += lost
        stats.frames_queue_dropped += qdrops
        stats.bytes_sent += bytes_sent
        return records, len(pairs) - qdrops

    def _arrive(self, frame: Frame) -> None:
        self.stats.frames_delivered += 1
        if self.observer is not None:
            self.observer(frame, "delivered", self.sim.now)
        self._deliver(frame)

    def _drain_window(self, pairs: list[tuple[float, Frame]]) -> None:
        """Deliver one epsilon-window group at ``t0 + eps``.

        Frames are handed over in arrival order (stable sort keeps send
        order for ties), so the receiver observes the same relative
        sequence it would have seen frame-by-frame -- just compressed to
        one instant.
        """
        if pairs is self._arrive_group:
            self._arrive_group = None
        pairs.sort(key=_submit_key)
        stats = self.stats
        stats.frames_delivered += len(pairs)
        observer = self.observer
        if observer is not None:
            t = self.sim.now
            for _, frame in pairs:
                observer(frame, "delivered", t)
        deliver_many = self._deliver_many
        if deliver_many is not None:
            deliver_many([frame for _, frame in pairs])
            return
        deliver = self._deliver
        for _, frame in pairs:
            deliver(frame)

    # ------------------------------------------------------------------
    @property
    def queue_delay(self) -> float:
        """Seconds a frame submitted now would wait before serializing."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.spec.rate_gbps}Gbps sent={self.stats.frames_sent}>"
