"""The event-engine core: a calendar-queue/heap hybrid scheduler.

All times are float seconds.  Events scheduled at equal times fire in the
order they were scheduled (FIFO tie-break via a sequence counter), which is
what makes simulations bit-for-bit reproducible.

Scheduler architecture (see docs/PERFORMANCE.md)
------------------------------------------------
The dominant workload is *schedule-then-cancel*: every packet send arms a
retransmission timer (~100 us .. 1 ms out) that is cancelled when the
response arrives a few microseconds later.  A single binary heap pays
``O(log n)`` on every push and pop for entries that will never fire, so the
engine splits pending events in two:

* a **near heap** holding events inside the current timer-wheel bucket
  (entries are plain tuples; ordering uses C-level tuple comparison);
* a **timer wheel** (calendar queue with dict-of-lists buckets of width
  ``wheel_granularity_s``) holding events at or beyond the bucket horizon.
  Insertion is an O(1) list append; when the clock reaches a bucket it is
  *poured* into the near heap, silently discarding entries cancelled in
  the meantime -- the common fate of retransmission timers, which
  therefore never tax a single ``heappush``/``heappop``.

Because every wheel entry's time is at or beyond the horizon and every
heap entry's time is below it, the heap head is always the global
minimum, and pouring whole buckets in ``(time, seq)`` heap order keeps
event ordering bit-for-bit identical to a single heap.  A granularity
no simulation reaches (``wheel_granularity_s=1e9``) puts every entry in
the near heap -- that single heap -- which is the oracle the property
tests in ``tests/sim/test_scheduler_equivalence.py`` compare against.

Cancelled entries that do sit in the near heap are removed by periodic
*compaction*: when the dead fraction of all pending entries exceeds
``compact_dead_fraction`` the structures are rebuilt without them,
amortizing to O(1) per cancellation.  ``Simulator.pending`` is a live
counter maintained on schedule/fire/cancel -- O(1), never a heap scan.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable

import numpy as np

__all__ = ["Event", "SimulationError", "Simulator"]


class SimulationError(RuntimeError):
    """Raised for scheduling in the past, running a corrupted heap, etc."""


class Event:
    """A handle to a scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled
    (e.g. a retransmission timer cancelled when the response arrives, per
    Algorithm 4's ``cancel_timer``).  Cancellation is O(1): the event stays
    in its heap/bucket but is skipped when popped or poured, and the
    engine's live-event counter is decremented immediately.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # still pending: keep the live counter exact and let the
                # engine decide when lazy deletion warrants a compaction
                self._sim = None
                sim._note_cancel()

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<Event t={self.time:.9f} seq={self.seq} {state} fn={self.fn!r}>"


#: heap entries are ``(time, seq, event_or_None, fn, args)`` tuples; the
#: unique ``seq`` guarantees tuple comparison never reaches index 2, so
#: cancellable events (an :class:`Event` in slot 2) and anonymous fast
#: entries (``None`` in slot 2) share one heap.
_EVENT = 2
_FN = 3
_ARGS = 4


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed.  Every consumer of randomness asks for a *named*
        substream via :meth:`rng`; the stream is seeded from
        ``(seed, name)`` so adding a new consumer never perturbs the
        randomness seen by existing ones.
    wheel_granularity_s:
        Bucket width of the timer wheel.  The default (64 us) keeps
        packet-scale events (ns..us apart) in the near heap while
        retransmission timers (>= 100 us out) land in wheel buckets.
    compact_dead_fraction:
        Rebuild the pending structures once cancelled entries exceed this
        fraction of all pending entries (and ``compact_min_dead``).

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> out = []
    >>> _ = sim.schedule(2.0, out.append, "b")
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> sim.run()
    >>> out
    ['a', 'b']
    """

    def __init__(
        self,
        seed: int = 0,
        wheel_granularity_s: float = 64e-6,
        compact_dead_fraction: float = 0.5,
        compact_min_dead: int = 512,
    ):
        if wheel_granularity_s <= 0:
            raise ValueError("wheel granularity must be positive")
        if not 0.0 < compact_dead_fraction <= 1.0:
            raise ValueError("compact_dead_fraction must be in (0, 1]")
        self.seed = int(seed)
        self.now: float = 0.0
        self._heap: list[tuple] = []
        # plain int, bumped inline at each schedule site: a counter object
        # (itertools.count) costs a call per event in the hottest paths
        self._seq = 0
        self._rngs: dict[str, np.random.Generator] = {}
        self.events_processed = 0
        # live (scheduled, not yet fired or cancelled) entries -- this is
        # what `pending` reports, in O(1)
        self._live = 0
        # cancelled entries still sitting in the heap or a wheel bucket
        self._dead = 0
        self.compactions = 0
        self._compact_frac = float(compact_dead_fraction)
        self._compact_min = int(compact_min_dead)
        # timer wheel state: bucket index -> list of entries, plus a heap
        # of active bucket indices.  `_horizon_idx` is the first bucket
        # index not yet poured; entries below it go straight to the heap.
        self._gran = float(wheel_granularity_s)
        self._buckets: dict[int, list[tuple]] = {}
        self._bucket_heap: list[int] = []
        self._horizon_idx = 1
        # set by stop(): makes run_deadline return after the callback
        # that is running
        self._stop = False

    def attach_obs(self, obs) -> None:
        """Report engine activity through a :class:`repro.obs.base.
        Observability` layer: total events fired and a pending-events
        gauge, both pulled when the registry is read, so the event loop
        carries no instrumentation.  (:meth:`run_deadline` syncs
        ``events_processed`` on return: a read from inside one of its
        callbacks sees the count as of that call's entry.)"""
        if obs is None or not obs.metrics.enabled:
            return
        events = obs.metrics.counter("sim_events_total", "simulation events fired")
        pending = obs.metrics.gauge(
            "sim_pending_events", "events pending (incl. cancelled)"
        )
        flushed = 0

        def flush() -> None:
            nonlocal flushed
            events.inc(self.events_processed - flushed)
            flushed = self.events_processed
            pending.set(self._live + self._dead)

        obs.metrics.on_collect(flush)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        The insertion is inline: this path carries every retransmission
        timer (one per packet sent).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        # bucket first: int() rejects inf/nan before anything is counted
        bucket = int(time / self._gran)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args)
        event._sim = self
        self._live += 1
        if bucket >= self._horizon_idx:
            buckets = self._buckets
            lst = buckets.get(bucket)
            if lst is None:
                buckets[bucket] = [(time, seq, event, fn, args)]
                heapq.heappush(self._bucket_heap, bucket)
            else:
                lst.append((time, seq, event, fn, args))
        else:
            heapq.heappush(self._heap, (time, seq, event, fn, args))
        return event

    # NOTE: schedule_call / schedule_call_at repeat schedule_at's insertion
    # (and the seq bump) inline: they carry the bulk of the event volume --
    # one per frame hop -- and a call per insertion is measurable there.

    def schedule_call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path schedule with no cancellation handle.

        The network layers (links, serial resources, switch pipelines)
        schedule one event per frame hop and never cancel them; skipping
        the :class:`Event` allocation removes the largest single
        allocation source in the inner loop.
        """
        time = self.now + delay
        bucket = int(time / self._gran)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if bucket >= self._horizon_idx:
            buckets = self._buckets
            lst = buckets.get(bucket)
            if lst is None:
                buckets[bucket] = [(time, seq, None, fn, args)]
                heapq.heappush(self._bucket_heap, bucket)
            else:
                lst.append((time, seq, None, fn, args))
        else:
            heapq.heappush(self._heap, (time, seq, None, fn, args))

    def schedule_call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_call`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        bucket = int(time / self._gran)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if bucket >= self._horizon_idx:
            buckets = self._buckets
            lst = buckets.get(bucket)
            if lst is None:
                buckets[bucket] = [(time, seq, None, fn, args)]
                heapq.heappush(self._bucket_heap, bucket)
            else:
                lst.append((time, seq, None, fn, args))
        else:
            heapq.heappush(self._heap, (time, seq, None, fn, args))

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for a still-pending event."""
        self._live -= 1
        dead = self._dead + 1
        self._dead = dead
        if dead >= self._compact_min and dead > self._compact_frac * (
            dead + self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild pending structures without cancelled entries."""
        self._heap = [
            e for e in self._heap if e[_EVENT] is None or not e[_EVENT].cancelled
        ]
        heapq.heapify(self._heap)
        if self._buckets:
            for idx in list(self._buckets):
                kept = [
                    e
                    for e in self._buckets[idx]
                    if e[_EVENT] is None or not e[_EVENT].cancelled
                ]
                if kept:
                    self._buckets[idx] = kept
                else:
                    del self._buckets[idx]
            self._bucket_heap = sorted(self._buckets)
        self._dead = 0
        self.compactions += 1

    def _pour(self) -> bool:
        """Advance the wheel: move the earliest bucket into the heap.

        Returns False when no bucket remains.  Cancelled entries are
        dropped here, never having touched the heap.
        """
        bucket_heap = self._bucket_heap
        heap = self._heap
        while not heap and bucket_heap:
            idx = heapq.heappop(bucket_heap)
            self._horizon_idx = idx + 1
            dropped = 0
            for entry in self._buckets.pop(idx):
                ev = entry[_EVENT]
                if ev is not None and ev.cancelled:
                    dropped += 1
                else:
                    heapq.heappush(heap, entry)
            if dropped:
                self._dead -= dropped
        return bool(heap)

    def _peek_time(self) -> float | None:
        """Time of the next live entry, or None; skips/pours dead ones."""
        heap = self._heap
        while True:
            if not heap and not self._pour():
                return None
            entry = heap[0]
            ev = entry[_EVENT]
            if ev is not None and ev.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return entry[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        heap = self._heap
        pop = heapq.heappop
        while True:
            if not heap and not self._pour():
                return False
            entry = pop(heap)
            event = entry[_EVENT]
            if event is not None:
                if event.cancelled:
                    self._dead -= 1
                    continue
                event._sim = None  # fired: later cancel() is a no-op
            self.now = entry[0]
            self._live -= 1
            self.events_processed += 1
            entry[_FN](*entry[_ARGS])
            return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until none remain, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is inclusive: an event at exactly ``until`` still fires.
        After running with ``until``, the clock is advanced to ``until``
        even if the last event fired earlier, so repeated windows compose.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return
            head_time = self._peek_time()
            if head_time is None:
                break
            if until is not None and head_time > until:
                break
            if not self.step():
                break
            fired += 1
        if until is not None and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Make the running :meth:`run_deadline` return as soon as the
        current callback does, leaving every other pending event --
        equal-time ones included -- unfired.  Jobs whose heartbeat
        timers keep the queue populated forever call this from their
        completion callback.  Outside ``run_deadline`` it does nothing:
        the flag is cleared on entry and on exit."""
        self._stop = True

    def run_deadline(self, deadline: float) -> None:
        """Fire events until none remain, the clock passes ``deadline``,
        or a callback calls :meth:`stop`.

        Exactly ``while step(): if now > deadline: break`` -- the event
        that crosses the deadline still fires (jobs use this to bound
        wall-clock on runs that will never complete) -- but with the pop
        loop inlined, saving a method call per event on the hottest loop
        in the repo, and with the cyclic garbage collector paused for the
        loop (restored on every exit path).
        """
        pop = heapq.heappop
        self._stop = False
        # No run creates cyclic garbage (tests/sim/test_gc_pause.py pins
        # this), so the cyclic collector would only re-walk the live job
        # graph: pause it for the loop; reference counting still frees
        # everything.  A caller's own disabled collector stays disabled.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        # `events_processed` is only read between runs (nothing in src/
        # reads it from inside a callback), so it is accumulated in a
        # local and synced on every exit path; `_live` stays an attribute
        # because Event.cancel updates it concurrently from callbacks.
        fired = 0
        try:
            while True:
                # re-read each iteration: a callback may cancel events and
                # trigger _compact, which rebinds self._heap to a new list
                heap = self._heap
                if not heap and not self._pour():
                    return
                entry = pop(heap)
                event = entry[_EVENT]
                if event is not None:
                    if event.cancelled:
                        self._dead -= 1
                        continue
                    event._sim = None
                time = entry[0]
                self.now = time
                self._live -= 1
                fired += 1
                entry[_FN](*entry[_ARGS])
                if time > deadline or self._stop:
                    return
        finally:
            self._stop = False
            self.events_processed += fired
            if gc_was_enabled:
                gc.enable()

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Drain every event; guard against runaway simulations."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"simulation did not go idle within {max_events} events"
                )

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still scheduled.  O(1):
        maintained on schedule/fire/cancel, never a heap scan."""
        return self._live

    @property
    def pending_entries(self) -> int:
        """Total entries in the structures, including cancelled ones
        awaiting lazy removal (for tests and capacity gauges)."""
        return self._live + self._dead

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """Return the named random substream, creating it on first use."""
        generator = self._rngs.get(name)
        if generator is None:
            seed_seq = np.random.SeedSequence(self.seed, spawn_key=(_stable_hash(name),))
            generator = np.random.Generator(np.random.PCG64(seed_seq))
            self._rngs[name] = generator
        return generator


def _stable_hash(name: str) -> int:
    """A process-invariant 32-bit hash (``hash()`` is salted per process)."""
    value = 2166136261
    for byte in name.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
