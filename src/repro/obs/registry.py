"""The metrics registry: counters, gauges, and histograms with labels.

Every subsystem in the repo keeps counters -- ``WorkerStats`` fields,
``SwitchMLProgram.multicasts``, ``LinkStats``, the control plane's event
log.  Those stay (they are cheap and always on); the registry is the
*unified* layer on top: components register named instruments once at
construction time, and one :meth:`MetricsRegistry.collect` call
snapshots the whole process.

Design constraints:

* **pull, don't push** -- hot paths do not tick instruments.  A
  component registers a *flusher* (:meth:`MetricsRegistry.on_collect`)
  that brings its instruments up to date from the plain counts it
  already keeps; every public read runs the flushers first.  Histogram
  samples are a list append until the next read folds them;
* **off-by-default and cheap when off** -- a disabled registry hands out
  shared null instruments whose methods are empty and drops flushers;
* **label sets** -- an instrument declared with ``label_names`` is a
  family; ``labels(...)`` interns one child per label-value tuple, so
  hot paths resolve their child once at setup and never pay a dict
  lookup per event.

Naming follows the Prometheus convention (``snake_case``, unit suffix,
``_total`` for counters) so a future scrape endpoint is a renderer, not
a refactor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]

#: Default histogram buckets, log-spaced for latencies in seconds:
#: 1 us .. 1 s, roughly half-decade steps.
DEFAULT_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


@dataclass(frozen=True)
class MetricSample:
    """One collected time-series point: ``(name, labels, value)``.

    Histograms flatten into ``_count`` / ``_sum`` / ``_bucket`` samples,
    mirroring the Prometheus exposition model.
    """

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


@functools.cache
def _family_of(leaf: type) -> type:
    """``leaf``'s labelled-family twin: its update methods raise."""
    def needs_labels(self, *args, **kwargs) -> None:
        raise ValueError(
            f"{self.name} declares labels {self._label_names}; "
            "call .labels(...) first"
        )

    updates = {"inc", "dec", "set", "observe", "observe_many"} & set(dir(leaf))
    return type(leaf.__name__, (leaf,), {
        "__slots__": (), "_leaf": leaf, **dict.fromkeys(updates, needs_labels),
    })


class _Instrument:
    """Common child machinery: a named instrument bound to label values.

    An instrument declared with ``label_names`` but no label values is a
    *family*; it becomes its kind's :func:`_family_of` twin, so updating
    it without ``labels(...)`` fails by dispatch and a leaf's updates
    carry no per-call check.
    """

    __slots__ = ("name", "help", "_label_names", "_children", "_labels")

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 labels: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self._label_names = label_names
        self._labels = labels
        # family-level: interned children by label-value tuple
        self._children: dict[tuple[str, ...], "_Instrument"] = {}
        if label_names and not labels:
            self.__class__ = _family_of(type(self))

    def labels(self, *values, **kv):
        """Return (and intern) the child for one label-value set."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(str(kv[name]) for name in self._label_names)
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self._label_names):
            raise ValueError(
                f"{self.name}: expected labels {self._label_names}, got {values}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._new_child(getattr(self, "_leaf", type(self)), values)
            self._children[values] = child
        return child

    def _new_child(self, leaf: type, values: tuple[str, ...]) -> "_Instrument":
        return leaf(self.name, self.help, self._label_names, values)

    def _label_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self._label_names, self._labels))

    def _leaves(self) -> Iterable["_Instrument"]:
        if self._label_names and not self._labels:
            for child in self._children.values():
                yield child
        else:
            yield self


class _Scalar(_Instrument):
    """A single-valued instrument."""

    __slots__ = ("_value",)

    def __init__(self, name, help="", label_names=(), labels=()):
        super().__init__(name, help, tuple(label_names), tuple(labels))
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[MetricSample]:
        return [
            MetricSample(leaf.name, leaf._label_pairs(), leaf._value)
            for leaf in self._leaves()
        ]


class Counter(_Scalar):
    """Monotonically increasing count."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


#: pending samples a histogram holds before folding them unprompted, so
#: a registry nobody reads stays bounded
_FOLD_AT = 4096


def _folded(attr: str) -> property:
    """A histogram statistic: fold the pending samples, then read."""
    def read(self):
        self._fold()
        return getattr(self, attr)

    return property(read)


class Histogram(_Instrument):
    """Cumulative-bucket histogram plus count / sum / min / max.

    ``observe`` is a list append; the samples are folded into the
    buckets, vectorised, by the next read of any statistic (or after
    ``_FOLD_AT`` of them).  The fold adds in observation order, so the
    statistics are exactly what one update per sample would give.
    """

    __slots__ = ("buckets", "_pending", "_bucket_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name, help="", label_names=(), labels=(),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, tuple(label_names), tuple(labels))
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"{name}: need at least one bucket bound")
        self._pending: list[float] = []
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def _new_child(self, leaf, values):
        # children inherit the family's bucket bounds
        return leaf(self.name, self.help, self._label_names, values,
                    buckets=self.buckets)

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_AT:
            self._fold()

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each of ``values``, in order."""
        pending = self._pending
        pending.extend(values)
        if len(pending) >= _FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        values = np.array(pending, dtype=np.float64)
        pending.clear()
        self._count += values.size
        # accumulate() adds strictly left to right: the same total, to
        # the bit, as one `sum += value` per sample
        self._sum = float(
            np.add.accumulate(np.concatenate(((self._sum,), values)))[-1]
        )
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        # side="left": the first bound with value <= bound; beyond the
        # last bound lands in the +Inf cell
        cells = np.searchsorted(self.buckets, values, side="left")
        folded = np.bincount(cells, minlength=len(self._bucket_counts)).tolist()
        self._bucket_counts = [a + b for a, b in zip(self._bucket_counts, folded)]

    count = _folded("_count")
    sum = _folded("_sum")
    min = _folded("_min")
    max = _folded("_max")
    bucket_counts = _folded("_bucket_counts")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper bound of the
        bucket containing the q-th observation; +Inf bucket reports
        ``max``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        seen = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            seen += n
            if seen >= target:
                return bound
        return self.max

    def samples(self) -> list[MetricSample]:
        out: list[MetricSample] = []
        for leaf in self._leaves():
            pairs = leaf._label_pairs()
            out.append(MetricSample(f"{leaf.name}_count", pairs, leaf.count))
            out.append(MetricSample(f"{leaf.name}_sum", pairs, leaf.sum))
            cumulative = 0
            for bound, n in zip(leaf.buckets, leaf.bucket_counts):
                cumulative += n
                out.append(MetricSample(
                    f"{leaf.name}_bucket", pairs + (("le", f"{bound:g}"),),
                    cumulative,
                ))
            cumulative += leaf.bucket_counts[-1]
            out.append(MetricSample(
                f"{leaf.name}_bucket", pairs + (("le", "+Inf"),), cumulative
            ))
        return out


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry.

    Every mutating method is a no-op ``pass``; ``labels`` returns
    ``self`` so labelled call sites stay branch-free too.  One instance
    of each kind serves the whole process.
    """

    __slots__ = ()

    def labels(self, *values, **kv):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    def samples(self) -> list[MetricSample]:
        return []


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Parameters
    ----------
    enabled:
        When False the registry hands out the shared null instruments,
        drops flushers, and :meth:`collect` returns nothing -- the whole
        metrics layer costs a handful of no-op calls.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, _Instrument] = {}
        self._flushers: list[Callable[[], None]] = []

    def on_collect(self, flusher: Callable[[], None]) -> None:
        """Run ``flusher()`` before every read (:meth:`get`,
        :meth:`names`, :meth:`collect`, :meth:`as_dict`, :meth:`render`).

        A flusher brings its component's instruments up to date from the
        plain counts the component keeps: a counter by the growth since
        the previous flush, a gauge by the current value.  The registry
        keeps the flusher, and so that component, alive.
        """
        if self.enabled:
            self._flushers.append(flusher)

    def _flush(self) -> None:
        for flusher in self._flushers:
            flusher()

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            if existing._label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} label mismatch: registered "
                    f"{existing._label_names}, requested {tuple(label_names)}"
                )
            return existing
        metric = cls(name, help=help, label_names=tuple(label_names), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def get(self, name: str) -> _Instrument | None:
        self._flush()
        return self._metrics.get(name)

    def names(self) -> list[str]:
        self._flush()
        return sorted(self._metrics)

    def collect(self) -> list[MetricSample]:
        """Snapshot every instrument as flat samples."""
        out: list[MetricSample] = []
        for name in self.names():
            out.extend(self._metrics[name].samples())
        return out

    def as_dict(self) -> dict:
        """JSON-friendly snapshot: ``{name{labels}: value}``."""
        out: dict[str, float] = {}
        for sample in self.collect():
            if sample.labels:
                key = sample.name + "{" + ",".join(
                    f"{k}={v}" for k, v in sample.labels
                ) + "}"
            else:
                key = sample.name
            out[key] = sample.value
        return out

    def render(self) -> str:
        """Human-readable table of every sample (skips empty buckets)."""
        from repro.harness.report import format_table

        rows = []
        for sample in self.collect():
            if sample.name.endswith("_bucket") and sample.value == 0:
                continue
            label_text = ", ".join(f"{k}={v}" for k, v in sample.labels)
            rows.append([sample.name, label_text, sample.value])
        return format_table(["metric", "labels", "value"], rows,
                            title="metrics registry")
