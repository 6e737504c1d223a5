"""repro.obs -- the unified observability layer.

The paper's evaluation is an observability exercise: Figure 6's
per-10 ms send/resend timelines, SS5.1's wire-vs-host bottleneck
diagnosis, Figure 2's slot-pool sensitivity.  This package provides the
one API every subsystem reports through:

* :mod:`~repro.obs.registry` -- process metrics: :class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with label sets, no-op when
  disabled;
* :mod:`~repro.obs.tracer` -- typed events and spans on the simulated
  clock (packet tx/rx, slot claim/release, shadow reads, fence drops,
  recovery phases);
* :mod:`~repro.obs.telemetry` -- in-band network telemetry: per-hop
  frame stamping, interval time series per link/switch, and the
  congestion / straggler / hot-spine detectors feeding load-aware
  placement (opt-in via ``Observability(telemetry=True)``);
* :mod:`~repro.obs.export` -- JSONL and Chrome ``trace_event`` JSON
  exporters (a run opens directly in Perfetto);
* :mod:`~repro.obs.views` -- derived views: slot occupancy timelines,
  latency histograms, and the unified :class:`Dashboard`.

Instrumentation is **off by default**: components fall back to the
shared :data:`NULL_OBS`, whose instruments are no-ops.  Opt in per run::

    from repro.obs import Observability
    from repro.core.job import SwitchMLConfig, SwitchMLJob

    obs = Observability()                      # metrics + tracing on
    job = SwitchMLJob(SwitchMLConfig(obs=obs))
    job.all_reduce(num_elements=32 * 1024, verify=False)
    print(Dashboard.from_job(job).summary())

or process-wide with :func:`set_default`.  See docs/OBSERVABILITY.md
for the event taxonomy and the ``repro obs`` CLI.
"""

from repro.obs.base import NULL_OBS, Observability, get_default, set_default
from repro.obs.export import (
    chrome_trace,
    events_jsonl,
    telemetry_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_telemetry_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
)
from repro.obs.telemetry import (
    CongestionReport,
    HotSpineReport,
    StragglerReport,
    Telemetry,
    TelemetryCollector,
    TelemetryConfig,
    detect_congestion,
    detect_hot_spines,
    detect_stragglers,
)
from repro.obs.tracer import EventTracer, TraceEvent
from repro.obs.views import (
    Dashboard,
    SlotInterval,
    histogram_summary,
    occupancy_timeline,
    slot_intervals,
)

__all__ = [
    "CongestionReport",
    "Counter",
    "Dashboard",
    "EventTracer",
    "Gauge",
    "Histogram",
    "HotSpineReport",
    "MetricSample",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "SlotInterval",
    "StragglerReport",
    "Telemetry",
    "TelemetryCollector",
    "TelemetryConfig",
    "TraceEvent",
    "chrome_trace",
    "detect_congestion",
    "detect_hot_spines",
    "detect_stragglers",
    "events_jsonl",
    "get_default",
    "histogram_summary",
    "occupancy_timeline",
    "set_default",
    "slot_intervals",
    "telemetry_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_telemetry_json",
]
