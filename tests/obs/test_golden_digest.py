"""Observability output pinned against the commit before the pull-model
metrics / bound-stamp telemetry rewrite.

``tests/obs/golden/<name>.json`` holds, for each configuration below,
what that commit produced: ``telemetry_json``, ``metrics.as_dict()``,
the drained counts, per-sink progress, and one hash per link / switch
series over every bucket field.  The rewrite changed how those values
are produced (collect-time flushers, stamps bound to their bucket at
the tap), not what they are, so the digests must still match.

Two keys differ by design and are compared separately:

* ``late_drops`` is new in ``telemetry_json`` (overflow made visible);
  it is removed before comparing and asserted to be zero;
* ``sim_pending_events`` used to hold the queue depth as of the last
  event fired; it is now read at collect time, i.e. what is pending
  *now*.

Regenerate (only ever from a commit whose output is the reference)::

    PYTHONPATH=<that commit>/src python tests/obs/test_golden_digest.py

The ``series`` hashes are over builtin values: the reference commit held
some bucket fields as ``np.float64`` (a retransmission deadline leaking
onto the simulated clock), whose ``repr`` is not the value's.  They were
regenerated, alone, from that same commit with the canonicalising hash
below; every other key is byte-identical to the first generation.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.fabric import (
    CongestTrunk,
    FabricConfig,
    FabricFaultInjector,
    FabricFaultPlan,
    FabricJob,
)
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss
from repro.obs import Observability, telemetry_json

GOLDEN = Path(__file__).parent / "golden"

#: read at collect time since the pull model (see the module docstring)
_REDEFINED = "sim_pending_events"


def _obs():
    return Observability(metrics_enabled=True, tracing_enabled=False, telemetry=True)


def _tensors(workers, elements, seed=7):
    rng = np.random.default_rng([seed, workers])
    return [rng.integers(-1000, 1000, elements, dtype=np.int64) for _ in range(workers)]


def _rack(elements, **knobs):
    obs = _obs()
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=8, pool_size=128, elements_per_packet=32, seed=7, obs=obs, **knobs
    ))
    res = job.all_reduce(_tensors(8, elements), verify=True)
    assert res.completed
    return obs


def _lossy(**knobs):
    return _rack(8192, loss_factory=lambda: BernoulliLoss(0.01), **knobs)


def _fabric_congested():
    obs = _obs()
    job = FabricJob(FabricConfig(
        num_leaves=2, num_spines=2, workers_per_leaf=4, seed=7, obs=obs
    ))
    plan = FabricFaultPlan().add(
        CongestTrunk(leaf=0, spine=job.active_spine, at_s=2e-4, down_for_s=1.5e-3)
    )
    FabricFaultInjector(job, plan).arm()
    assert job.all_reduce(_tensors(8, 16384), verify=True).completed
    return obs


CONFIGS = {
    # the perfbench `rack_observed` configuration, 1/8 of its tensor
    "rack_observed_small": lambda: _rack(32768),
    "lossy_jitter_reuse_on": lambda: _lossy(
        link=LinkSpec(jitter_s=2e-6), reuse_buffers=True
    ),
    "lossy_jitter_reuse_off": lambda: _lossy(
        link=LinkSpec(jitter_s=2e-6), reuse_buffers=False
    ),
    "burst_eps_train": lambda: _lossy(burst_epsilon=2e-5),
    "fabric_congest_trunk": _fabric_congested,
}


def _builtin(v):
    """``repr`` of a NumPy scalar names its type (and, since NumPy 2,
    differs from the builtin's): hash the value, not how it is held."""
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _series_hash(series):
    rows = [
        [_builtin(getattr(b, f)) for f in type(b).__slots__]
        for b in series.intervals()
    ]
    return hashlib.sha256(repr((rows, series.late_drops)).encode()).hexdigest()[:16]


def digest(obs):
    col = obs.telemetry.collector
    return {
        "telemetry_json": telemetry_json(obs.telemetry),
        "metrics": obs.metrics.as_dict(),
        "frames_drained": col.frames_drained,
        "hops_drained": col.hops_drained,
        "progress": dict(sorted(col.progress.items())),
        "progress_last_ts": dict(sorted(col.progress_last_ts.items())),
        "series": {
            name: _series_hash(s)
            for name, s in sorted({**col.links, **col.switches}.items())
            if len(s)
        },
    }


def _without_late_drops(doc):
    """``telemetry_json`` minus the ``late_drops`` keys, which must be 0."""
    doc = json.loads(json.dumps(doc))
    assert doc.pop("late_drops") == 0
    for section in ("links", "switches"):
        for entry in doc[section].values():
            assert entry.pop("late_drops") == 0
    return doc


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(json.dumps(digest(CONFIGS[name]())))
    got["telemetry_json"] = _without_late_drops(got["telemetry_json"])
    assert got["metrics"].pop(_REDEFINED) >= 0
    golden["metrics"].pop(_REDEFINED)
    for key in golden:
        assert got[key] == golden[key], key
    assert got.keys() == golden.keys()


@pytest.mark.slow
def test_rack_observed_full_size_counts():
    """The benchmark's `rack_observed` at seed 7: 65 536 updates stamped
    by uplink + pipeline, 65 536 results stamped by one downlink."""
    col = _rack(262144).telemetry.collector
    assert (col.frames_drained, col.hops_drained) == (131072, 196608)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, build in CONFIGS.items():
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(digest(build()), indent=1, sort_keys=True) + "\n"
        )
        print("wrote", name)
