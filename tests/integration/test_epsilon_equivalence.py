"""The two execution paths against the spec, over the one dial.

``SwitchMLConfig.burst_epsilon`` selects the path: 0 runs the
per-packet bodies (the executable spec, holding the tracked
fingerprint), anything above runs the window-coalesced train path.  The
contract has two tiers:

* ``eps == 0`` *is* the reference: its event count, retransmissions and
  TAT on the Fig. 4 rack are pinned to the nanosecond;
* ``eps > 0`` is *protocol-equivalent*, not schedule-identical: drains
  move arrivals by up to ``eps`` per hop, so timings (and which
  individual packets get lost) may differ, but every aggregation must
  complete, every worker must hold the exact integer sum, every link
  must conserve frames, and retransmissions must stay in the regime the
  link condition implies -- the window must never manufacture or
  suppress recovery.

The matrix covers sub-RTT windows (the intended operating range; the
RTT here is ~11 us), about two RTTs, and a pathological 100 us -- still
under the quarter-timeout bound the config enforces -- over every link
condition that changes what a send body does.
"""

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss, NoLoss
from repro.obs import Observability

N_WORKERS = 8
K = 8
POOL = 32
N_ELEM = K * 512
SEED = 11

EPSILONS = [0.0, 5e-6, 2e-5, 1e-4]

CONDITIONS = {
    "clean": {},
    "loss": {"loss": 0.01},
    "jitter": {"link": LinkSpec(jitter_s=2e-6)},
    "loss+jitter": {"loss": 0.01, "link": LinkSpec(jitter_s=2e-6)},
    "corruption": {"link": LinkSpec(corruption_probability=0.01)},
    "finite_queue": {"link": LinkSpec(queue_bytes=1500)},
    "telemetry": {"loss": 0.01, "telemetry": True},
}


def _tensors():
    # sums of 8 values must fit the switch's 32-bit registers
    rng = np.random.default_rng(5)
    return [
        rng.integers(-2**27, 2**27, N_ELEM, dtype=np.int64)
        for _ in range(N_WORKERS)
    ]


def _run(eps, loss=0.0, link=None, telemetry=False, obs=None,
         check_invariants=False):
    if telemetry:
        obs = Observability(
            metrics_enabled=False, tracing_enabled=False, telemetry=True
        )
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=N_WORKERS,
        pool_size=POOL,
        elements_per_packet=K,
        seed=SEED,
        burst_epsilon=eps,
        link=link if link is not None else LinkSpec(),
        loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
        obs=obs,
        check_invariants=check_invariants,
    ))
    tensors = _tensors()
    res = job.all_reduce(tensors, verify=False)
    return {
        "completed": res.completed,
        "results": res.results,
        "expected": np.sum(tensors, axis=0, dtype=np.int64),
        "retx": res.retransmissions,
        "per_worker_retx": [s.retransmissions for s in res.worker_stats],
        "tats": [s.tensor_aggregation_time for s in res.worker_stats],
        "events": job.sim.events_processed,
        "links": job.rack.uplinks + job.rack.downlinks,
    }


@pytest.fixture(scope="module")
def reference():
    """The eps=0 run of every condition: what 'in regime' means."""
    return {name: _run(0.0, **cond) for name, cond in CONDITIONS.items()}


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_matrix(name, eps, reference):
    out = _run(eps, **CONDITIONS[name])
    assert out["completed"]
    for w, res in enumerate(out["results"]):
        np.testing.assert_array_equal(res, out["expected"], err_msg=f"worker {w}")
    assert all(link.stats.conservation_holds() for link in out["links"])
    ref = reference[name]
    if eps == 0.0:
        # the spec path: bit-identical to itself
        assert (out["per_worker_retx"], out["tats"], out["events"]) == (
            ref["per_worker_retx"], ref["tats"], ref["events"]
        )
    elif ref["retx"] == 0:
        # the window delays arrivals, it must never drop them: nothing
        # times out (4 * eps < the 1 ms RTO)
        assert out["retx"] == 0
    else:
        # epsilon reshuffles WHICH frames the draws hit, so counts
        # differ -- but recovery volume is set by the link condition
        assert 0.5 * ref["retx"] <= out["retx"] <= 2.0 * ref["retx"]


@pytest.mark.parametrize("eps", EPSILONS)
def test_telemetry_observes_never_steers(eps):
    lossy = _run(eps, **CONDITIONS["loss"])
    stamped = _run(eps, **CONDITIONS["telemetry"])
    for key in ("per_worker_retx", "tats", "events"):
        assert lossy[key] == stamped[key], key


@pytest.mark.parametrize("name", ["loss", "loss+jitter"])
def test_traced_and_checked_runs_match_the_plain_run(name):
    """The tracer and ``check_invariants`` observe the window path
    without steering it: same schedule as the plain run, to the event."""
    cond = CONDITIONS[name]
    plain = _run(2e-5, **cond)
    obs = Observability()
    traced = _run(2e-5, obs=obs, **cond)
    checked = _run(2e-5, check_invariants=True, **cond)
    for run in (traced, checked):
        for key in ("per_worker_retx", "tats", "events"):
            assert run[key] == plain[key], key
        for res in run["results"]:
            np.testing.assert_array_equal(res, plain["expected"])
    assert obs.tracer.count("slot.claim") == obs.tracer.count("slot.release") > 0


def test_epsilon_zero_is_the_pinned_reference():
    """The Fig. 4 rack, seed 7, 1 % loss (ROADMAP aim 3)."""
    job = SwitchMLJob(SwitchMLConfig(
        num_workers=8, pool_size=128, elements_per_packet=32, seed=7,
        loss_factory=lambda: BernoulliLoss(0.01),
    ))
    res = job.all_reduce(num_elements=32 * 8192, verify=False)
    assert res.completed
    assert job.sim.events_processed == 371_090
    assert res.retransmissions == 9_645
    assert f"{res.max_tat:.9f}" == "0.033694296"


class TestWhatTheDialBuys:
    def test_wider_windows_coalesce_more(self):
        events = [_run(eps, loss=0.01)["events"] for eps in EPSILONS]
        assert events[0] > 4 * events[1]
        assert events[-1] < events[1]

    def test_tat_inflation_is_bounded(self):
        # each hop adds at most eps of drain delay, so the self-clocked
        # pipeline slows by at most (hops per round) * eps per slot
        # round -- additive and linear in eps, never super-linear
        base = _run(0.0)
        eps = EPSILONS[-1]
        wide = _run(eps)
        rounds = N_ELEM // K // POOL  # chunks per slot
        hops = 6  # uplink, chassis, downlink, host (+ slack)
        assert max(wide["tats"]) > max(base["tats"])  # not a free speed-up
        assert max(wide["tats"]) <= max(base["tats"]) + hops * rounds * eps


class TestConfigValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="burst_epsilon=-1e-09"):
            SwitchMLConfig(burst_epsilon=-1e-9)

    def test_epsilon_a_quarter_of_the_timeout_rejected(self):
        # 8 workers, 1 % loss at eps=500 us used to run 20 984
        # retransmissions and report completed=False with no error: a
        # round trip crosses four windows, so every timer was spurious
        with pytest.raises(ValueError) as err:
            SwitchMLConfig(burst_epsilon=5e-4)
        assert "burst_epsilon=0.0005" in str(err.value)
        assert "timeout_s=0.001" in str(err.value)
        with pytest.raises(ValueError):
            SwitchMLConfig(burst_epsilon=2.5e-4)  # exactly a quarter

    def test_fabric_style_timeout_accepts_the_benchmark_epsilon(self):
        cfg = SwitchMLConfig(burst_epsilon=2e-5, timeout_s=1e-4)
        assert cfg.burst_epsilon == 2e-5
