"""The fig4 sweep scenario's protocol fingerprint over link conditions.

The witness is :func:`repro.sweep.scenarios.protocol_fingerprint`:
per-worker TATs, packet/retransmission counts, frames lost, and the
result checksum -- everything a paper figure would be built from.

Checked over clean, lossy, jittered, and lossy+jittered links: loss
exercises the retransmission path, jitter the reordering path, and
their product the interaction the fuzzer's finding 3 lived in.
"""

import pytest

from repro.sweep.scenarios import run_scenario
from repro.sweep.tasks import derive_seed

LINKS = {
    "clean": {"loss": 0.0, "jitter_us": 0.0},
    "lossy": {"loss": 0.01, "jitter_us": 0.0},
    "jittered": {"loss": 0.0, "jitter_us": 2.0},
    "lossy_jittered": {"loss": 0.01, "jitter_us": 2.0},
}

BASE = {"workers": 4, "pool": 8, "elements": 32 * 96, "timeout_s": 1e-4}


def fingerprint(seed: int, **knobs):
    return run_scenario("fig4", {**BASE, **knobs}, seed)["fingerprint"]


def seeds(tag: str, n: int = 3):
    return [derive_seed(0, f"xcfg:{tag}#{i}") for i in range(n)]


@pytest.mark.parametrize("link", sorted(LINKS))
def test_fingerprints_complete_and_exact(link):
    for seed in seeds(link):
        fp = fingerprint(seed, **LINKS[link])
        assert fp["completed"]
        assert fp["result_sha"] is not None


class TestLossActuallyExercisesRecovery:
    """Guard the guards: the lossy rows must really retransmit, else
    the matrix silently degenerates to the clean case."""

    def test_lossy_runs_retransmit(self):
        hit = 0
        for seed in seeds("lossy"):
            fp = fingerprint(seed, **LINKS["lossy"])
            hit += sum(fp["retransmissions"]) > 0
        assert hit > 0
