"""Minimized regression tests for real fuzzer findings.

Each test replays the *minimized* serialized draw a ``repro fuzz``
campaign caught and shrank (docs/TESTING.md describes the workflow).
They run through :func:`repro.sweep.fuzz.replay_draw` -- the same
entry the ``--replay`` CLI uses -- so the reproducer in the test is
exactly the line a future campaign would print.

Finding 1 -- overlapping link flaps (KeyError in the injector).
    Two flap windows on one member could overlap; the second window's
    start overwrote the saved loss model with the fault's own DropAll,
    and the first window's end restored the dead cable "forever" (or
    KeyError'd).  Fixed by depth-counting windows per target in both
    injectors.

Finding 2 -- switch reboot composed with a link flap (replay wedge).
    After a reboot the controller reinstalls the program and replays
    the collective from the survivors' prefix, but the workers' slot
    versions kept running from where they stopped while the reinstalled
    switch expected version 0: the run never converged.  Fixed by
    restarting worker versions (``reset_versions=True``) on the
    switch-path replay.

Finding 3 -- slot poisoning by a reordered stale retransmission.
    Under jitter, a late retransmission of a *completed* phase could
    arrive after the same worker's next-version absorb had cleared its
    seen bit: the switch misread seen==0/count==0 as a new phase,
    overwrote the pool with the stale chunk, and the genuine next
    phase was dropped as a duplicate -- identical wrong sums on every
    worker.  Fixed by the per-(version, slot) phase-offset discipline
    in :class:`~repro.core.switch_program.SwitchMLProgram`.
"""

import pytest

from repro.sweep.fuzz import replay_draw

pytestmark = pytest.mark.slow


def assert_clean(draw):
    out = replay_draw(draw)
    assert out["violations"] == [], out["violations"]
    return out


class TestOverlappingFlaps:
    # minimized from fuzz#d44 (root seed 20250807): two flap windows on
    # member 2 overlapping in time
    DRAW = {
        "domain": "rack",
        "run_seed": 160634357,
        "knobs": {"workers": 5, "pool": 16, "elements": 12800, "loss": 0.0},
        "plan": {"faults": [
            {"kind": "flap_link", "member": 2, "at_s": 0.0002,
             "down_for_s": 0.008},
            {"kind": "flap_link", "member": 2, "at_s": 0.0005,
             "down_for_s": 0.002},
        ]},
    }

    def test_overlapping_windows_heal_exactly_once(self):
        assert_clean(self.DRAW)


class TestRebootPlusFlapReplay:
    # minimized from fuzz#d117 (root seed 20250807): reboot at 0.54 ms
    # for 6 ms composed with a 4 ms flap of member 2's cable
    DRAW = {
        "domain": "rack",
        "run_seed": 77143990122,
        "knobs": {"workers": 4, "pool": 16, "elements": 12800, "loss": 0.0},
        "plan": {"faults": [
            {"kind": "reboot_switch", "at_s": 0.00054, "down_for_s": 0.006},
            {"kind": "flap_link", "member": 2, "at_s": 0.000028,
             "down_for_s": 0.004},
        ]},
    }

    def test_replay_after_reinstall_converges(self):
        out = assert_clean(self.DRAW)
        # the reboot must actually have forced a recovery for this to
        # have tested anything
        assert out["observables"]["recoveries"] >= 1

    def test_reboot_alone_converges(self):
        draw = {**self.DRAW,
                "plan": {"faults": [self.DRAW["plan"]["faults"][0]]}}
        assert_clean(draw)


class TestStaleRetransmissionSlotPoisoning:
    # minimized from fuzz#d23 (root seed 0): jittered links + staggered
    # starts + window coalescing; before the phase-offset discipline
    # this produced identical wrong sums on all five workers
    DRAW = {
        "domain": "flat",
        "run_seed": 177005020551573,
        "knobs": {
            "workers": 5, "pool": 8, "elements": 2784, "loss": 0.0,
            "jitter_us": 2.0, "burst_epsilon": 2e-05,
            "start_times_us": [107.0, 143.0, 164.0, 119.0, 136.0],
        },
    }

    def test_exact_sums_under_reordered_stale_retx(self):
        out = assert_clean(self.DRAW)
        # retransmissions are the trigger: without them the stale-phase
        # race cannot arise and the replay proves nothing
        assert out["observables"]["retransmissions"] > 0
