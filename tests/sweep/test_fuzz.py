"""The fuzzer's own contract: deterministic draws, standalone replay,
working minimization, and a small clean campaign.

The draws-are-pure-functions-of-the-seed property is what turns any
fuzz failure into a one-line reproducer; the regression suite in
``tests/integration/test_fuzz_regressions.py`` holds the minimized
draws past campaigns actually caught.
"""

import pytest

from repro.sweep.fuzz import (
    DOMAINS,
    draw_scenario,
    minimize_failure,
    replay_draw,
    run_draw,
    run_fuzz,
)


class TestDrawGeneration:
    def test_same_seed_same_draw(self):
        for seed in (0, 1, 17, 123456789):
            assert draw_scenario(seed) == draw_scenario(seed)

    def test_draws_are_json_round_trippable(self):
        import json

        for seed in range(20):
            draw = draw_scenario(seed)
            assert json.loads(json.dumps(draw)) == draw

    def test_domain_restriction(self):
        for seed in range(10):
            assert draw_scenario(seed, domains=("rack",))["domain"] == "rack"

    def test_all_domains_reachable(self):
        seen = {draw_scenario(seed)["domain"] for seed in range(60)}
        assert seen == set(DOMAINS)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz domain"):
            draw_scenario(0, domains=("flat", "bogus"))

    def test_rack_plans_keep_two_survivors(self):
        for seed in range(80):
            draw = draw_scenario(seed, domains=("rack",))
            crashes = [
                f for f in draw["plan"]["faults"]
                if f["kind"] == "crash_worker"
            ]
            assert draw["knobs"]["workers"] - len(crashes) >= 2

    def test_fabric_plans_keep_a_spine(self):
        for seed in range(80):
            draw = draw_scenario(seed, domains=("fabric",))
            crashes = [
                f for f in draw["plan"]["faults"]
                if f["kind"] == "crash_spine"
            ]
            assert len(crashes) < draw["knobs"]["spines"]

    def test_flat_draws_cover_the_execution_dial(self):
        # epsilon is everything a draw says about execution shape:
        # every value is drawn, and no other execution knob is
        seen = set()
        for seed in range(200):
            k = draw_scenario(seed, domains=("flat",))["knobs"]
            seen.add(k["burst_epsilon"])
            assert "backend" not in k
        assert seen == {0.0, 5e-6, 2e-5, 5e-5}

    def test_widest_epsilon_draw_replays_clean(self):
        # 50 us windows need a timer longer than the fuzzer's usual
        # 100 us (4 x eps must stay under it); the runner stretches it
        draws = (draw_scenario(s, domains=("flat",)) for s in range(200))
        draw = next(
            d for d in draws
            if d["knobs"]["burst_epsilon"] == 5e-5 and d["knobs"]["loss"] > 0
        )
        out = run_draw(draw)
        assert out["violations"] == [], out["violations"]
        assert out["observables"]["retransmissions"] > 0


class TestReplay:
    def test_replay_is_deterministic(self):
        draw = draw_scenario(3, domains=("flat",))
        assert replay_draw(draw) == replay_draw(draw)

    @pytest.mark.parametrize("domain,knob", [
        ("flat", "granularity"), ("flat", "train_egress"), ("fabric", "train_cap"),
        ("flat", "backend"),
    ])
    def test_retired_knob_in_a_replay_line_is_rejected(self, domain, knob):
        # a line recorded before the knob was removed must not run as if
        # the knob had never been there
        draw = draw_scenario(3, domains=(domain,))
        draw["knobs"][knob] = 1
        with pytest.raises(ValueError, match=knob):
            replay_draw(draw)

    def test_crash_reported_as_violation_not_raised(self):
        draw = draw_scenario(3, domains=("rack",))
        draw["plan"]["faults"] = [
            {"kind": "crash_worker", "member": 999, "at_s": 0.0}
        ]
        out = run_draw(draw)
        assert out["violations"]
        assert out["violations"][0].startswith("crash:")


class TestMinimize:
    def test_minimize_drops_irrelevant_faults(self):
        # a guaranteed-failing draw: crash an unknown member (arming
        # raises -> "crash:" violation), padded with harmless faults
        # the minimizer must strip
        draw = draw_scenario(5, domains=("rack",))
        draw["knobs"]["loss"] = 0.01
        draw["plan"]["faults"] = [
            {"kind": "flap_link", "member": 0, "at_s": 1e-4,
             "down_for_s": 1e-3},
            {"kind": "crash_worker", "member": 999, "at_s": 0.0},
            {"kind": "flap_link", "member": 1, "at_s": 2e-4,
             "down_for_s": 1e-3},
        ]
        small, result = minimize_failure(draw)
        assert result["violations"]
        assert small["plan"]["faults"] == [
            {"kind": "crash_worker", "member": 999, "at_s": 0.0}
        ]
        assert small["knobs"]["loss"] == 0.0  # knob simplification too

    def test_minimize_refuses_passing_draw(self):
        draw = draw_scenario(0, domains=("flat",))
        draw_ok = dict(draw)
        # strip any faults so it passes
        draw_ok.pop("plan", None)
        with pytest.raises(ValueError, match="does not fail"):
            minimize_failure(draw_ok)


class TestCampaign:
    @pytest.mark.slow
    def test_small_campaign_clean_and_resumable(self, tmp_path):
        art = tmp_path / "fuzz.jsonl"
        report = run_fuzz(budget=12, root_seed=0, artifact=art)
        assert report.ok, (report.errors, report.minimized)
        assert report.draws == 12

        # resuming the same budget re-runs nothing
        again = run_fuzz(budget=12, root_seed=0, artifact=art, resume=True)
        assert again.ok
        assert again.draws == 12
