"""Seed derivation and task expansion: the determinism bedrock.

Everything else in the sweep stack (parallel == serial, resume,
replayable fuzz draws) leans on per-task seeds being a pure, stable
function of ``(root_seed, task_id)``.
"""

from repro.sweep.tasks import TaskSpec, derive_seed, make_tasks


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a#s0") == derive_seed(0, "a#s0")

    def test_known_value_pinned(self):
        # regression pin: a change here silently invalidates every
        # recorded artifact, so it must be a deliberate, visible break
        assert derive_seed(0, "fuzz#d0") == 9220869457347890680

    def test_varies_with_task_id(self):
        seeds = {derive_seed(0, f"t#{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_varies_with_root_seed(self):
        assert derive_seed(0, "t#0") != derive_seed(1, "t#0")

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(7, f"x{i}") < 1 << 63

    def test_no_separator_collision(self):
        # "1:2x" vs "12:x" style collisions are exactly what the
        # "<root>:<task_id>" framing must not produce
        assert derive_seed(1, "2x") != derive_seed(12, "x")


class TestMakeTasks:
    def test_ids_encode_scenario_grid_and_seed_index(self):
        tasks = make_tasks(
            "fig4_lossy", 0, 2, grid={"burst_epsilon": [0.0, 2e-5]}
        )
        assert [t.task_id for t in tasks] == [
            "fig4_lossy,burst_epsilon=0.0#s0",
            "fig4_lossy,burst_epsilon=0.0#s1",
            "fig4_lossy,burst_epsilon=2e-05#s0",
            "fig4_lossy,burst_epsilon=2e-05#s1",
        ]

    def test_grid_product_with_shared_params(self):
        tasks = make_tasks(
            "fig4", 0, 1,
            params={"workers": 4},
            grid={"loss": [0.0, 0.01], "pool": [8, 16]},
        )
        assert len(tasks) == 4
        assert all(t.params["workers"] == 4 for t in tasks)
        combos = {(t.params["loss"], t.params["pool"]) for t in tasks}
        assert combos == {(0.0, 8), (0.0, 16), (0.01, 8), (0.01, 16)}

    def test_seeds_stable_across_invocations(self):
        a = make_tasks("fig4", 3, 4)
        b = make_tasks("fig4", 3, 4)
        assert [t.seed for t in a] == [t.seed for t in b]

    def test_spec_roundtrip(self):
        spec = TaskSpec(
            task_id="x#s0", scenario="fig4", params={"loss": 0.01}, seed=42
        )
        assert TaskSpec.from_dict(spec.to_dict()) == spec
