"""Tests for the protocol core (`repro.core.protocol`).

Covers the per-slot state both protocol ends share: one list per field,
in-place resets that keep hot-path aliases attached, snapshots, and the
deadline ordering contract the window path relies on.
"""

import numpy as np
import pytest

from repro import SwitchMLConfig, SwitchMLJob
from repro.core.protocol import SwitchSlotState, WorkerSlotState
from repro.core.switch_program import SwitchMLProgram

INF = float("inf")


def _scrambled_worker_state(s: int = 8) -> WorkerSlotState:
    st = WorkerSlotState(s)
    for i in range(s):
        st.off[i] = i * 32
        st.ver[i] = i % 2
        st.next_ver[i] = (i + 1) % 2
        st.deadline[i] = i * 1e-3 + 1e-3
        st.arm_seq[i] = i + 10
        st.sent_at[i] = i * 0.5
        st.retransmitted[i] = bool(i % 2)
        st.retries[i] = i
        st.backoff[i] = float(1 << i)
    return st


def _lists(obj) -> dict[str, list]:
    return {name: v for name, v in vars(obj).items() if isinstance(v, list)}


def _brute_force_due(st: WorkerSlotState, now: float) -> list[int]:
    return sorted(
        (i for i in range(st.s) if st.deadline[i] <= now),
        key=lambda i: (st.deadline[i], st.arm_seq[i]),
    )


class TestWorkerSlotState:
    def test_rejects_nonpositive_pool(self):
        with pytest.raises(ValueError):
            WorkerSlotState(0)

    def test_field_partition_is_exhaustive(self):
        # every attribute but the pool size is a per-slot list of
        # builtins, and snapshot() covers exactly those lists
        st = WorkerSlotState(4)
        lists = _lists(st)
        assert set(vars(st)) == set(lists) | {"s"}
        for name, values in lists.items():
            assert len(values) == 4, name
            assert type(values[0]) in (int, float, bool), name
        assert set(st.snapshot()) == set(lists)

    def test_snapshot_is_deep(self):
        st = _scrambled_worker_state()
        snap = st.snapshot()
        st.off[0] = 999
        st.retries[0] = 999
        assert snap["off"][0] != 999
        assert snap["retries"][0] != 999

    def test_begin_resets_in_place_and_keeps_sticky_fields(self):
        st = _scrambled_worker_state()
        next_ver_before = list(st.next_ver)
        backoff_before = list(st.backoff)
        aliases = _lists(st)
        st.begin()
        # per-aggregation state cleared ...
        assert not any(st.off)
        assert not any(st.ver)
        assert not any(st.sent_at)
        assert not any(st.arm_seq)
        assert not any(st.retransmitted)
        assert not any(st.retries)
        assert all(d == INF for d in st.deadline)
        # ... in place ...
        for name, alias in aliases.items():
            assert getattr(st, name) is alias, name
        # ... while stream-continuity state survives (Appendix B)
        assert st.next_ver == next_ver_before
        assert st.backoff == backoff_before

    def test_due_orders_by_deadline_then_arm_seq(self):
        st = WorkerSlotState(6)
        #            slot:    0     1     2     3     4    5
        st.deadline[:] = [3e-3, 1e-3, 2e-3, 1e-3, INF, 1e-3]
        st.arm_seq[:] = [0, 7, 1, 2, 3, 5]
        # expired: deadline <= 2e-3 -> slots 1, 2, 3, 5; ties at 1e-3
        # fire in arming order (3: seq 2, 5: seq 5, 1: seq 7)
        assert st.due(2e-3) == [3, 5, 1, 2]

    @pytest.mark.parametrize("s", [6, 128, 512])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_due_matches_brute_force_sort(self, s, seed):
        rng = np.random.default_rng([seed, s])
        st = WorkerSlotState(s)
        # a coarse grid makes exact deadline ties common; a third unarmed
        st.deadline[:] = [
            INF if rng.random() < 0.3 else float(rng.integers(0, 8)) * 1e-4
            for _ in range(s)
        ]
        st.arm_seq[:] = [int(x) for x in rng.permutation(s)]
        for now in (-1.0, 0.0, 2e-4, 3.5e-4, 7e-4, 1.0):
            assert st.due(now) == _brute_force_due(st, now), now
        assert len(st.due(1.0)) == sum(d != INF for d in st.deadline)

    @pytest.mark.parametrize("s", [6, 128, 512])
    def test_due_none_and_all_expired(self, s):
        st = WorkerSlotState(s)
        assert st.due(1.0) == []  # nothing armed
        st.deadline[:] = [5e-4] * s  # everything expired, tied
        st.arm_seq[:] = list(range(s))[::-1]
        assert st.due(1e-3) == list(range(s - 1, -1, -1))
        assert st.due(4e-4) == []  # armed, none expired yet

    def test_min_deadline_and_clear(self):
        st = WorkerSlotState(4)
        deadline = st.deadline
        assert st.min_deadline() == INF
        st.deadline[2] = 0.5
        st.deadline[1] = 0.25
        assert st.min_deadline() == 0.25
        st.clear_deadlines()
        assert st.min_deadline() == INF
        assert st.deadline is deadline


class TestSwitchSlotState:
    def _scrambled(self, n=3, s=4, k=2) -> SwitchSlotState:
        st = SwitchSlotState(n, s, k)
        st.pool.write_range(0, 4, np.array([5, 6, 7, 8], dtype=np.int64))
        st.count.write(1, 2)
        st.seen.write(1 * n + 0, 1)
        st.seen.write(1 * n + 2, 1)
        st.seen_pop[1] = 2
        st.off_cells[1] = 64
        return st

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSlotState(0, 4, 2)
        with pytest.raises(ValueError):
            SwitchSlotState(2, 0, 2)

    def test_snapshot_is_a_copy(self):
        st = self._scrambled()
        snap = st.snapshot()
        st.reset()
        assert list(snap["pool"][:4]) == [5, 6, 7, 8]
        assert snap["count"][1] == 2
        assert list(snap["seen"][3:6]) == [1, 0, 1]
        assert snap["seen_pop"][1] == 2 and snap["off"][1] == 64
        assert st.count.read(1) == 0 and st.seen_pop[1] == 0

    def test_reset_clears_in_place(self):
        st = self._scrambled()
        seen_alias = st.seen.cells
        count_alias = st.count.cells
        pop_alias = st.seen_pop
        off_alias = st.off_cells
        st.reset()
        assert st.seen.cells is seen_alias and not any(seen_alias)
        assert st.count.cells is count_alias and not any(count_alias)
        assert st.seen_pop is pop_alias and not any(pop_alias)
        assert st.off_cells is off_alias and set(off_alias) == {-1}


# ----------------------------------------------------------------------
# the adapters' aliases stay attached to the core's lists
# ----------------------------------------------------------------------

_WORKER_ALIASES = {
    "_slot_off": "off", "_slot_ver": "ver", "_next_ver": "next_ver",
    "_slot_sent_at": "sent_at", "_slot_retransmitted": "retransmitted",
    "_slot_retries": "retries", "_slot_backoff": "backoff",
}


def _assert_worker_bound(w):
    for alias, field in _WORKER_ALIASES.items():
        assert getattr(w, alias) is getattr(w._st, field), alias


def _assert_program_bound(prog):
    st = prog.state
    assert prog._seen_bits is st.seen.cells
    assert prog._count_cells is st.count.cells
    assert prog._seen_pop is st.seen_pop
    assert prog._off_cells is st.off_cells


class TestAliases:
    def test_worker_aliases_survive_begin_and_clear_deadlines(self):
        job = SwitchMLJob(SwitchMLConfig(
            num_workers=2, pool_size=8, elements_per_packet=32, seed=1,
            burst_epsilon=2e-5,
        ))
        w = job.workers[0]
        _assert_worker_bound(w)
        st, deadline = w._st, w._st.deadline
        assert job.all_reduce(num_elements=32 * 8 * 4, verify=False).completed
        assert job.all_reduce(num_elements=32 * 8 * 2, verify=False).completed
        assert w._st is st and st.deadline is deadline
        _assert_worker_bound(w)
        _assert_program_bound(job.program)  # after two begin_reduction()s
        st.clear_deadlines()
        assert st.deadline is deadline
        _assert_worker_bound(w)

    def test_worker_reconfigure_rebinds(self):
        job = SwitchMLJob(SwitchMLConfig(num_workers=2, pool_size=8,
                                         elements_per_packet=32, seed=1))
        w = job.workers[0]
        old = w._st
        w.reconfigure(pool_size=4)
        assert w._st is not old and w._st.s == 4
        _assert_worker_bound(w)
        w._st.backoff[3] = 16.0
        assert w._slot_backoff[3] == 16.0

    def test_program_aliases_survive_reset_and_begin_reduction(self):
        prog = SwitchMLProgram(3, 4, 2)
        _assert_program_bound(prog)
        prog.state.seen.cells[5] = 1
        prog.state.off_cells[2] = 96
        prog.state.reset()
        _assert_program_bound(prog)
        assert prog._seen_bits[5] == 0 and prog._off_cells[2] == -1
        prog._off_cells[2] = 96
        prog.begin_reduction()
        _assert_program_bound(prog)
        assert set(prog.state.off_cells) == {-1}
