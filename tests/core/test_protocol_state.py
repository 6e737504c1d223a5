"""Tests for the data-oriented protocol core (`repro.core.protocol`).

Covers the structure-of-arrays state both protocol ends share: snapshot
/ restore round trips, in-place resets that keep hot-path aliases live,
and the deadline ordering contract burst execution relies on.
"""

import math

import numpy as np
import pytest

from repro.core.protocol import SwitchSlotState, WorkerSlotState

INF = float("inf")


def _scrambled_worker_state(s: int = 8) -> WorkerSlotState:
    st = WorkerSlotState(s)
    st.off[:] = np.arange(s) * 32
    st.ver[:] = np.arange(s) % 2
    st.next_ver[:] = (np.arange(s) + 1) % 2
    st.deadline[:] = np.arange(s) * 1e-3 + 1e-3
    st.arm_seq[:] = np.arange(s) + 10
    st.rtt_sum[:] = np.arange(s) * 1e-6
    st.rtt_count[:] = np.arange(s)
    for i in range(s):
        st.sent_at[i] = i * 0.5
        st.retransmitted[i] = bool(i % 2)
        st.retries[i] = i
        st.backoff[i] = float(1 << i)
    st.tat_start = 1.25
    st.tat_finish = 9.75
    return st


class TestWorkerSlotState:
    def test_rejects_nonpositive_pool(self):
        with pytest.raises(ValueError):
            WorkerSlotState(0)

    def test_field_partition_is_exhaustive(self):
        st = WorkerSlotState(4)
        for name in WorkerSlotState.ARRAY_FIELDS:
            assert isinstance(getattr(st, name), np.ndarray), name
            # ... with a same-storage scalar view beside it
            assert getattr(st, name + "_v").obj is getattr(st, name), name
        for name in WorkerSlotState.SCALAR_FIELDS:
            assert isinstance(getattr(st, name), float), name

    def test_snapshot_restore_round_trip(self):
        st = _scrambled_worker_state()
        snap = st.snapshot()
        st.begin(start_time=3.0)  # clobber (almost) everything
        st.restore(snap)
        fresh = _scrambled_worker_state()
        for name in WorkerSlotState.ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(st, name), getattr(fresh, name), err_msg=name
            )
        for name in WorkerSlotState.SCALAR_FIELDS:
            assert getattr(st, name) == getattr(fresh, name), name

    def test_snapshot_is_deep(self):
        st = _scrambled_worker_state()
        snap = st.snapshot()
        st.off[0] = 999
        st.retries[0] = 999
        assert snap["off"][0] != 999
        assert snap["retries"][0] != 999

    def test_restore_preserves_aliases(self):
        st = _scrambled_worker_state()
        off_alias = st.off
        retries_alias = st.retries
        snap = st.snapshot()
        st.begin()
        st.restore(snap)
        assert st.off is off_alias
        assert st.retries is retries_alias
        assert off_alias[3] == 3 * 32
        assert retries_alias[3] == 3

    def test_begin_resets_in_place_and_keeps_sticky_fields(self):
        st = _scrambled_worker_state()
        next_ver_before = st.next_ver.copy()
        backoff_before = list(st.backoff)
        deadline_alias = st.deadline
        st.begin(start_time=2.5)
        # per-aggregation state cleared ...
        assert not st.off.any()
        assert not st.ver.any()
        assert not st.sent_at.any()
        assert not st.retransmitted.any()
        assert not st.retries.any()
        assert not st.rtt_sum.any()
        assert st.tat_start == 2.5
        assert math.isnan(st.tat_finish)
        # ... in place ...
        assert st.deadline is deadline_alias
        assert all(d == INF for d in deadline_alias)
        # ... while stream-continuity state survives (Appendix B)
        np.testing.assert_array_equal(st.next_ver, next_ver_before)
        assert list(st.backoff) == backoff_before

    def test_due_orders_by_deadline_then_arm_seq(self):
        st = WorkerSlotState(6)
        #            slot:    0     1     2     3     4    5
        st.deadline[:] = [3e-3, 1e-3, 2e-3, 1e-3, INF, 1e-3]
        st.arm_seq[:] = [0, 7, 1, 2, 3, 5]
        due = list(st.due(2e-3))
        # expired: deadline <= 2e-3 -> slots 1, 2, 3, 5; ties at 1e-3
        # fire in arming order (3: seq 2, 5: seq 5, 1: seq 7)
        assert due == [3, 5, 1, 2]

    def test_due_argpartition_matches_small_pool_reference(self):
        # pools above ARGPARTITION_THRESHOLD take the argpartition path;
        # it must return exactly the (deadline, arm_seq)-ordered expired
        # set the nonzero+lexsort reference produces
        rng = np.random.default_rng(3)
        s = 8 * WorkerSlotState.ARGPARTITION_THRESHOLD
        st = WorkerSlotState(s)
        dl = rng.uniform(0.0, 2e-3, size=s)
        dl[rng.random(s) < 0.4] = INF
        dl[:48] = 1e-3  # a fat tie right at the expiry boundary
        st.deadline[:] = dl
        st.arm_seq[:] = rng.permutation(s)
        now = 1e-3
        expect = np.nonzero(dl <= now)[0]
        expect = expect[np.lexsort((st.arm_seq[expect], dl[expect]))]
        assert expect.size > 1  # the partition path, not an edge case
        assert list(st.due(now)) == list(expect)

    def test_due_argpartition_none_and_all_expired(self):
        s = 2 * WorkerSlotState.ARGPARTITION_THRESHOLD
        st = WorkerSlotState(s)
        assert st.due(1.0).size == 0  # nothing armed
        st.deadline[:] = 5e-4  # everything expired, tied
        st.arm_seq[:] = np.arange(s)[::-1]
        assert list(st.due(1e-3)) == list(range(s - 1, -1, -1))

    def test_min_deadline_and_clear(self):
        st = WorkerSlotState(4)
        assert st.min_deadline() == INF
        st.deadline[2] = 0.5
        st.deadline[1] = 0.25
        assert st.min_deadline() == 0.25
        st.clear_deadlines()
        assert st.min_deadline() == INF

    def test_per_slot_mean_rtt_nan_for_no_samples(self):
        st = WorkerSlotState(3)
        st.rtt_sum[0] = 4e-6
        st.rtt_count[0] = 2
        mean = st.per_slot_mean_rtt()
        assert mean[0] == pytest.approx(2e-6)
        assert math.isnan(mean[1]) and math.isnan(mean[2])


class TestSwitchSlotState:
    def _scrambled(self, n=3, s=4, k=2) -> SwitchSlotState:
        st = SwitchSlotState(n, s, k)
        st.pool.write_range(0, 4, np.array([5, 6, 7, 8], dtype=np.int64))
        st.count.write(1, 2)
        st.seen.write(1 * n + 0, 1)
        st.seen.write(1 * n + 2, 1)
        st.seen_pop[1] = 2
        return st

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSlotState(0, 4, 2)
        with pytest.raises(ValueError):
            SwitchSlotState(2, 0, 2)

    def test_snapshot_restore_round_trip(self):
        st = self._scrambled()
        snap = st.snapshot()
        st.reset()
        assert st.count.read(1) == 0 and st.seen_pop[1] == 0
        st.restore(snap)
        assert list(st.pool.read_range(0, 4)) == [5, 6, 7, 8]
        assert st.count.read(1) == 2
        assert st.seen.read(1 * st.n + 0) == 1
        assert st.seen.read(1 * st.n + 1) == 0
        assert st.seen_pop[1] == 2

    def test_restore_preserves_hot_path_aliases(self):
        st = self._scrambled()
        seen_alias = st.seen_bits
        count_alias = st.count_cells
        pop_alias = st.seen_pop
        snap = st.snapshot()
        st.reset()
        st.restore(snap)
        assert st.seen_bits is seen_alias
        assert st.count_cells is count_alias
        assert st.seen_pop is pop_alias
        assert count_alias[1] == 2
        assert seen_alias[1 * st.n + 2] == 1

    def test_reset_clears_in_place(self):
        st = self._scrambled()
        seen_alias = st.seen_bits
        pop_alias = st.seen_pop
        st.reset()
        assert not any(seen_alias)
        assert not pop_alias.any()
