"""Regression tests for RegisterArray view/alias liveness across reset.

PR 3 made ``RegisterArray.reset()`` clear storage *in place* so that
hot-path aliases -- NumPy views from ``read_range_view``, the arrays
returned by ``add_range``, and the ``cells`` list the switch program
binds -- stay attached across pool recycling.  These tests pin that
invariant: a reset must be visible *through* a previously taken view,
and writes through the register must be visible in old views afterward.
"""

import numpy as np

from repro.dataplane.registers import RegisterArray, RegisterFile


class TestViewLivenessAcrossReset:
    def test_read_range_view_stays_live_across_reset(self):
        reg = RegisterArray("pool", 16, width_bits=32)
        reg.write_range(0, 8, np.arange(8, dtype=np.int64))
        view = reg.read_range_view(0, 8)
        assert list(view) == list(range(8))

        reg.reset()
        # the view aliases the same storage: it must observe the clear
        assert not view.any()
        # and new writes through the register surface in the old view
        reg.write_range(0, 4, np.full(4, 7, dtype=np.int64))
        assert list(view[:4]) == [7, 7, 7, 7]

    def test_view_is_a_view_not_a_copy(self):
        reg = RegisterArray("pool", 8, width_bits=32)
        view = reg.read_range_view(2, 6)
        assert view.base is not None  # shares memory with the cells
        reg.write(2, 99)
        assert view[0] == 99

    def test_read_range_is_a_copy(self):
        reg = RegisterArray("pool", 8, width_bits=32)
        snap = reg.read_range(0, 4)
        reg.write(0, 123)
        assert snap[0] == 0

    def test_add_range_result_reflects_storage_after_reset(self):
        reg = RegisterArray("pool", 8, width_bits=32)
        reg.add_range(0, 4, np.ones(4, dtype=np.int64))
        view = reg.read_range_view(0, 4)
        assert list(view) == [1, 1, 1, 1]
        reg.reset()
        reg.add_range(0, 4, np.full(4, 5, dtype=np.int64))
        # post-reset adds start from zero, observed through the old view
        assert list(view) == [5, 5, 5, 5]

    def test_scalar_alias_stays_live_across_reset(self):
        # narrow registers use scalar list storage; the switch program
        # aliases `cells` directly on its per-packet path
        reg = RegisterArray("seen", 8, width_bits=1)
        alias = reg.cells
        reg.write(3, 1)
        assert alias[3] == 1
        reg.reset()
        assert alias is reg.cells
        assert alias[3] == 0

    def test_register_file_reset_preserves_aliases(self):
        rf = RegisterFile()
        pool = rf.allocate("pool", 8, width_bits=32)
        seen = rf.allocate("seen", 8, width_bits=1)
        pool_view = pool.read_range_view(0, 8)
        seen_alias = seen.cells
        pool.write(0, 42)
        seen.write(0, 1)
        rf.reset()
        assert pool_view[0] == 0
        assert seen_alias[0] == 0
        assert seen_alias is seen.cells
