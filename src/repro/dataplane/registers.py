"""Stateful register arrays with switch-ALU semantics.

A Tofino register array is a column of fixed-width integer cells living
in one pipeline stage's SRAM.  Per packet, a stage can read-modify-write
one cell (or one pair of cells via a 64-bit access -- the trick the paper
uses to serve both pool versions with one array, SSB: "our P4 program
makes the most use of the limited memory operations by performing the
widest memory accesses possible (64 bits). We then use the upper and
lower part of each register for alternate pools").

Arithmetic wraps at the register width, exactly like the ASIC's ALUs; the
quantization layer's overflow theorems (Appendix C) are what make the
wraparound harmless in practice, and the tests exercise both sides of
that boundary.

Performance notes: SwitchML processes one packet per simulator event, so
these methods are the simulation's inner loop.  Narrow cells (counters,
``seen`` bits) are always a plain Python list, ``RegisterArray.cells``,
which the programs index directly -- integer ops there are ~10x cheaper
than single-element numpy access -- while value cells are always a
32-bit numpy array whose native two's-complement wraparound *is* the ALU
semantics, operated on through contiguous slices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegisterArray", "RegisterFile"]


class RegisterArray:
    """A fixed-width integer register column.

    Parameters
    ----------
    name:
        Debug / accounting label.
    length:
        Number of cells.
    width_bits:
        Cell width; 32 for SwitchML value cells.  Cells behave as signed
        two's-complement integers of this width (1- and 8-bit cells are
        unsigned flags/counters, as in the P4 program).

    Narrow (1/8/16-bit) cells are a plain list, public as ``cells`` so
    per-packet code can index it directly (bumping ``accesses`` itself);
    wide cells are a NumPy array behind the range operations.
    """

    _DTYPES = {32: np.int32, 64: np.int64}

    def __init__(self, name: str, length: int, width_bits: int = 32):
        if length <= 0:
            raise ValueError(f"register array {name}: length must be positive")
        if width_bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"register array {name}: unsupported width {width_bits}")
        self.name = name
        self.length = length
        self.width_bits = width_bits
        self.accesses = 0
        if width_bits in self._DTYPES:
            self._cells: np.ndarray | None = np.zeros(
                length, dtype=self._DTYPES[width_bits]
            )
            self.cells: list[int] | None = None
        else:
            # narrow cells: scalar access dominates; Python ints win.
            self._cells = None
            self.cells = [0] * length
            self._mask = (1 << width_bits) - 1

    # -- single-cell ops ------------------------------------------------
    def read(self, index: int) -> int:
        self.accesses += 1
        if self.cells is not None:
            return self.cells[index]
        return int(self._cells[index])

    def write(self, index: int, value: int) -> None:
        self.accesses += 1
        if self.cells is not None:
            self.cells[index] = value & self._mask
        else:
            # numpy wraps on assignment of out-of-range ints via masking
            self._cells[index] = self._wrap_scalar(value)

    def add(self, index: int, value: int) -> int:
        """Read-modify-write add; returns the post-add cell value."""
        self.accesses += 1
        if self.cells is not None:
            result = (self.cells[index] + value) & self._mask
            self.cells[index] = result
            return result
        result = self._wrap_scalar(int(self._cells[index]) + value)
        self._cells[index] = result
        return result

    def _wrap_scalar(self, value: int) -> int:
        bits = self.width_bits
        span = 1 << bits
        wrapped = value & (span - 1)
        if wrapped >= span >> 1:
            wrapped -= span
        return wrapped

    # -- contiguous vector ops (one access per packet per array) ---------
    def read_range(self, start: int, stop: int) -> np.ndarray:
        """A *copy* of ``[start, stop)`` in the cells' native dtype.

        The copy is deliberate: result packets assembled from a slot must
        stay intact when the next phase's first contribution overwrites
        that slot (the shadow-copy recycling of Algorithm 3).  The copy
        stays at the native cell width -- values are already wrapped, so
        the old widening ``astype(int64)`` doubled the bytes moved per
        read for nothing (consumers upcast on use).
        """
        self.accesses += 1
        return self._cells[start:stop].copy()

    def read_range_view(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy read-only window over ``[start, stop)``.

        Valid only until the next write to the range; for in-pipeline
        arithmetic that consumes the values immediately (e.g. the fp16
        egress conversion), never for data handed to packets.
        """
        self.accesses += 1
        return self._cells[start:stop]

    def write_range(self, start: int, stop: int, values: np.ndarray) -> None:
        self.accesses += 1
        # array assignment casts to the cell dtype, which wraps exactly
        # like the ALU (and like the astype() temporary it replaces)
        self._cells[start:stop] = values

    def fill_range(self, start: int, stop: int, value: int = 0) -> None:
        """Constant-fill ``[start, stop)`` without allocating a source
        array (the lossless program zeroes a slot on every release)."""
        self.accesses += 1
        self._cells[start:stop] = value

    def add_range(self, start: int, stop: int, values: np.ndarray) -> np.ndarray:
        """Vectorised read-modify-write add over ``[start, stop)``.

        Native fixed-width addition: overflow wraps, as on the switch.
        Returns the live cell *view* (this runs once per packet; the old
        ``astype(int64)`` materialized a copy that every protocol caller
        discarded).  Callers that keep the result must copy it.
        """
        self.accesses += 1
        cells = self._cells
        view = cells[start:stop]
        view += values.astype(cells.dtype, copy=False)
        return view

    # -- accounting -----------------------------------------------------
    @property
    def sram_bytes(self) -> int:
        return self.length * self.width_bits // 8

    def reset(self) -> None:
        # clear in place: programs alias `cells` for their hot paths,
        # and rebinding would silently detach those aliases
        if self.cells is not None:
            self.cells[:] = [0] * self.length
        else:
            self._cells[:] = 0

    def snapshot(self) -> np.ndarray:
        """Copy of the raw cell contents (for tests and debugging)."""
        if self.cells is not None:
            return np.array(self.cells, dtype=np.int64)
        return self._cells.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RegisterArray {self.name} {self.length}x{self.width_bits}b>"


class RegisterFile:
    """The set of register arrays a program has allocated.

    Tracks total SRAM so the resource report (SS5.5) can be produced from
    the live program rather than from a formula alone.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, RegisterArray] = {}

    def allocate(self, name: str, length: int, width_bits: int = 32) -> RegisterArray:
        if name in self._arrays:
            raise ValueError(f"register array {name} already allocated")
        array = RegisterArray(name, length, width_bits)
        self._arrays[name] = array
        return array

    def __getitem__(self, name: str) -> RegisterArray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def arrays(self) -> list[RegisterArray]:
        return list(self._arrays.values())

    @property
    def total_sram_bytes(self) -> int:
        return sum(a.sram_bytes for a in self._arrays.values())

    def reset(self) -> None:
        for array in self._arrays.values():
            array.reset()
