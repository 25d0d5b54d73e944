"""Resident register state: one object per register array, two backings.

A :class:`RegisterFile` is what ``StateStore.registers[name]`` holds.  It is
a mapping ``(row, index) -> int`` — the dict the scalar interpreter always
used — that can also keep its cells in **columns**: a dense ``(rows, size)``
int64 ``cells`` array plus a bool ``present`` mask, which the vector kernels
of :mod:`repro.emulator.kernels` read and write in place.

* A file starts **sparse** (a plain dict).  States only the scalar
  interpreter touches never leave it.
* The first kernel that asks for columns **promotes** it, once; it then
  stays columnar and the scalar accessors index the arrays.
* A scalar write the columns cannot hold — a negative row or index, a value
  beyond ±2**62, growth past :data:`COLUMN_CELL_CAP` — **demotes** it back
  to a dict, once.  A demoted file refuses promotion (kernels bail to the
  scalar interpreter for that state) until it is cleared.

There is never a dict copy beside the arrays, and a conversion happens per
mode switch, never per batch.  The presence mask keeps an explicitly written
zero distinct from a never-written cell, so mapping equality with a plain
dict holds in either backing.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from itertools import chain
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

#: Register arrays above this many cells are not held in columns.
COLUMN_CELL_CAP = 1 << 25

#: Largest magnitude a columnar cell may hold: one int64 add of two such
#: values cannot wrap, which is the headroom the kernels' arithmetic assumes.
COLUMN_VALUE_LIMIT = 1 << 62

Cell = Tuple[int, int]


class RegisterFile(MutableMapping):
    """Cells of one register array, sparse (dict) or columnar (ndarrays)."""

    def __init__(self, decl=None, stats=None) -> None:
        self.rows = decl.rows if decl is not None else 1
        self.size = decl.size if decl is not None else 1
        #: optional ``DataplaneStats`` bag counting cells moved between backings
        self._stats = stats
        self._sparse: Optional[Dict[Cell, int]] = {}
        #: columnar backing (``None`` while sparse); ``cells`` is zero
        #: wherever ``present`` is false
        self.cells: Optional[np.ndarray] = None
        self.present: Optional[np.ndarray] = None
        #: set by a demotion or a failed promotion; cleared by :meth:`clear`
        self.pinned_sparse = False

    # -- mapping protocol --------------------------------------------------- #
    def _holds(self, row: int, index: int) -> bool:
        return (0 <= row < self.present.shape[0]
                and 0 <= index < self.present.shape[1]
                and bool(self.present[row, index]))

    def __getitem__(self, key: Cell) -> int:
        if self._sparse is not None:
            return self._sparse[key]
        if self._holds(*key):
            return int(self.cells[key])
        raise KeyError(key)

    def get(self, key: Cell, default=None):
        # the scalar interpreter's read: no KeyError round trip on a miss
        if self._sparse is not None:
            return self._sparse.get(key, default)
        return int(self.cells[key]) if self._holds(*key) else default

    def __setitem__(self, key: Cell, value: int) -> None:
        if self._sparse is None:
            row, index = key
            if (row >= 0 and index >= 0
                    and -COLUMN_VALUE_LIMIT <= value <= COLUMN_VALUE_LIMIT
                    and self.ensure(row + 1, index + 1)):
                self.cells[key] = value
                self.present[key] = True
                return
            self._demote()
        self._sparse[key] = value

    def __delitem__(self, key: Cell) -> None:
        if self._sparse is not None:
            del self._sparse[key]
        elif self._holds(*key):
            self.cells[key] = 0
            self.present[key] = False
        else:
            raise KeyError(key)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._as_dict())

    def __len__(self) -> int:
        if self._sparse is not None:
            return len(self._sparse)
        return int(np.count_nonzero(self.present))

    def items(self):
        return self._as_dict().items()

    def clear(self) -> None:
        if self._sparse is not None:
            self._sparse.clear()
        else:
            self.cells[:] = 0
            self.present[:] = False
        self.pinned_sparse = False

    def __eq__(self, other) -> bool:
        if isinstance(other, RegisterFile):
            other = other._as_dict()
        return self._as_dict() == other

    def __repr__(self) -> str:
        backing = "sparse" if self._sparse is not None else "columnar"
        return f"RegisterFile<{backing}>({self._as_dict()!r})"

    def _as_dict(self) -> Dict[Cell, int]:
        """The cells as a dict of Python ints (the live dict while sparse)."""
        if self._sparse is not None:
            return self._sparse
        rows, idx = np.nonzero(self.present)
        return dict(zip(zip(rows.tolist(), idx.tolist()),
                        self.cells[rows, idx].tolist()))

    # -- backings ------------------------------------------------------------ #
    @property
    def columnar(self) -> bool:
        return self._sparse is None

    def promote(self) -> bool:
        """Move the cells into columns; ``False`` when they cannot be held."""
        if self._sparse is None:
            return True
        if self.pinned_sparse:
            return False
        store = self._sparse
        count = len(store)
        rows, size = self.rows, self.size
        try:
            keys = np.fromiter(chain.from_iterable(store), np.int64,
                               2 * count).reshape(count, 2)
            vals = np.fromiter(store.values(), np.int64, count)
        except OverflowError:
            keys = None
        if keys is not None and count:
            if (keys.min() < 0 or vals.max() > COLUMN_VALUE_LIMIT
                    or vals.min() < -COLUMN_VALUE_LIMIT):
                keys = None
            else:
                rows = max(rows, int(keys[:, 0].max()) + 1)
                size = max(size, int(keys[:, 1].max()) + 1)
        if keys is None or rows * size > COLUMN_CELL_CAP:
            self.pinned_sparse = True
            return False
        self.cells = np.zeros((rows, size), dtype=np.int64)
        self.present = np.zeros((rows, size), dtype=bool)
        self.cells[keys[:, 0], keys[:, 1]] = vals
        self.present[keys[:, 0], keys[:, 1]] = True
        self._sparse = None
        if self._stats is not None:
            self._stats.increment("state_promotions")
            self._stats.increment("state_cells_converted", count)
        return True

    def _demote(self) -> None:
        self._sparse = self._as_dict()
        self.cells = self.present = None
        self.pinned_sparse = True
        if self._stats is not None:
            self._stats.increment("state_cells_converted", len(self._sparse))

    def ensure(self, rows: int, size: int) -> bool:
        """Grow the columns to hold ``(rows, size)``; ``False`` past the cap."""
        have_r, have_s = self.cells.shape
        if rows <= have_r and size <= have_s:
            return True
        rows, size = max(rows, have_r), max(size, have_s)
        if rows * size > COLUMN_CELL_CAP:
            return False
        cells = np.zeros((rows, size), dtype=np.int64)
        present = np.zeros((rows, size), dtype=bool)
        cells[:have_r, :have_s] = self.cells
        present[:have_r, :have_s] = self.present
        self.cells, self.present = cells, present
        return True

    # -- in-place kernel writes ---------------------------------------------- #
    def checkpoint(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copy of the columns (two memcpys), for :meth:`rollback`."""
        return self.cells.copy(), self.present.copy()

    def rollback(self, checkpoint: Tuple[np.ndarray, np.ndarray]) -> None:
        self.cells, self.present = checkpoint

    def enforce_value_limit(self) -> None:
        """Demote when a kernel left a cell beyond the columnar value range."""
        if (self.cells.max(initial=0) > COLUMN_VALUE_LIMIT
                or self.cells.min(initial=0) < -COLUMN_VALUE_LIMIT):
            self._demote()
