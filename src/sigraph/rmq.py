"""Positional range-maximum and range-minimum indexes.

The target sequence is sampled in blocks of c values (the graph
structures derive c with default_block_size and reject a blob that
stores any other); a sparse table over the per-block leaders answers
the full-block middle of a query. A partial block is answered by its
leader (the block's leftmost maximum) when the leader lies inside the
query range, and scanned directly otherwise, so a prefix or suffix query
scans at most one block. The index stores positions only, never values,
so its accounted size is O((n/c) log n) bits on top of the sequence it
indexes. Ties resolve to the leftmost position. The minimum index is the
maximum index over a negated copy of its sequence.

A prefix query needs no index at all: its answer is the last record (a
position whose value beats every earlier one) at or before the prefix
end. records() lists them from the block leaders, reading only the
blocks whose leader beats the running maximum, each up to its leader.

Queries are 1-based inclusive ranges; answers are 1-based positions.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .errors import QueryRangeError
from .serial import uint_array


def default_block_size(n: int) -> int:
    """Power-of-two block size keeping the directory under ~n/4 bits.

    Grows like (log n)^2 so the sparse table's (n/c) log^2 term stays o(n);
    never below 32 so small indexes stay shallow.
    """
    lg = max(1, n.bit_length())
    target = max(32, lg * lg)
    return 1 << (target - 1).bit_length()


class RangeMaxIndex:
    """Leftmost position of the maximum over a 1-based inclusive range."""

    def __init__(self, values: Sequence[int], block_size: int | None = None):
        n = len(values)
        if block_size is None:
            block_size = default_block_size(n)
        if block_size < 1:
            raise ValueError("block size must be positive")
        self._values = values
        self._n = n
        self._c = block_size
        self._leaders = [
            self._scan(b, min(b + block_size, n))
            for b in range(0, n, block_size)
        ]
        self._table = self._build_table(self._leaders)

    def _scan(self, a: int, b: int) -> int:
        # Leftmost maximum position in the 0-based half-open range [a, b).
        # A packed array boxes each value once, into a list, instead of
        # once in max and again in index.
        seg = self._values[a:b]
        if isinstance(seg, array):
            seg = seg.tolist()
        return a + seg.index(max(seg))

    def _build_table(self, leaders: list[int]) -> list[list[int]]:
        table = [leaders]
        width = 1
        nblocks = len(leaders)
        while 2 * width <= nblocks:
            prev = table[-1]
            table.append([
                self._pick(prev[b], prev[b + width])
                for b in range(nblocks - 2 * width + 1)
            ])
            width *= 2
        return table

    def _pick(self, p: int, q: int) -> int:
        # p is the leftward candidate; ties keep it.
        return p if self._values[p] >= self._values[q] else q

    def query(self, i: int, j: int) -> int:
        """Leftmost maximum position in [i, j], 1 <= i <= j <= n."""
        if i < 1 or j > self._n or i > j:
            raise QueryRangeError(f"range [{i}, {j}] invalid for n={self._n}")
        a, b = i - 1, j - 1
        c = self._c
        ba, bb = a // c, b // c
        # a block's leftmost maximum is also that of any part holding it
        first, last = self._leaders[ba], self._leaders[bb]
        if ba == bb:
            return (first if a <= first <= b else self._scan(a, b + 1)) + 1
        best = first if a <= first else self._scan(a, (ba + 1) * c)
        if bb - ba > 1:
            mid = self._table_query(ba + 1, bb - 1)
            best = self._pick(best, mid)
        right = last if last <= b else self._scan(bb * c, b + 1)
        return self._pick(best, right) + 1

    def records(self) -> array:
        """Ascending positions whose value is strictly greater than every
        earlier value, as a serial.uint_array: the last of them at or before j
        is query(1, j), leftmost tie included. A block holds a record only
        when its leader beats the running maximum, and then only up to its
        leader, which is the block's leftmost maximum."""
        values = self._values
        out = []
        best = values[0] - 1 if values else 0   # position 1 is always a record
        c = self._c
        for b, lead in enumerate(self._leaders):
            if values[lead] <= best:
                continue
            for p, val in enumerate(values[b * c:lead + 1], b * c + 1):
                if val > best:
                    out.append(p)
                    best = val
        return uint_array(out, self._n)

    def _table_query(self, lo: int, hi: int) -> int:
        k = (hi - lo + 1).bit_length() - 1
        row = self._table[k]
        return self._pick(row[lo], row[hi - (1 << k) + 1])

    # -- reporting ------------------------------------------------------

    def space_report(self) -> dict[str, int]:
        nblocks = len(self._leaders)
        off_bits = max(1, (self._c - 1).bit_length())
        pos_bits = max(1, (nblocks - 1).bit_length() if nblocks > 1 else 1)
        table_entries = sum(len(row) for row in self._table[1:])
        return {
            "block_leaders": nblocks * off_bits,
            "sparse_table": table_entries * pos_bits,
        }

    def space_bits(self) -> int:
        return sum(self.space_report().values())


class RangeMinIndex(RangeMaxIndex):
    """Leftmost position of the minimum over a 1-based inclusive range:
    the maximum index over the negated values."""

    def __init__(self, values: Sequence[int], block_size: int | None = None):
        super().__init__([-v for v in values], block_size)
