"""Rank/select sequences over small alphabets and a point grid on top.

Both structures share a levelwise bit-partition core: symbols are viewed
as fixed-width integers, one bitmap per bit position (most significant
first), and each level stably partitions positions by the previous bit.
Keeping one bitmap per level, instead of one per tree node, avoids
paying word padding and directory minima thousands of times on deep
trees; space stays n*width plus the bitmap directories.
"""

from __future__ import annotations

from .bitvector import BitVector
from .errors import GraphInputError, QueryRangeError
from .serial import Reader, Writer, pack_uints, unpack_uints, width_for

_SEQ_MAGIC = b"SASQ"
_VERSION = 1


class _Matrix:
    """width bitmaps over n positions; zeros[d] counts the zero bits of
    level d, which is where the one-branch begins on the next level."""

    __slots__ = ("n", "width", "levels", "zeros")

    def __init__(self, symbols: list, width: int):
        n = len(symbols)
        self.n = n
        self.width = width
        self.levels = []
        self.zeros = []
        cur = symbols
        for d in range(width):
            shift = width - 1 - d
            bits = [(s >> shift) & 1 for s in cur]
            bv = BitVector(bits)
            self.levels.append(bv)
            self.zeros.append(bv.count(0))
            if d + 1 < width:
                cur = [s for s, b in zip(cur, bits) if not b] + [
                    s for s, b in zip(cur, bits) if b
                ]

    def access(self, p: int) -> int:
        """Symbol at 0-based position p."""
        s = 0
        for bv, z in zip(self.levels, self.zeros):
            if bv.access(p + 1):
                s = s << 1 | 1
                p = z + bv.rank(1, p)
            else:
                s <<= 1
                p = bv.rank(0, p)
        return s

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol c among the first i positions."""
        l, r = 0, i
        for d, (bv, z) in enumerate(zip(self.levels, self.zeros)):
            if c >> (self.width - 1 - d) & 1:
                l = z + bv.rank(1, l)
                r = z + bv.rank(1, r)
            else:
                l = bv.rank(0, l)
                r = bv.rank(0, r)
            if l == r:
                return 0
        return r - l

    def select(self, c: int, j: int) -> int:
        """0-based position of the j-th occurrence of c; j is in range."""
        l, r = 0, self.n
        for d, (bv, z) in enumerate(zip(self.levels, self.zeros)):
            if c >> (self.width - 1 - d) & 1:
                l = z + bv.rank(1, l)
                r = z + bv.rank(1, r)
            else:
                l = bv.rank(0, l)
                r = bv.rank(0, r)
        p = l + j - 1
        for d in range(self.width - 1, -1, -1):
            bv, z = self.levels[d], self.zeros[d]
            if c >> (self.width - 1 - d) & 1:
                p = bv.select(1, p - z + 1) - 1
            else:
                p = bv.select(0, p + 1) - 1
        return p

    def count_below(self, l: int, r: int, bound: int) -> int:
        """Positions in [l, r) holding a symbol strictly below bound."""
        if bound <= 0 or l >= r:
            return 0
        if bound >= 1 << self.width:
            return r - l
        acc = 0
        for d, (bv, z) in enumerate(zip(self.levels, self.zeros)):
            if bound >> (self.width - 1 - d) & 1:
                acc += bv.rank(0, r) - bv.rank(0, l)
                l = z + bv.rank(1, l)
                r = z + bv.rank(1, r)
            else:
                l = bv.rank(0, l)
                r = bv.rank(0, r)
            if l >= r:
                break
        return acc

    def to_list(self) -> list[int]:
        # undo the stable partitions from the last level up: level d's
        # bits say, position by position, which branch of level d + 1
        # the next symbol comes from
        syms = [0] * self.n
        for d in range(self.width - 1, -1, -1):
            bit = 1 << (self.width - 1 - d)
            z = self.zeros[d]
            zeros = iter(syms[:z])
            ones = iter([s | bit for s in syms[z:]])
            bits = self.levels[d].bit_string()
            syms = [next(ones) if ch == "1" else next(zeros) for ch in bits]
        return syms

    def space(self) -> tuple[int, int]:
        raw = directory = 0
        for bv in self.levels:
            rep = bv.space_report()
            raw += rep["raw"]
            directory += rep["directory"]
        return raw, directory + 64 * self.width


class AlphabetSequence:
    """Sequence over {0..sigma-1} answering access, rank and select."""

    __slots__ = ("_n", "_sigma", "_m")

    def __init__(self, symbols, sigma: int | None = None):
        symbols = list(symbols)
        if sigma is None:
            sigma = max(symbols) + 1 if symbols else 1
        _check_alphabet(symbols, sigma)
        self._n = len(symbols)
        self._sigma = sigma
        self._m = _Matrix(symbols, width_for(sigma - 1))

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        return self._sigma

    def _check_symbol(self, a: int) -> None:
        if not 0 <= a < self._sigma:
            raise QueryRangeError(f"symbol {a} outside alphabet [0, {self._sigma})")

    def access(self, i: int) -> int:
        """Symbol at 1-based position i."""
        if not 1 <= i <= self._n:
            raise QueryRangeError(f"access position {i} outside [1, {self._n}]")
        return self._m.access(i - 1)

    def rank(self, a: int, i: int) -> int:
        """Occurrences of a among the first i positions, 0 <= i <= n."""
        self._check_symbol(a)
        if not 0 <= i <= self._n:
            raise QueryRangeError(f"rank prefix {i} outside [0, {self._n}]")
        return self._m.rank(a, i)

    def select(self, a: int, j: int) -> int:
        """1-based position of the j-th occurrence of a."""
        self._check_symbol(a)
        total = self._m.rank(a, self._n)
        if not 1 <= j <= total:
            raise QueryRangeError(f"select({a}, {j}): sequence holds {total}")
        return self._m.select(a, j) + 1

    def count(self, a: int) -> int:
        self._check_symbol(a)
        return self._m.rank(a, self._n)

    def to_list(self) -> list[int]:
        return self._m.to_list()

    @staticmethod
    def encode(symbols: list[int], sigma: int) -> bytes:
        """The serialized form of these symbols, without building the
        sequence."""
        w = Writer().magic(_SEQ_MAGIC, _VERSION)
        w.u64(len(symbols)).u32(sigma)
        w.block(pack_uints(symbols, width_for(sigma - 1)))
        return w.getvalue()

    @staticmethod
    def decode(data: bytes) -> tuple[list[int], int]:
        """(symbols, sigma) of a blob, validated as the constructor
        validates them; a caller that needs the symbols but no queries
        over them never builds the sequence."""
        r = Reader(data)
        r.magic(_SEQ_MAGIC, _VERSION)
        n = r.u64()
        sigma = r.u32()
        symbols = unpack_uints(r.block(), n, width_for(sigma - 1))
        r.done()
        _check_alphabet(symbols, sigma)
        return symbols, sigma


def _check_alphabet(symbols: list[int], sigma: int) -> None:
    if sigma < 1:
        raise GraphInputError("alphabet size must be at least 1")
    if symbols and (min(symbols) < 0 or max(symbols) >= sigma):
        bad = next(s for s in symbols if not 0 <= s < sigma)
        raise GraphInputError(f"symbol {bad} outside alphabet [0, {sigma})")


class PointGrid:
    """M points on an M x M grid, one per column, rows a permutation.
    Columns are x, rows are y, both 1-based; count takes closed ranges
    and clamps them to the grid."""

    __slots__ = ("_m_size", "_m")

    def __init__(self, ys):
        ys = list(ys)
        m = len(ys)
        if sorted(ys) != list(range(1, m + 1)):
            raise GraphInputError("grid expects a permutation of 1..M, one y per column")
        self._m_size = m
        self._m = _Matrix([y - 1 for y in ys], width_for(max(m - 1, 1)))

    def __len__(self) -> int:
        return self._m_size

    def y(self, x: int) -> int:
        """Row of the single point in column x."""
        if not 1 <= x <= self._m_size:
            raise QueryRangeError(f"column {x} outside [1, {self._m_size}]")
        return self._m.access(x - 1) + 1

    def count(self, x1: int, x2: int, y1: int, y2: int) -> int:
        """Points with x1 <= x <= x2 and y1 <= y <= y2."""
        m = self._m_size
        x1 = max(x1, 1)
        x2 = min(x2, m)
        y1 = max(y1, 1)
        y2 = min(y2, m)
        if x1 > x2 or y1 > y2:
            return 0
        l, r = x1 - 1, x2
        return self._m.count_below(l, r, y2) - self._m.count_below(l, r, y1 - 1)

    def space_report(self) -> dict[str, int]:
        raw, directory = self._m.space()
        return {"bitmaps": raw, "directories": directory}

    def space_bits(self) -> int:
        return sum(self.space_report().values())
