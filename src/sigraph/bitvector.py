"""Bit vector with constant-time rank and near-constant-time select.

Bits are packed into 64-bit words, little-endian within each word, held
in one array('Q'). A build turns the bits into one '0'/'1' text, reads
it as one int and copies that int's bytes into the array, all in C; a
load copies the blob's words into the array directly. A two-level
directory (cumulative counts per 4096-bit superblock in a short list,
plus 12-bit offsets per word inside its superblock in an array('H'))
answers rank with one popcount. select(b, j) reads the occurrences of b
before any word from the same directory (the zeros as its complement),
so it searches the words between two sampled superblocks by
interpolation, guarded: a step that fails to halve the range makes the
next one bisect, which bounds a search at O(log words) steps. It adds no
stored bits beyond the samples, and it finishes inside one word with a
32/16/8-bit popcount split and one byte-table read.

select_marked answers a batch of selects on one bit, given as a byte
mask over a run of occurrences, marked bytes nonzero, and returns the
marked positions in increasing order. Two selects find the first and
the last marked occurrence; when the words between them number at most
one per marked occurrence, one pass over those words and one compress
with the mask answer the rest, and otherwise each marked occurrence gets
its own select. Either way the batch costs O(marked count), and it
builds no list of the occurrences it is asked for.

A vector pickles, and deep-copies, through to_bytes and the validating
from_bytes.

All public positions are 1-based; rank takes a prefix length in [0, N].
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate, compress

from .errors import QueryRangeError, SerializationError

_SB_WORDS = 64          # words per superblock
_SB_BITS = _SB_WORDS * 64
_SB_OFF_BITS = 12       # bits to store an offset inside a 4096-bit superblock
_SAMPLE = 4096          # one select hint per this many occurrences

# _BYTE_SEL[b] lists the positions (0..7) of the set bits of byte b, LSB first.
_BYTE_SEL = [[k for k in range(8) if b >> k & 1] for b in range(256)]

# one byte per bit to '0'/'1' text: any nonzero byte is a 1
_BIT_TEXT = b"0" + b"1" * 255

# _text() bytes mapped to 1 where the bit equals 0 / equals 1
_IS_ZERO = bytes.maketrans(b"01", b"\x01\x00")
_IS_ONE = bytes.maketrans(b"01", b"\x00\x01")

_WORD_MASK = (1 << 64) - 1

# blobs hold the words little-endian; array('Q') holds them natively
_SWAP = sys.byteorder == "big"

_MAGIC = b"SBVC"
_VERSION = 1


def _words_from_le(data: bytes) -> array:
    """Little-endian 64-bit words as an array('Q')."""
    words = array("Q")
    words.frombytes(data)
    if _SWAP:
        words.byteswap()
    return words


def _le_bytes(words: array) -> bytes:
    """An array('Q') as little-endian bytes."""
    if _SWAP:
        words = array("Q", words)
        words.byteswap()
    return words.tobytes()


class BitVector:
    """Static bit sequence supporting access(i), rank(b, i), select(b, j)."""

    __slots__ = (
        "_n", "_words", "_bytes", "_nwords", "_ones",
        "_sb_ones", "_word_ones", "_sel1_sb", "_sel0_sb",
    )

    def __init__(self, bits):
        """bits: ints in [0, 255] or bools, position 1 first; a nonzero
        value is a 1."""
        raw = bytes(bits)
        n = len(raw)
        # bit p + 1 is bit p of one int, read from the reversed text
        value = int(raw.translate(_BIT_TEXT)[::-1], 2) if n else 0
        packed = value.to_bytes(8 * ((n + 63) >> 6), "little")
        self._init_from_words(_words_from_le(packed), n)

    # -- construction ----------------------------------------------------

    def _init_from_words(self, words: array, n: int) -> None:
        self._n = n
        self._words = words
        # the words as little-endian bytes, so that byte i >> 3 holds the
        # bit at 0-based position i: a view, except on big-endian hosts.
        # access reads one byte, a cached small int, not a boxed word
        self._bytes = memoryview(_le_bytes(words) if _SWAP else words).cast("B")
        self._nwords = nwords = len(words)
        # ones[i]: the ones before word i
        ones = list(accumulate(map(int.bit_count, words), initial=0))
        sb_ones = ones[:max(nwords, 1):_SB_WORDS]
        self._ones = total = ones[-1]
        self._sb_ones = sb_ones
        self._word_ones = array("H", [ones[i] - sb_ones[i >> 6] for i in range(nwords)])
        self._sel1_sb = self._build_samples(sb_ones, total, ones=True)
        self._sel0_sb = self._build_samples(sb_ones, n - total, ones=False)

    def _build_samples(self, sb_ones: list[int], count: int, ones: bool) -> list[int]:
        # Superblock index holding occurrence t*_SAMPLE + 1, for each t.
        samples: list[int] = []
        nsb = len(sb_ones)
        s = 0
        for t in range(0, count, _SAMPLE):
            target = t + 1
            while s + 1 < nsb:
                before_next = sb_ones[s + 1] if ones else (s + 1) * _SB_BITS - sb_ones[s + 1]
                if before_next < target:
                    s += 1
                else:
                    break
            samples.append(s)
        return samples

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def count(self, b: int) -> int:
        """Total number of occurrences of bit b."""
        return self._ones if b else self._n - self._ones

    def access(self, i: int) -> int:
        """Bit at 1-based position i."""
        if not 1 <= i <= self._n:
            raise QueryRangeError(f"access position {i} outside [1, {self._n}]")
        i -= 1
        return self._bytes[i >> 3] >> (i & 7) & 1

    def rank(self, b: int, i: int) -> int:
        """Occurrences of bit b among the first i positions, 0 <= i <= N."""
        if not 0 <= i <= self._n:
            raise QueryRangeError(f"rank prefix {i} outside [0, {self._n}]")
        fw = i >> 6
        if fw < self._nwords:
            ones = self._sb_ones[fw >> 6] + self._word_ones[fw]
            if i & 63:
                ones += (self._words[fw] & (1 << (i & 63)) - 1).bit_count()
        else:
            ones = self._ones
        return ones if b else i - ones

    def select(self, b: int, j: int) -> int:
        """1-based position of the j-th occurrence of bit b, 1 <= j <= count(b)."""
        count = self._ones if b else self._n - self._ones
        if not 1 <= j <= count:
            raise QueryRangeError(
                f"select({b:d}, {j}): vector holds {count} {'ones' if b else 'zeros'}"
            )
        # Words lo..hi hold the j-th occurrence: c_lo occurrences lie
        # before word lo and c_hi >= j before word hi + 1. A step that
        # fails to halve the range makes the next one bisect instead of
        # interpolate.
        samples = self._sel1_sb if b else self._sel0_sb
        sb_ones = self._sb_ones
        word_ones = self._word_ones
        words = self._words
        t = (j - 1) // _SAMPLE
        s = samples[t]
        lo = s * _SB_WORDS
        c_lo = sb_ones[s] if b else s * _SB_BITS - sb_ones[s]
        s = samples[t + 1] + 1 if t + 1 < len(samples) else len(sb_ones)
        if s < len(sb_ones):
            hi = s * _SB_WORDS - 1
            c_hi = sb_ones[s] if b else s * _SB_BITS - sb_ones[s]
        else:
            hi = self._nwords - 1
            c_hi = count
        halve = False
        while True:
            size = hi - lo
            if halve:
                g = (lo + hi) >> 1
            else:
                g = lo + (j - c_lo - 1) * (size + 1) // (c_hi - c_lo)
            c = sb_ones[g >> 6] + word_ones[g]
            if not b:
                c = (g << 6) - c
            if c >= j:
                hi = g - 1
                c_hi = c
            else:
                word = words[g] if b else ~words[g] & _WORD_MASK
                c_next = c + word.bit_count()
                if c_next >= j:
                    # the (j - c)-th set bit of word: one 32/16/8-bit
                    # split by popcount, then one byte-table read
                    k = j - c
                    off = g << 6
                    c = (word & 0xFFFFFFFF).bit_count()
                    if k > c:
                        k -= c
                        word >>= 32
                        off += 32
                    c = (word & 0xFFFF).bit_count()
                    if k > c:
                        k -= c
                        word >>= 16
                        off += 16
                    c = (word & 0xFF).bit_count()
                    if k > c:
                        k -= c
                        word >>= 8
                        off += 8
                    return off + _BYTE_SEL[word & 0xFF][k - 1] + 1
                lo = g + 1
                c_lo = c_next
            halve = 2 * (hi - lo) > size

    def select_marked(self, b: int, lo_j: int, mask) -> list[int]:
        """select(b, lo_j + i) for every i with mask[i] nonzero, in
        increasing order. mask is bytes-like, one byte per occurrence
        from the first marked one to the last, so its first and last
        bytes are nonzero.

        Two selects find the first and the last marked occurrence; one
        pass over the words they span, when those number at most the
        marked count, then one compress of the occurrences between the
        two with the mask; when the words outnumber the marked
        occurrences, one select per marked occurrence instead.
        """
        size = len(mask)
        if size <= 1:
            return [self.select(b, lo_j)] if size else []
        hi_j = lo_j + size - 1
        p_lo = self.select(b, lo_j)
        p_hi = self.select(b, hi_j)
        w_lo = (p_lo - 1) >> 6
        w_hi = ((p_hi - 1) >> 6) + 1
        if w_hi - w_lo > size - mask.count(0):
            inner = compress(range(lo_j + 1, hi_j), mask[1:-1])
            return [p_lo, *[self.select(b, j) for j in inner], p_hi]
        # the positions of occurrences lo_j..hi_j, from the words they span
        base = w_lo * 64 + 1
        flags = (
            self._text(w_lo, w_hi)[p_lo - base:p_hi - base + 1]
            .encode("ascii").translate(_IS_ONE if b else _IS_ZERO)
        )
        return list(compress(compress(range(p_lo, p_hi + 1), flags), mask))

    def positions(self, b: int) -> list[int]:
        """1-based positions of every occurrence of bit b, in increasing
        order: select(b, 1..count(b)) in one pass over the words."""
        flags = self._text(0, self._nwords).encode("ascii").translate(
            _IS_ONE if b else _IS_ZERO
        )
        return list(compress(range(1, self._n + 1), flags))

    def _text(self, w_lo: int, w_hi: int) -> str:
        """Words w_lo..w_hi - 1 as '0'/'1' text, bit w_lo * 64 + 1 first;
        64 characters a word, the last word's padding read as zeros."""
        value = int.from_bytes(_le_bytes(self._words[w_lo:w_hi]), "little")
        return format(value, f"0{64 * (w_hi - w_lo)}b")[::-1]

    # -- reporting and serialization ------------------------------------

    def bit_string(self) -> str:
        """The bits as a '0'/'1' string, position 1 first."""
        return self._text(0, self._nwords)[:self._n]

    def space_report(self) -> dict[str, int]:
        nsb = len(self._sb_ones)
        sample_bits = max(1, (nsb - 1).bit_length() if nsb > 1 else 1)
        directory = (
            nsb * 64
            + len(self._word_ones) * _SB_OFF_BITS
            + (len(self._sel1_sb) + len(self._sel0_sb)) * sample_bits
        )
        return {"raw": self._nwords * 64, "directory": directory}

    def space_bits(self) -> int:
        return sum(self.space_report().values())

    def to_bytes(self) -> bytes:
        return struct.pack("<4sBQ", _MAGIC, _VERSION, self._n) + _le_bytes(self._words)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitVector":
        if len(data) < 13 or data[:4] != _MAGIC:
            raise SerializationError("bad bit vector header")
        if data[4] != _VERSION:
            raise SerializationError(f"unsupported bit vector version {data[4]}")
        (n,) = struct.unpack_from("<Q", data, 5)
        nwords = (n + 63) // 64
        if len(data) != 13 + 8 * nwords:
            raise SerializationError("bit vector payload length mismatch")
        words = _words_from_le(data[13:])
        if n % 64 and words and words[-1] >> (n % 64):
            raise SerializationError("nonzero padding bits in bit vector")
        bv = cls.__new__(cls)
        bv._init_from_words(words, n)
        return bv

    def __reduce__(self):
        return type(self).from_bytes, (self.to_bytes(),)

    def __repr__(self) -> str:
        return f"BitVector(n={self._n}, ones={self._ones})"
