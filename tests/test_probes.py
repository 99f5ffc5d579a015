"""Decoder probes over the five kinds: truncations, byte runs, forged
header fields, duplicated and deleted spans, and blobs of another kind.

Every mutant must be rejected with GraphInputError (SerializationError
is a subclass) or load into a structure that re-encodes to the same
bytes and whose degrees match the oracle of its own realization. No
load may allocate more than a fixed bound, whatever n a forged header
claims.
"""

import random
import tracemalloc

import pytest

from conftest import KINDS, degrees_agree
from sigraph.errors import GraphInputError

SIZES = (1, 5, 40)

# peak bytes a load of any probe may allocate; a legitimate n = 40 load
# peaks near 26 KB, and an allocation sized by a forged n would not fit
PEAK_BOUND = 64 * 1024

FORGED = (2**40, 2**63 - 1)

# lengths of the spans duplicated and deleted at every offset: a byte, a
# u8 pair, a u32 and a u64 field
SPANS = (1, 2, 4, 8)


def _blobs():
    """(kind, n, structure) for every kind and size, from fixed seeds."""
    out = []
    for kind, (build, draw) in sorted(KINDS.items()):
        for n in SIZES:
            out.append((kind, n, build(draw(n, random.Random(f"probe/{kind}/{n}")))))
    return out


def _fields(blob: bytes) -> list[tuple[int, int]]:
    """(offset, width) of every u64 and u32 field of a structure blob,
    those of its nested bit vector or symbol sequence included."""
    fields = []

    def field(pos, width):
        fields.append((pos, width))
        return int.from_bytes(blob[pos:pos + width], "little")

    def block(pos):
        # a u64 length, then that many payload bytes: (payload start, end)
        return pos + 8, pos + 8 + field(pos, 8)

    def nested(pos):
        # a bit vector (SBVC: n) or a symbol sequence (SASQ: n, sigma, block)
        field(pos + 5, 8)
        if blob[pos:pos + 4] == b"SASQ":
            field(pos + 13, 4)
            block(pos + 17)

    tag = blob[:4]
    field(5, 8)
    if tag == b"SIGR":
        field(13, 4)
        start, end = block(17)
        nested(start)
        block(end)
    elif tag == b"SPGR":
        nested(block(13)[0])
    elif tag == b"SKGR":
        field(14, 4)
        nested(block(18)[0])
    else:
        assert tag == b"SCAG"
        field(13, 4)
        start, end = block(18)
        nested(start)
        block(block(end)[1])
    return fields


def _mutants(blob: bytes):
    """Every truncation, every 8-byte 0x00 and 0xFF run, and every header
    field set to 2**40, 2**63 - 1 and its width's maximum, where they fit."""
    for k in range(len(blob)):
        yield f"truncated to {k}", blob[:k]
    for fill in (b"\x00", b"\xff"):
        for pos in range(len(blob) - 7):
            yield f"{fill.hex()} run at {pos}", blob[:pos] + fill * 8 + blob[pos + 8:]
    for pos, width in _fields(blob):
        for value in (*FORGED, 2 ** (8 * width) - 1):
            if value < 2 ** (8 * width):
                forged = value.to_bytes(width, "little")
                yield f"field {pos} = {value}", blob[:pos] + forged + blob[pos + width:]


def _span_edits(blob: bytes):
    """Every span of each length in SPANS, at every offset, duplicated in
    place and deleted."""
    for k in SPANS:
        for pos in range(len(blob) - k + 1):
            span = blob[pos:pos + k]
            yield f"{k} bytes at {pos} doubled", blob[:pos] + span + blob[pos:]
            yield f"{k} bytes at {pos} deleted", blob[:pos] + blob[pos + k:]


def _probe(cls, data: bytes, what: str) -> bool:
    """Load data with cls under tracemalloc: True when it is accepted,
    which asserts a byte-identical re-encode and oracle degrees."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        g = cls.from_bytes(data)
    except GraphInputError:
        g = None
    peak = tracemalloc.get_traced_memory()[1] - base
    assert peak < PEAK_BOUND, f"{cls.__name__} on {what}: peak {peak} bytes"
    if g is None:
        return False
    assert g.to_bytes() == data, f"{cls.__name__} accepted {what} but re-encodes differently"
    assert degrees_agree(g), f"{cls.__name__} accepted {what} with wrong degrees"
    return True


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_mutants_are_rejected_or_round_trip(traced):
    """Truncations, byte runs and forged fields on every kind at n = 1, 5
    and 40; the unmutated blob is accepted, so the bound covers a real
    load too."""
    for kind, n, g in _blobs():
        cls = type(g)
        blob = g.to_bytes()
        assert _probe(cls, blob, f"{kind} n={n}")
        for what, mutant in _mutants(blob):
            _probe(cls, mutant, f"{kind} n={n}, {what}")


def test_span_edits_are_rejected_or_round_trip(traced):
    """Duplicated and deleted spans of 1, 2, 4 and 8 bytes at every
    offset, on every kind at n = 1, 5 and 40."""
    for kind, n, g in _blobs():
        cls = type(g)
        for what, mutant in _span_edits(g.to_bytes()):
            _probe(cls, mutant, f"{kind} n={n}, {what}")


def test_loaders_given_other_kinds(traced):
    """Every loader on every other kind's blob. Only the k-proper and
    k-improper kinds share a loader, so only they may accept."""
    blobs = _blobs()
    for kind, n, g in blobs:
        for other, m, h in blobs:
            if other == kind:
                continue
            accepted = _probe(type(g), h.to_bytes(), f"{other} n={m} blob")
            assert not accepted or type(g) is type(h), (kind, other)
