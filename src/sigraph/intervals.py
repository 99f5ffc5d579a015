"""Interval realizations: validation, normalization, text parsing, generators.

A realization places n closed intervals on the line using each endpoint
value in {1, ..., 2n} exactly once, with vertex labels 1..n assigned in
increasing order of left endpoint.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import GraphInputError

_INT_RE = re.compile(r"^[+-]?\d+$")


def check_endpoints(pairs, noun: str) -> None:
    """The checks every realization makes of its (start, end) pairs, each
    pair a noun: there is at least one, the starts increase, and the
    endpoints use each value in 1..2n exactly once. Interval and arc
    realizations test each pair's own shape before calling this."""
    n = len(pairs)
    if n == 0:
        raise GraphInputError(f"realization needs at least one {noun}")
    endpoints = []
    prev_l = 0
    for l, r in pairs:
        if l <= prev_l:
            raise GraphInputError(f"{noun}s must be listed in increasing start order")
        prev_l = l
        endpoints.append(l)
        endpoints.append(r)
    # 2n endpoints that cover 1..2n use each value exactly once
    if not set(endpoints).issuperset(range(1, 2 * n + 1)):
        raise GraphInputError(
            f"endpoints must use each value in 1..{2 * n} exactly once"
        )


@dataclass(frozen=True)
class IntervalRealization:
    """n closed intervals over {1..2n}, labeled by increasing left endpoint."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for l, r in self.intervals:
            if l >= r:
                raise GraphInputError(f"interval [{l}, {r}] has left >= right")
        check_endpoints(self.intervals, "interval")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def left(self, v: int) -> int:
        return self.intervals[v - 1][0]

    def right(self, v: int) -> int:
        return self.intervals[v - 1][1]


def normalize(raw) -> IntervalRealization:
    """Map numeric (left, right) pairs onto {1..2n} preserving intersections.

    Endpoints are ranked by coordinate; at a shared coordinate every left
    endpoint precedes every right endpoint, so closed intervals that touch
    stay intersecting. Vertices are relabeled by sorted left endpoint.
    """
    pairs = list(raw)
    if not pairs:
        raise GraphInputError("realization needs at least one interval")
    events = []
    for idx, (a, b) in enumerate(pairs):
        # NaN compares false with everything, so it would sort anywhere
        if a != a or b != b:
            raise GraphInputError(f"interval #{idx + 1} has a NaN coordinate: ({a}, {b})")
        if a > b:
            raise GraphInputError(f"interval #{idx + 1} has left > right: ({a}, {b})")
        events.append((a, 0, idx))
        events.append((b, 1, idx))
    events.sort()
    lefts = [0] * len(pairs)
    rights = [0] * len(pairs)
    for pos, (_, kind, idx) in enumerate(events, start=1):
        if kind == 0:
            lefts[idx] = pos
        else:
            rights[idx] = pos
    placed = sorted(zip(lefts, rights))
    return IntervalRealization(tuple(placed))


def _parse_number(token: str, lineno: int):
    if _INT_RE.match(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        raise GraphInputError(f"line {lineno}: expected a number, got {token!r}") from None


def parse_realization_text(text: str) -> tuple[str, list[tuple]]:
    """Parse `interval <n>` / `circular <n>` header plus n coordinate lines.

    Returns (kind, pairs); pairs keep their raw coordinates so the caller
    can normalize (intervals) or anchor (arcs). Blank lines and `#`
    comments are skipped.
    """
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise GraphInputError("empty input")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] not in ("interval", "circular"):
        raise GraphInputError(
            f"line {head_no}: expected header 'interval <n>' or 'circular <n>'"
        )
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphInputError(f"line {head_no}: bad count {parts[1]!r}") from None
    if n < 1:
        raise GraphInputError(f"line {head_no}: need at least one {kind} entry")
    body = lines[1:]
    if len(body) != n:
        raise GraphInputError(
            f"header promises {n} lines but {len(body)} data lines follow"
        )
    pairs = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphInputError(f"line {lineno}: expected two numbers")
        pairs.append(
            (_parse_number(tokens[0], lineno), _parse_number(tokens[1], lineno))
        )
    return kind, pairs


def random_realization(n: int, rng: random.Random) -> IntervalRealization:
    """Uniform random pairing of {1..2n} into n intervals."""
    if n < 1:
        raise GraphInputError("need n >= 1")
    pts = list(range(1, 2 * n + 1))
    rng.shuffle(pts)
    pairs = []
    for i in range(n):
        a, b = pts[2 * i], pts[2 * i + 1]
        pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return IntervalRealization(tuple(pairs))


def random_proper_realization(n: int, rng: random.Random) -> IntervalRealization:
    """Random non-nesting realization: i-th left endpoint pairs with i-th right."""
    if n < 1:
        raise GraphInputError("need n >= 1")
    opens = n
    closes = n
    balance = 0
    lefts = []
    rights = []
    for pos in range(1, 2 * n + 1):
        # keep every prefix balanced so the i-th close lands after the i-th open
        if opens and (balance == 0 or (closes and rng.random() < 0.5)):
            lefts.append(pos)
            opens -= 1
            balance += 1
        else:
            rights.append(pos)
            closes -= 1
            balance -= 1
    return IntervalRealization(tuple(zip(lefts, rights)))
