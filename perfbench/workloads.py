"""Workload definitions: seeded input generators and query pools.

Every input is drawn from a ``random.Random`` seeded by the workload seed,
so one seed always gives the same realization, the same companion
instance and the same query pools. Generation is never timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from sigraph import (
    CircularArcGraph,
    KProperGraph,
    ProperIntervalGraph,
    SuccinctIntervalGraph,
    normalize,
    random_arc_realization,
    random_proper_realization,
)

import reference

N = 100_000
COMPANION_N = 2_000
POOL_VERTICES = 2_048   # degree / adjacent pool
POOL_HEAVY = 256        # neighborhood / spath pool

# Bounded-nesting family: left ends uniform on [0, n/16), lengths uniform
# in [1, 1.15]. Sixteen starts per unit length keep the graph connected
# (a span of n/4, four starts per unit, leaves gaps and every spath is
# None); the length spread keeps the containment depth k near 7.
NESTED_SPAN_DIVISOR = 16
NESTED_LENGTHS = (1.0, 1.15)
NESTED_K_BOUND = 7
NESTED_ATTEMPTS = 20


class WorkloadError(Exception):
    """The generator could not produce a valid input for this seed."""


@dataclass
class Workload:
    name: str
    family: str                 # "linear" or "circular"
    cls: type
    real: object                # IntervalRealization or ArcRealization
    algo_real: object           # linear realization the algorithms run on
    companion: object           # COMPANION_N-vertex linear instance for coloring
    ref: object                 # reference.Linear or reference.Circular
    build_kwargs: dict = field(default_factory=dict)
    algo_cls: type = SuccinctIntervalGraph
    stats: dict = field(default_factory=dict)
    degree_pool: list = field(default_factory=list)
    adjacent_pool: list = field(default_factory=list)
    neighborhood_pool: list = field(default_factory=list)
    spath_pool: list = field(default_factory=list)

    def __post_init__(self):
        self.algo_ref = (self.ref if self.algo_real is self.real
                         else reference.Linear(self.algo_real))
        self.companion_ref = reference.Linear(self.companion)

    def build(self):
        return self.cls.from_realization(self.real, **self.build_kwargs)

    def build_linear(self, real):
        """Structure for an algorithm instance or a coloring companion."""
        return self.algo_cls.from_realization(real, **self.build_kwargs)


def nested_realization(n: int, rng: random.Random):
    """Bounded-nesting realization; redrawn until it is connected and its
    containment depth k is at most NESTED_K_BOUND."""
    lo, hi = NESTED_LENGTHS
    span = n / NESTED_SPAN_DIVISOR
    for _ in range(NESTED_ATTEMPTS):
        raw = []
        for _ in range(n):
            a = rng.uniform(0.0, span)
            raw.append((a, a + rng.uniform(lo, hi)))
        real = normalize(raw)
        ref = reference.Linear(real)
        if ref.connected() and ref.max_containment_depth() <= NESTED_K_BOUND:
            return real
    raise WorkloadError(
        f"no connected bounded-nesting input with k <= {NESTED_K_BOUND} "
        f"in {NESTED_ATTEMPTS} draws"
    )


def _normal_arcs(real):
    """Interval realization of the arcs that do not cross the anchor."""
    return normalize([(l, r) for l, r in real.arcs if l < r])


def _pools(w: Workload, rng: random.Random) -> None:
    n = w.real.n
    w.degree_pool = [rng.randint(1, n) for _ in range(POOL_VERTICES)]
    w.adjacent_pool = [
        (rng.randint(1, n), rng.randint(1, n)) for _ in range(POOL_VERTICES)
    ]
    w.neighborhood_pool = [rng.randint(1, n) for _ in range(POOL_HEAVY)]
    # Pairs are redrawn until connected, so every spath returns a path
    # (random proper inputs split into components).
    w.spath_pool = []
    while len(w.spath_pool) < POOL_HEAVY:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if w.family == "circular" or w.ref.distance(u, v) is not None:
            w.spath_pool.append((u, v))


def make(name: str, seed: int, n: int = N, companion_n: int = COMPANION_N) -> Workload:
    """Generate the named workload's inputs, references and pools."""
    rng = random.Random(f"{name}/{seed}")
    if name == "proper-chain":
        real = random_proper_realization(n, rng)
        companion = random_proper_realization(companion_n, rng)
        w = _linear(name, ProperIntervalGraph, real, companion)
    elif name == "nested-kproper":
        real = nested_realization(n, rng)
        companion = nested_realization(companion_n, rng)
        w = _linear(name, KProperGraph, real, companion, mode="proper")
        w.stats["k"] = w.ref.max_containment_depth()
        w.stats["k_bound"] = NESTED_K_BOUND
    elif name == "circular-random":
        real = random_arc_realization(n, rng, require_reversed=False)
        companion = _normal_arcs(
            random_arc_realization(companion_n, rng, require_reversed=False))
        w = Workload(
            name=name, family="circular", cls=CircularArcGraph, real=real,
            algo_real=_normal_arcs(real), companion=companion,
            ref=reference.Circular(real),
        )
    else:
        raise WorkloadError(f"unknown workload {name!r}")
    _pools(w, rng)
    w.stats["n"] = n
    w.stats["edges"] = w.ref.edge_count()
    w.stats["mean_degree"] = 2 * w.stats["edges"] / n
    if w.family == "linear":
        dists = [w.ref.distance(u, v) for u, v in w.spath_pool]
        w.stats["mean_hops"] = sum(dists) / len(dists)
    return w


def _linear(name, cls, real, companion, **kwargs) -> Workload:
    return Workload(
        name=name, family="linear", cls=cls, real=real, algo_real=real,
        companion=companion, ref=reference.Linear(real),
        build_kwargs=kwargs, algo_cls=cls,
    )


# proper-chain is not in BENCHMARK.json; the self-tests use it as the
# workload that bypasses rmq.
WORKLOADS = ("nested-kproper", "circular-random", "proper-chain")
