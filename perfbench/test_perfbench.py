"""Self-tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._use_checkout_sources()

import catalog  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SMALL = {"n": 3000, "companion_n": 300}


def small(name: str, seed: int = 7):
    return workloads.make(name, seed, **SMALL)


class OffByOne:
    """A structure whose degree is always one too high."""

    def __init__(self, g):
        self._g = g

    def degree(self, v):
        return self._g.degree(v) + 1

    def __getattr__(self, name):
        return getattr(self._g, name)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_agrees_with_library(name):
    w = small(name)
    bench = run.Bench(w, 1)
    g = w.build()
    for kind, fn, items in (
        ("degree", g.degree, [(v,) for v in w.degree_pool[:200]]),
        ("adjacent", g.adjacent, w.adjacent_pool[:200]),
        ("neighborhood", g.neighborhood, [(v,) for v in w.neighborhood_pool[:20]]),
        ("spath", g.spath, w.spath_pool[:20]),
    ):
        bench.check_queries(kind, items, run._calls(fn, items))
    assert bench.attempted == 440 and bench.failed == 0


def test_wrong_degree_gives_errors():
    w = small("nested-kproper")
    bench = run.Bench(w, 1)
    run.Queries(bench).run(OffByOne(w.build()), 0.5, lambda rates: None)
    assert bench.failed > 0
    assert bench.failed / bench.attempted > 0


def test_untraced_reports_every_end_to_end_metric():
    bench = run.Bench(small("circular-random"), 1)
    metrics = bench.untraced()
    assert set(metrics) == {name for name, _, _, _ in catalog.END_TO_END}
    assert all(v > 0 for v in metrics.values())
    assert bench.attempted > 0 and bench.failed == 0


def test_heap_walk_repeats():
    w = small("nested-kproper")
    g = w.build()
    first = harness.deep_bytes(g)
    assert first > 0
    assert harness.deep_bytes(g) == first
    assert harness.deep_bytes(w.build()) == first


def test_nested_generator_meets_its_bound():
    w = small("nested-kproper", seed=3)
    assert w.stats["k"] <= workloads.NESTED_K_BOUND
    assert w.ref.connected()
    assert all(w.ref.distance(u, v) is not None for u, v in w.spath_pool)


def _counts(metrics: dict) -> dict:
    units = {name: unit for name, unit, _ in catalog.per_layer()}
    return {name: v for name, v in metrics.items()
            if units[name].startswith("calls") or units[name] in ("count", "nbrs/call")}


@pytest.mark.parametrize("name", ["proper-chain", "nested-kproper"])
def test_traced_counts_repeat(name):
    first = run.Bench(small(name), 1).traced()
    second = run.Bench(small(name), 1).traced()
    assert _counts(first) == _counts(second)
    assert set(first) == {name for name, _, _ in catalog.per_layer()}
    if name == "proper-chain":
        rmq = {k: v for k, v in first.items() if k.startswith("rmq.query.")}
        assert rmq and not any(rmq.values())
    else:
        assert first["rmq.query.per_neighborhood"] > 0


def test_benchmark_json_matches_catalogue():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.benchmark_json()


def test_refuses_without_sources(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proper-chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
