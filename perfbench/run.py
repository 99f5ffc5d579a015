"""Layered benchmark for sigraph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates the workload from the
seed, times what a user of the library and of the CLI pays, checks every
timed answer against a reference computed from the realization alone,
and prints one JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics, measured for about S seconds
of wall time; each timing is CPU time (harness.py). The load is a closed
loop from one process and one caller thread; cold-query processes run
one at a time. --trace 1 runs a fixed amount of work twice, plain and
then with span tracing installed, and reports the per-layer metrics and
the tracing overhead. Spans are written to .perfbench/trace/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import catalog
import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SHORT_S = 0.3                 # repeat a cheap operation to this many seconds per round
ROUND_QUERY_S = 1.5           # query time per round
BATCH_S = 0.05                # target duration of one timed query batch
TRACE_NEIGHBORS = 50_000      # neighbors reported by a traced run, at least
TRACE_HOPS = 20_000           # spath hops in a traced run, at least
BETTER = {name: better for name, _, better, _ in catalog.END_TO_END}


def _use_checkout_sources() -> None:
    if not (SRC / "sigraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sigraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigraph
    if SRC.resolve() not in Path(sigraph.__file__).resolve().parents:
        sys.exit(f"perfbench: imported sigraph from {sigraph.__file__}, not {SRC}")


def _calls(fn, items) -> list:
    out = []
    for args in items:
        try:
            out.append(fn(*args))
        except Exception as exc:  # a raised query is a failed operation
            out.append(exc)
    return out


class Bench:
    def __init__(self, w, seconds: float):
        self.w = w
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.cold = harness.ColdQuery(ROOT)
        self._nbhd_ref: dict = {}

    # -- correctness ------------------------------------------------------

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: wrong answer: {what}", file=sys.stderr)

    def _nbhd(self, v: int) -> list:
        if v not in self._nbhd_ref:
            self._nbhd_ref[v] = self.w.ref.neighborhood(v)
        return self._nbhd_ref[v]

    def check_queries(self, kind: str, items, outs) -> int:
        """Tally each answer; return the work it represents (queries,
        neighbors reported or hops returned)."""
        ref = self.w.ref
        work = 0
        for args, out in zip(items, outs):
            if kind == "degree":
                ok = out == ref.degree(*args)
                work += 1
            elif kind == "adjacent":
                ok = out is ref.adjacent(*args)
                work += 1
            elif kind == "neighborhood":
                ok = out == self._nbhd(*args)
                work += len(out) if ok else 0
            else:
                ok = not isinstance(out, Exception) and ref.path_ok(out, *args)
                work += len(out) - 1 if ok else 0
            self.tally(ok, f"{kind}{args} -> {str(out)[:80]}")
        return work

    def check_algorithms(self, outs) -> None:
        mis_out, mvc_out, clique = outs
        ref = self.w.algo_ref
        self.tally(ref.mis_ok(mis_out), "mis")
        self.tally(ref.mvc_ok(mvc_out, mis_out), "mvc")
        self.tally(ref.clique_ok(clique), "max_clique")

    def check_coloring(self, col) -> None:
        self.tally(self.w.companion_ref.coloring_ok(col.colors), "greedy_coloring")

    # -- timed operations -------------------------------------------------

    def prepare(self) -> None:
        """Structures the algorithms and coloring run on, built untimed."""
        self.algo_graph = self.w.build_linear(self.w.algo_real)
        self.companion = self.w.build_linear(self.w.companion)

    def algorithms(self) -> tuple:
        from sigraph import algorithms
        g = self.algo_graph
        return algorithms.mis(g), algorithms.mvc(g), algorithms.max_clique(g)

    def coloring(self):
        from sigraph import algorithms
        return algorithms.greedy_coloring(self.companion)

    def cold_query(self, blob: bytes) -> float:
        path = OUT / "work" / f"{self.w.name}.sig"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        v = self.w.degree_pool[0]
        dt, out = self.cold.query(path, ["degree", str(v)])
        self.tally(out == str(self.w.ref.degree(v)), f"cold query degree {v} -> {out}")
        return dt

    # -- end-to-end run ---------------------------------------------------

    def untraced(self) -> dict:
        """Rounds until self.seconds have passed. Each round times every
        operation once (a cheap one until SHORT_S of it is timed) and
        ROUND_QUERY_S of queries, so every metric is sampled across the
        whole run. Each sample is scaled by the reference loop timed just
        before and after it (harness.Reference), and each metric is the
        median of its scaled samples."""
        w = self.w
        n = w.real.n
        self.prepare()
        self.cold.check_import_path()
        ref = harness.Reference()
        plain = {}              # metric -> samples as measured
        scaled = {}             # metric -> samples scaled by the reference loop

        def add(name, values, scale):
            plain.setdefault(name, []).extend(values)
            scaled.setdefault(name, []).extend(
                v * scale if BETTER[name] == "lower" else v / scale for v in values)

        def sample(name, fn, check, max_reps=20):
            ref.start()
            times, out = harness.repeat(fn, SHORT_S, max_reps, check)
            add(name, times, ref.scale())
            return out

        def cycle_done(rates):
            scale = ref.scale()
            for name, values in rates.items():
                add(name, values, scale)

        def same_n(h):
            self.tally(h.n == n, "vertex count")

        queries = Queries(self)
        deadline = perf_counter() + self.seconds
        g = blob = None
        while True:
            t_round = perf_counter()
            g0 = sample("setup_s", w.build, same_n)
            blob = sample("save_s", g0.to_bytes,
                          lambda b: self.tally(blob is None or b == blob, "to_bytes differs"),
                          max_reps=50)
            del g0
            first = g is None
            g = None                    # free the previous copy first
            g = sample("load_s", lambda: w.cls.from_bytes(blob), same_n)
            if first:                   # the blob is the same in every round
                self.tally(g.to_bytes() == blob, "from_bytes does not round-trip")
            ref.start()
            add("cold_query_s", [self.cold_query(blob)], ref.scale())
            ref.start()
            queries.run(g, ROUND_QUERY_S, cycle_done)
            sample("algo_s", self.algorithms, self.check_algorithms)
            sample("coloring_s", self.coloring, self.check_coloring)
            now = perf_counter()
            if now + (now - t_round) > deadline:    # another round would overrun
                break

        m = {name: statistics.median(v) for name, v in scaled.items()}
        print("as measured, unscaled: " + " ".join(
            f"{name}={statistics.median(v):.5g}" for name, v in plain.items()))
        m["space_bits_per_vertex"] = sum(g.space_report().values()) / n
        m["blob_bits_per_vertex"] = 8 * len(blob) / n
        m["heap_bits_per_vertex"] = 8 * harness.deep_bytes(g) / n
        return m

    # -- traced run -------------------------------------------------------

    def fixed_items(self) -> dict:
        """The traced run's fixed work: a prefix of each pool chosen from
        the reference answers alone, so it repeats exactly for a seed."""
        w = self.w
        nbhd, total = [], 0
        for v in w.neighborhood_pool:
            if total >= TRACE_NEIGHBORS:
                break
            nbhd.append((v,))
            total += len(self._nbhd(v))
        spath, hops = [], 0
        for u, v in w.spath_pool:
            if hops >= TRACE_HOPS:
                break
            spath.append((u, v))
            hops += w.ref.distance(u, v) if w.family == "linear" else 1
        return {
            "degree": [(v,) for v in w.degree_pool[:catalog.TRACE_QUERIES]],
            "adjacent": w.adjacent_pool[:catalog.TRACE_QUERIES],
            "neighborhood": nbhd,
            "spath": spath,
        }

    def fixed_pass(self, items: dict, tr=None):
        """One pass of the fixed work, each operation in its own root
        span when a tracer is given. Returns (seconds spent in the
        operations, load seconds, blob, work per operation kind)."""
        w = self.w
        no_op = nullcontext()
        spent = {}

        def run(kind, fn, *args):
            t0 = perf_counter()
            with tr.op(kind) if tr else no_op:
                out = fn(*args)
            spent[kind] = spent.get(kind, 0.0) + perf_counter() - t0
            return out

        g0 = run("setup", w.build)
        blob = run("save", g0.to_bytes)
        g = run("load", w.cls.from_bytes, blob)
        self.tally(g.to_bytes() == blob, "from_bytes does not round-trip")
        work = {"load": g.n}
        for kind in ("degree", "adjacent", "neighborhood", "spath"):
            fn = getattr(g, kind)
            outs = [run(kind, _calls, fn, (args,))[0] for args in items[kind]]
            work[kind] = self.check_queries(kind, items[kind], outs)
        self.check_algorithms(run("algo", self.algorithms))
        self.check_coloring(run("coloring", self.coloring))
        work["algo_n"] = self.algo_graph.n
        return sum(spent.values()), spent["load"], blob, work

    def traced(self) -> dict:
        from tracing import Tracer, summarize
        self.prepare()
        items = self.fixed_items()
        _, (plain_s, load_s, blob, _) = harness.timed(lambda: self.fixed_pass(items))
        tr = Tracer()
        with tr.installed():
            _, (traced_s, _, _, work) = harness.timed(lambda: self.fixed_pass(items, tr))
        tr.write(OUT / "trace", self.w.name)
        m = summarize(tr, work)

        failed_before = self.failed
        interp, imp = self.cold.check_import_path()
        cold_s = self.cold_query(blob)
        m["cli.interpreter_s"] = interp
        m["cli.import_s"] = imp - interp
        m["cli.load_share"] = load_s / cold_s
        m["cli.errors"] = self.failed - failed_before
        m["error_rate"] = self.failed / self.attempted
        m["trace.overhead"] = traced_s / plain_s - 1
        return m


class Queries:
    """Timed query batches, round robin over the four kinds. Each batch
    is sized from the previous one to last about BATCH_S, and only
    batches that last at least half of that are kept, so the short ones
    that size the first batches are not. Rates are in queries, neighbors
    or hops per second."""

    KINDS = (("degree", "degree_qps"), ("adjacent", "adjacent_qps"),
             ("neighborhood", "neighborhood_nbrs_per_s"), ("spath", "spath_hops_per_s"))

    def __init__(self, bench: Bench):
        w = bench.w
        self.bench = bench
        self.pools = {
            "degree": [(v,) for v in w.degree_pool],
            "adjacent": w.adjacent_pool,
            "neighborhood": [(v,) for v in w.neighborhood_pool],
            "spath": w.spath_pool,
        }
        self.pos = dict.fromkeys(self.pools, 0)
        self.size = dict.fromkeys(self.pools, 1)

    def run(self, g, seconds: float, after_cycle) -> None:
        """Batches for about `seconds`; after each cycle of the four
        kinds, calls after_cycle({metric: rates of the kept batches})."""
        deadline = perf_counter() + seconds
        while True:
            rates = {metric: [] for _, metric in self.KINDS}
            for kind, metric in self.KINDS:
                fn = getattr(g, kind)
                pool, size = self.pools[kind], self.size[kind]
                items = [pool[(self.pos[kind] + j) % len(pool)] for j in range(size)]
                self.pos[kind] = (self.pos[kind] + size) % len(pool)
                dt, outs = harness.timed(lambda: _calls(fn, items), collect=False)
                work = self.bench.check_queries(kind, items, outs)
                if dt >= BATCH_S / 2:
                    rates[metric].append(work / dt)
                self.size[kind] = max(1, round(size * BATCH_S / dt))
            after_cycle(rates)
            if perf_counter() >= deadline:
                return


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _use_checkout_sources()

    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    t0 = perf_counter()
    w = workloads.make(args.workload, args.seed)
    # the generated inputs live for the whole run: keep the collector
    # from rescanning them between timed calls
    gc.collect()
    gc.freeze()
    stats = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in w.stats.items())
    print(f"{w.name} seed={args.seed}: {stats} (generated in {perf_counter() - t0:.1f}s)")

    # One processor for the run and its cold-query children, so that the
    # reference loop times the processor the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(w, args.seconds)
    if args.trace:
        values = bench.traced()
        units = {name: unit for name, unit, _ in catalog.per_layer()}
    else:
        values = bench.untraced()
        units = {name: unit for name, unit, _, _ in catalog.END_TO_END}
    mismatch = set(units) ^ set(values)
    if mismatch:
        sys.exit(f"perfbench: metrics disagree with the catalogue: {sorted(mismatch)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
