"""The benchmark's metric catalogue and its BENCHMARK.json.

``python3 perfbench/catalog.py`` rewrites BENCHMARK.json at the checkout
root from the lists below, so the file and the runner cannot disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 60              # measured wall time of one untraced run
TRACE_QUERIES = 2000          # degree / adjacent calls in a traced run
TAIL = f"us_p99_n{TRACE_QUERIES}"

# Two workloads; together they use all nine layers (README.md, "Dropped
# workloads"). A run needs about 60 s to average out the speed swings of
# a shared VM, and repeated runs of four such workloads take too long.
WORKLOADS = [
    ("nested-kproper",
     "KProperGraph on bounded nesting (k<=7): variants and wavelet in build/load, "
     "sparse RMQ reports, ~2000-hop spath. proper-chain dropped: 2 workloads let "
     "each run last 60 s"),
    ("circular-random",
     "CircularArcGraph: PointGrid.count in degree, grids in build/load; algorithms "
     "and coloring use its non-wrapping arcs as a SuccinctIntervalGraph. "
     "interval-dense dropped, same reason"),
]

# name, unit, better, bound (share of the parent's median). Timings get
# the widest bound allowed: on a shared 2-core VM the CPU-time speed of
# this pointer-heavy code swings by up to 1.7x in spells of seconds to
# minutes (README.md, "Time is CPU time, scaled by a reference loop").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("save_s", "s", "lower", 0.25),
    ("load_s", "s", "lower", 0.25),
    ("cold_query_s", "s", "lower", 0.25),
    ("degree_qps", "queries/s", "higher", 0.25),
    ("adjacent_qps", "queries/s", "higher", 0.25),
    ("neighborhood_nbrs_per_s", "neighbors/s", "higher", 0.25),
    ("spath_hops_per_s", "hops/s", "higher", 0.25),
    ("algo_s", "s", "lower", 0.25),
    ("coloring_s", "s", "lower", 0.25),
    ("space_bits_per_vertex", "bits/vertex", "lower", 0.02),
    ("blob_bits_per_vertex", "bits/vertex", "lower", 0.02),
    ("heap_bits_per_vertex", "bits/vertex", "lower", 0.05),
]

OPS = ("degree", "adjacent", "neighborhood", "spath", "load")
_PER_UNIT = {"degree": "calls/query", "adjacent": "calls/query",
             "neighborhood": "calls/nbr", "spath": "calls/hop", "load": "calls/vertex"}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every traced metric, in output order."""
    out = []
    for prim in ("select0", "select1", "rank", "access"):
        out.append((f"bitvector.{prim}.us", "us", "lower"))
    for prim in ("select0", "select1", "rank"):
        out += [(f"bitvector.{prim}.per_{op}", _PER_UNIT[op], "lower") for op in OPS]
    out += [(f"bitvector.share_{op}", "share", "lower") for op in OPS]
    out.append(("bitvector.build_s", "s", "lower"))

    out.append(("rmq.query.us", "us", "lower"))
    out += [(f"rmq.query.per_{op}", _PER_UNIT[op], "lower") for op in ("neighborhood", "spath")]
    out.append(("rmq.useful_ratio", "nbrs/call", "higher"))
    out += [(f"rmq.share_{op}", "share", "lower") for op in OPS]
    out.append(("rmq.build_s", "s", "lower"))

    out.append(("wavelet.grid_count.us", "us", "lower"))
    out.append(("wavelet.grid_count.per_degree", "calls/query", "lower"))
    for prim in ("seq_access", "seq_rank", "seq_select"):
        out += [(f"wavelet.{prim}.per_{op}", _PER_UNIT[op], "lower") for op in OPS]
    out.append(("wavelet.to_list_s", "s", "lower"))
    out.append(("wavelet.build_s", "s", "lower"))
    out += [(f"wavelet.share_{op}", "share", "lower") for op in OPS]

    out.append(("serial.pack_s", "s", "lower"))
    out.append(("serial.unpack_s", "s", "lower"))

    for layer in ("graph", "variants", "circular"):
        for q in ("degree", "adjacent"):
            out.append((f"{layer}.{q}.us_p50", "us", "lower"))
            out.append((f"{layer}.{q}.{TAIL}", "us", "lower"))
        out.append((f"{layer}.neighborhood.us_per_nbr", "us/nbr", "lower"))
        out.append((f"{layer}.spath.us_per_hop", "us/hop", "lower"))
        out.append((f"{layer}.realization_s", "s", "lower"))
        out += [(f"{layer}.self_share_{op}", "share", "lower") for op in OPS]

    for fn in ("mis", "max_clique", "build_d_sequence", "greedy_coloring"):
        out.append((f"algorithms.{fn}_s", "s", "lower"))
    out.append(("algorithms.neighborhood_calls", "calls", "lower"))
    out.append(("algorithms.rank_per_vertex", "calls/vertex", "lower"))

    out.append(("cli.interpreter_s", "s", "lower"))
    out.append(("cli.import_s", "s", "lower"))
    out.append(("cli.load_share", "share", "lower"))

    for layer in ("bitvector", "rmq", "wavelet", "serial", "graph", "variants",
                  "circular", "algorithms", "cli"):
        out.append((f"{layer}.errors", "count", "lower"))
    out.append(("error_rate", "share", "lower"))
    out.append(("trace.overhead", "share", "lower"))
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")
