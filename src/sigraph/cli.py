"""Command-line front end: build, query, run algorithms, verify, bench.

Exit codes: 0 ok, 1 internal error, 2 input or type error, 3 query
error, 4 verify mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from pathlib import Path
from time import perf_counter
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

from . import algorithms
from .circular import CircularArcGraph, anchor_arcs, random_arc_realization
from .errors import GraphInputError, QueryRangeError, SerializationError
from .graph import SuccinctIntervalGraph
from .intervals import (
    normalize,
    parse_realization_text,
    random_proper_realization,
    random_realization,
)
from .variants import MODE_IMPROPER, MODE_PROPER, KProperGraph, ProperIntervalGraph
from .verify import verify

# each --type: its structure's constructor from a realization, and the
# random realization generator that verify --random and bench draw from
_KINDS = {
    "interval": (SuccinctIntervalGraph, random_realization),
    "proper": (ProperIntervalGraph, random_proper_realization),
    "kproper": (lambda real: KProperGraph(real, MODE_PROPER), random_realization),
    "kimproper": (lambda real: KProperGraph(real, MODE_IMPROPER), random_realization),
    "circular": (
        CircularArcGraph,
        lambda n, rng: random_arc_realization(n, rng, require_reversed=False),
    ),
}

_LOADERS = {
    b"SIGR": SuccinctIntervalGraph,
    b"SPGR": ProperIntervalGraph,
    b"SKGR": KProperGraph,
    b"SCAG": CircularArcGraph,
}


# shared code, not data a structure holds: the heap walk stops there
_NOT_OWNED = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)


def _heap_bytes(root) -> int:
    """Bytes of every object reachable from root, each counted once: a
    referent walk with sys.getsizeof that stops at classes, modules and
    functions."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_OWNED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def load_structure(path):
    data = Path(path).read_bytes()
    cls = _LOADERS.get(bytes(data[:4]))
    if cls is None:
        raise SerializationError(f"{path}: not a recognized structure file")
    return cls.from_bytes(data)


def _read_realization(path: str, want: str, anchor=None):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise GraphInputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    kind, pairs = parse_realization_text(text)
    if want == "circular":
        if kind != "circular":
            raise GraphInputError(f"{path}: expected a circular realization, got {kind}")
        return anchor_arcs(pairs, anchor)
    if kind != "interval":
        raise GraphInputError(f"{path}: expected an interval realization, got {kind}")
    return normalize(pairs)


def _emit(args, text: str, payload) -> None:
    print(json.dumps(payload, sort_keys=True) if args.json else text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("SIG_SEED", "1")
    try:
        return int(raw)
    except ValueError:
        raise GraphInputError(f"SIG_SEED must be an integer, got {raw!r}") from None


# -- commands ------------------------------------------------------------


def cmd_build(args) -> int:
    if args.anchor is not None and args.type != "circular":
        raise GraphInputError("--anchor applies to circular structures only")
    real = _read_realization(args.input, args.type, args.anchor)
    build, _ = _KINDS[args.type]
    blob = build(real).to_bytes()
    Path(args.output).write_bytes(blob)
    _emit(
        args,
        f"wrote {args.output}: {args.type} structure, n={real.n}, {len(blob)} bytes",
        {"output": args.output, "type": args.type, "n": real.n, "bytes": len(blob)},
    )
    return 0


def cmd_query(args) -> int:
    g = load_structure(args.file)
    need = 2 if args.op in ("adjacent", "spath") else 1
    if len(args.vertex) != need:
        raise GraphInputError(f"{args.op} takes {need} vertex argument(s)")
    if args.op == "degree":
        d = g.degree(args.vertex[0])
        _emit(args, str(d), {"degree": d})
    elif args.op == "adjacent":
        a = g.adjacent(args.vertex[0], args.vertex[1])
        _emit(args, "true" if a else "false", {"adjacent": a})
    elif args.op == "neighborhood":
        hood = g.neighborhood(args.vertex[0])
        _emit(args, " ".join(map(str, hood)), {"neighborhood": hood})
    else:
        path = g.spath(args.vertex[0], args.vertex[1])
        _emit(
            args,
            "none" if path is None else " ".join(map(str, path)),
            {"path": path},
        )
    return 0


def cmd_algo(args) -> int:
    g = load_structure(args.file)
    if isinstance(g, CircularArcGraph):
        raise GraphInputError("algorithms expect a linear interval structure")
    if args.op == "mis":
        out = algorithms.mis(g)
        _emit(args, " ".join(map(str, out)), {"mis": out})
    elif args.op == "mvc":
        out = algorithms.mvc(g)
        _emit(args, " ".join(map(str, out)), {"mvc": out})
    elif args.op == "clique":
        w = algorithms.max_clique(g)
        _emit(
            args,
            f"size {w.size}\n" + " ".join(map(str, w.members)),
            {"size": w.size, "cut": w.cut, "members": list(w.members)},
        )
    elif args.op == "coloring":
        c = algorithms.greedy_coloring(g)
        _emit(
            args,
            f"colors {c.used}\n" + " ".join(map(str, c.colors)),
            {"used": c.used, "colors": list(c.colors)},
        )
    else:
        order = {"dfs": algorithms.dfs_order, "bfs": algorithms.bfs_order,
                 "peo": algorithms.peo}[args.op](g)
        _emit(args, " ".join(map(str, order)), {"order": order})
    return 0


def cmd_verify(args) -> int:
    if (args.input is None) == (args.random is None):
        raise GraphInputError("verify needs exactly one of --input or --random")
    # a constructor that rejects its input (a nesting one for --type
    # proper) raises a type error, not a mismatch
    build, draw = _KINDS[args.type]
    failures: list[str] = []
    if args.input is not None:
        real = _read_realization(args.input, args.type, None)
        failures = [f"{args.input}: {msg}" for msg in verify(build(real), real)]
        trials = 1
    else:
        if args.trials < 1:
            raise GraphInputError(f"--trials must be at least 1, got {args.trials}")
        rng = random.Random(_seed(args))
        trials = args.trials
        for t in range(trials):
            real = draw(args.random, rng)
            for msg in verify(build(real), real):
                failures.append(f"trial {t + 1}: {msg}")
            if failures:
                break
    if not failures:
        _emit(args, f"PASS {args.type} ({trials} instance(s))",
              {"ok": True, "type": args.type, "trials": trials})
        return 0
    shown = failures[:10]
    lines = [f"FAIL {args.type}"] + shown
    if len(failures) > len(shown):
        lines.append(f"({len(failures) - len(shown)} more)")
    _emit(args, "\n".join(lines),
          {"ok": False, "type": args.type, "mismatches": failures})
    return 4


def _time_queries(label: str, fn, samples, report: dict, per=None) -> None:
    """Time fn over samples into report[label]; per = (unit, size) also
    reports us_per_<unit>, the time over the summed size of the answers,
    or None when they sum to 0."""
    if not samples:
        return
    answers = []
    t0 = perf_counter()
    for s in samples:
        answers.append(fn(*s))
    dt = perf_counter() - t0
    stats = {"count": len(samples), "avg_us": round(dt / len(samples) * 1e6, 2)}
    if per is not None:
        unit, size = per
        total = sum(size(a) for a in answers)
        stats[f"us_per_{unit}"] = round(dt / total * 1e6, 3) if total else None
    report[label] = stats


def cmd_bench(args) -> int:
    if args.queries < 0:
        raise GraphInputError(f"--queries must be at least 0, got {args.queries}")
    rng = random.Random(_seed(args))
    n = args.n
    build, draw = _KINDS[args.type]
    real = draw(n, rng)
    t0 = perf_counter()
    g = build(real)
    build_s = perf_counter() - t0
    t0 = perf_counter()
    blob = g.to_bytes()
    save_s = perf_counter() - t0
    t0 = perf_counter()
    loaded = type(g).from_bytes(blob)     # validated, as every load is
    load_s = perf_counter() - t0
    if loaded.to_bytes() != blob:
        raise RuntimeError(f"{args.type} blob does not re-encode byte-identically")
    heap_bits = 8 * _heap_bytes(g)
    components = g.space_report()
    total = sum(components.values())
    deg_sum = sum(g.degree(v) for v in range(1, n + 1))
    m = deg_sum // 2
    endpoint_width = max(1, (2 * n).bit_length())
    label_width = max(1, (n - 1).bit_length()) if n > 1 else 1
    baselines = {
        "endpoint_array_bits": 2 * n * endpoint_width,
        "adjacency_list_bits": 2 * m * label_width,
        "edges": m,
    }
    q = args.queries
    queries: dict = {}
    verts = [rng.randint(1, n) for _ in range(q)]
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(q)]
    _time_queries("degree", g.degree, [(v,) for v in verts], queries)
    _time_queries("adjacent", g.adjacent, pairs, queries)
    _time_queries("neighborhood", g.neighborhood,
                  [(v,) for v in verts[: min(q, 20)]], queries, ("nbr", len))
    _time_queries("spath", g.spath, pairs[: min(q, 20)], queries,
                  ("hop", lambda path: len(path) - 1 if path else 0))
    rep = {
        "kind": args.type,
        "n": n,
        "total_bits": total,
        "bits_per_vertex": round(total / n, 3),
        "build_seconds": round(build_s, 4),
        "save_seconds": round(save_s, 4),
        "load_seconds": round(load_s, 4),
        "heap_bits": heap_bits,
        "heap_bits_per_vertex": round(heap_bits / n, 3),
        "components": components,
        "baselines": baselines,
        "queries": queries,
    }
    if not isinstance(g, CircularArcGraph):
        rep["algorithms"] = timed = {}
        for name in ("mis", "mvc", "max_clique", "greedy_coloring"):
            run = getattr(algorithms, name)
            t0 = perf_counter()
            run(g)
            timed[name] = round(perf_counter() - t0, 6)
    if args.json:
        print(json.dumps(rep, sort_keys=True))
        return 0
    lines = [
        f"{args.type} structure, n={n}, edges={m}",
        f"build time: {rep['build_seconds']}s, save {rep['save_seconds']}s, "
        f"validated load {rep['load_seconds']}s",
        f"total bits: {total} ({rep['bits_per_vertex']} per vertex)",
        f"heap bits: {heap_bits} ({rep['heap_bits_per_vertex']} per vertex)",
        "components:",
    ]
    for name, bits in sorted(components.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name}: {bits}")
    lines.append(
        f"baselines: endpoint array {baselines['endpoint_array_bits']} bits, "
        f"adjacency lists {baselines['adjacency_list_bits']} bits"
    )
    for name, stats in queries.items():
        line = f"{name}: {stats['avg_us']} us over {stats['count']} queries"
        for unit in ("nbr", "hop"):
            if f"us_per_{unit}" in stats:
                line += f", {stats[f'us_per_{unit}']} us per {unit}"
        lines.append(line)
    if "algorithms" in rep:
        lines.append("algorithms: " + ", ".join(
            f"{name} {secs}s" for name, secs in rep["algorithms"].items()))
    print("\n".join(lines))
    return 0


# -- parser --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sigraph",
        description="Succinct interval and circular-arc graph structures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a structure from a text realization")
    b.add_argument("--type", choices=tuple(_KINDS), default="interval")
    b.add_argument("--input", required=True, help="text realization file")
    b.add_argument("--output", required=True, help="binary structure file")
    b.add_argument("--anchor", type=int, default=None,
                   help="circular only: anchor arc by 1-based input index")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="run a query against a built structure")
    q.add_argument("file")
    q.add_argument("op", choices=("degree", "adjacent", "neighborhood", "spath"))
    q.add_argument("vertex", type=int, nargs="+")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_query)

    a = sub.add_parser("algo", help="run a classical algorithm")
    a.add_argument("file")
    a.add_argument("op", choices=("mis", "mvc", "clique", "coloring", "dfs", "bfs", "peo"))
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_algo)

    v = sub.add_parser("verify", help="cross-check against the brute oracle")
    v.add_argument("--type", choices=tuple(_KINDS), default="interval")
    v.add_argument("--input", default=None, help="text realization file")
    v.add_argument("--random", type=int, default=None, metavar="N",
                   help="verify random instances of n vertices")
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("bench", help="space accounting and query timings")
    e.add_argument("--type", choices=tuple(_KINDS), default="interval")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--queries", type=int, default=100)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        return args.func(args)
    except QueryRangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - safety net
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
