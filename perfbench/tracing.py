"""Span tracing installed from outside the library.

``Tracer.install()`` swaps timing wrappers onto the public methods and
functions of each sigraph layer and ``uninstall()`` puts the originals
back; no source file changes. Every wrapped call records a span (name,
start, end, parent span, operation id) in flat arrays that stay in memory
until the run ends. ``Tracer.op(kind)`` opens the root span of one
user-level operation, so spans of one query, build or load share an id.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from catalog import OPS, TAIL
from sigraph import algorithms, bitvector, circular, graph, rmq, serial, variants, wavelet

LAYERS = ("bitvector", "rmq", "wavelet", "serial", "graph", "variants",
          "circular", "algorithms", "cli")
STRUCTURE_LAYERS = ("graph", "variants", "circular")
QUERY_METHODS = ("degree", "adjacent", "neighborhood", "spath", "realization",
                 "from_realization", "to_bytes", "from_bytes")

# (layer, owner, attribute, span name); a None name means select, which
# is split into select0 / select1 by its bit argument.
_METHODS = [
    ("bitvector", bitvector.BitVector, "select", None),
    ("bitvector", bitvector.BitVector, "rank", "rank"),
    ("bitvector", bitvector.BitVector, "access", "access"),
    ("bitvector", bitvector.BitVector, "__init__", "build"),
    ("bitvector", bitvector.BitVector, "from_bytes", "build"),
    ("rmq", rmq.RangeMaxIndex, "query", "query"),
    ("rmq", rmq.RangeMinIndex, "query", "query"),
    ("rmq", rmq.RangeMaxIndex, "__init__", "build"),
    ("rmq", rmq.RangeMinIndex, "__init__", "build"),
    ("wavelet", wavelet.AlphabetSequence, "access", "seq_access"),
    ("wavelet", wavelet.AlphabetSequence, "rank", "seq_rank"),
    ("wavelet", wavelet.AlphabetSequence, "select", "seq_select"),
    ("wavelet", wavelet.AlphabetSequence, "to_list", "to_list"),
    ("wavelet", wavelet.AlphabetSequence, "__init__", "build"),
    ("wavelet", wavelet.PointGrid, "__init__", "build"),
    ("wavelet", wavelet.PointGrid, "count", "grid_count"),
]
for _layer, _cls in (("graph", graph.SuccinctIntervalGraph),
                     ("variants", variants.ProperIntervalGraph),
                     ("variants", variants.KProperGraph),
                     ("circular", circular.CircularArcGraph)):
    _METHODS += [(_layer, _cls, m, m) for m in QUERY_METHODS]

_FUNCTIONS = [
    ("serial", serial, "pack_uints", "pack"),
    ("serial", serial, "unpack_uints", "unpack"),
    ("algorithms", algorithms, "mis", "mis"),
    ("algorithms", algorithms, "mvc", "mvc"),
    ("algorithms", algorithms, "max_clique", "max_clique"),
    ("algorithms", algorithms, "build_d_sequence", "build_d_sequence"),
    ("algorithms", algorithms, "greedy_coloring", "greedy_coloring"),
]

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # span name per id, "layer.name"
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_kind: list[str] = []        # per operation id
        self.op_span: list[int] = []        # root span index per operation
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self._op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, layer: str, name, fn):
        tracer = self
        if name is None:
            ids = (self._name_id(f"{layer}.select0"), self._name_id(f"{layer}.select1"))

            def pick(args):
                return ids[1 if args[1] else 0]
        else:
            nid = self._name_id(f"{layer}.{name}")

            def pick(args):
                return nid

        def traced(*args, **kwargs):
            idx = tracer._open(pick(args))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.span_start[idx] = t0
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, kind: str):
        """Root span of one user-level operation."""
        self._op = len(self.op_kind)
        self.op_kind.append(kind)
        idx = self._open(self._name_id(f"op.{kind}"))
        self.op_span.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.span_end[idx] = perf_counter()
            self.span_start[idx] = t0
            self._stack.pop()
            self._op = -1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr, name in _METHODS:
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                new = classmethod(self._wrap(layer, name, static.__func__))
            else:
                new = self._wrap(layer, name, static)
            self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, new)
        # modules bind imported functions by name, so patch every binding
        modules = [m for key, m in sys.modules.items()
                   if key == "sigraph" or key.startswith("sigraph.")]
        for layer, module, attr, name in _FUNCTIONS:
            orig = getattr(module, attr)
            new = self._wrap(layer, name, orig)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans: a JSON header plus five little arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("span_name", "span_op", "span_parent", "span_start", "span_end")
        data = directory / f"{stem}.bin"
        with open(data, "wb") as f:
            for fld in fields:
                getattr(self, fld).tofile(f)
        header = {
            "spans": len(self.span_start),
            "fields": [[fld, getattr(self, fld).typecode] for fld in fields],
            "names": self.names,
            "op_kind": self.op_kind,
        }
        (directory / f"{stem}.json").write_text(json.dumps(header))
        return data


def summarize(tr: Tracer, work: dict) -> dict:
    """Per-layer metrics from the recorded spans.

    ``work`` gives, per operation kind, the divisor of its per-op counts:
    queries for degree/adjacent, neighbors for neighborhood, hops for
    spath, vertices for load, plus ``algo_n``, the vertex count of the
    structure the algorithms run on.
    """
    count = len(tr.span_start)
    names = tr.names
    layer_of = [nm.split(".", 1)[0] for nm in names]
    start, end, parent, op_of, nm_of = (
        tr.span_start, tr.span_end, tr.span_parent, tr.span_op, tr.span_name)
    op_kind = tr.op_kind

    self_time = array("d", (end[i] - start[i] for i in range(count)))
    alg_anc = array("l", [-1]) * count      # nearest enclosing algorithms span
    for i in range(count):
        p = parent[i]
        if p >= 0:
            self_time[p] -= end[i] - start[i]
            alg_anc[i] = p if layer_of[nm_of[p]] == "algorithms" else alg_anc[p]

    calls: dict = {}                # (name, op kind) -> count
    self_by: dict = {}              # (layer, op kind) -> self seconds
    incl_by: dict = {}              # (name, op kind) -> inclusive seconds
    self_samples: dict = {}         # name -> self seconds per call
    top_samples: dict = {}          # (name, op kind) -> inclusive, direct op children
    for i in range(count):
        name = names[nm_of[i]]
        kind = op_kind[op_of[i]] if op_of[i] >= 0 else "none"
        key = (name, kind)
        calls[key] = calls.get(key, 0) + 1
        lk = (layer_of[nm_of[i]], kind)
        self_by[lk] = self_by.get(lk, 0.0) + self_time[i]
        incl_by[key] = incl_by.get(key, 0.0) + end[i] - start[i]
        self_samples.setdefault(name, array("d")).append(self_time[i])
        p = parent[i]
        if p >= 0 and names[nm_of[p]].startswith("op."):
            top_samples.setdefault(key, array("d")).append(end[i] - start[i])

    op_total = {}
    op_count = {}
    for idx, kind in zip(tr.op_span, op_kind):
        op_total[kind] = op_total.get(kind, 0.0) + end[idx] - start[idx]
        op_count[kind] = op_count.get(kind, 0) + 1

    def per(name, kind):
        return calls.get((name, kind), 0) / work[kind] if work.get(kind) else 0.0

    def share(layer, kind):
        total = op_total.get(kind, 0.0)
        return self_by.get((layer, kind), 0.0) / total if total else 0.0

    def median_us(name):
        s = self_samples.get(name)
        return statistics.median(s) * 1e6 if s else 0.0

    def incl(name, kinds):
        return sum(incl_by.get((name, k), 0.0) for k in kinds)

    build_ops = ("setup", "save", "load")
    m: dict = {}
    for prim in ("select0", "select1", "rank", "access"):
        m[f"bitvector.{prim}.us"] = median_us(f"bitvector.{prim}")
    for prim in ("select0", "select1", "rank"):
        for kind in OPS:
            m[f"bitvector.{prim}.per_{kind}"] = per(f"bitvector.{prim}", kind)
    for kind in OPS:
        m[f"bitvector.share_{kind}"] = share("bitvector", kind)
    m["bitvector.build_s"] = incl("bitvector.build", ("setup",))

    m["rmq.query.us"] = median_us("rmq.query")
    for kind in ("neighborhood", "spath"):
        m[f"rmq.query.per_{kind}"] = per("rmq.query", kind)
    rmq_nbhd = calls.get(("rmq.query", "neighborhood"), 0)
    m["rmq.useful_ratio"] = work["neighborhood"] / rmq_nbhd if rmq_nbhd else 0.0
    for kind in OPS:
        m[f"rmq.share_{kind}"] = share("rmq", kind)
    m["rmq.build_s"] = incl("rmq.build", ("setup",))

    m["wavelet.grid_count.us"] = median_us("wavelet.grid_count")
    m["wavelet.grid_count.per_degree"] = per("wavelet.grid_count", "degree")
    for prim in ("seq_access", "seq_rank", "seq_select"):
        for kind in OPS:
            m[f"wavelet.{prim}.per_{kind}"] = per(f"wavelet.{prim}", kind)
    m["wavelet.to_list_s"] = incl("wavelet.to_list", build_ops)
    m["wavelet.build_s"] = incl("wavelet.build", ("setup",))
    for kind in OPS:
        m[f"wavelet.share_{kind}"] = share("wavelet", kind)

    m["serial.pack_s"] = incl("serial.pack", ("save",))
    m["serial.unpack_s"] = incl("serial.unpack", ("load",))

    for layer in STRUCTURE_LAYERS:
        for q in ("degree", "adjacent"):
            s = sorted(top_samples.get((f"{layer}.{q}", q), ()))
            m[f"{layer}.{q}.us_p50"] = _pct(s, 50) * 1e6
            m[f"{layer}.{q}.{TAIL}"] = _pct(s, 99) * 1e6
        for q, unit in (("neighborhood", "nbr"), ("spath", "hop")):
            total = sum(top_samples.get((f"{layer}.{q}", q), ()))
            m[f"{layer}.{q}.us_per_{unit}"] = total / work[q] * 1e6 if work.get(q) else 0.0
        loads = op_count.get("load", 0)
        m[f"{layer}.realization_s"] = (
            incl(f"{layer}.realization", ("load",)) / loads if loads else 0.0)
        for kind in OPS:
            m[f"{layer}.self_share_{kind}"] = share(layer, kind)

    n_algo = op_count.get("algo", 0) or 1
    for fn in ("mis", "max_clique", "build_d_sequence"):
        m[f"algorithms.{fn}_s"] = incl(f"algorithms.{fn}", ("algo",)) / n_algo
    n_col = op_count.get("coloring", 0) or 1
    m["algorithms.greedy_coloring_s"] = incl("algorithms.greedy_coloring", ("coloring",)) / n_col
    nbhd_calls = 0
    rank_in_d = 0
    for i in range(count):
        a = alg_anc[i]
        if a < 0:
            continue
        name = names[nm_of[i]]
        owner = names[nm_of[a]]
        if owner == "algorithms.greedy_coloring" and name.endswith(".neighborhood"):
            nbhd_calls += 1
        elif owner == "algorithms.build_d_sequence" and name == "bitvector.rank":
            rank_in_d += 1
    m["algorithms.neighborhood_calls"] = nbhd_calls / n_col
    m["algorithms.rank_per_vertex"] = rank_in_d / n_algo / work["algo_n"]

    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.errors"] = tr.errors[layer]
    return m


def _pct(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]
