"""End-to-end CLI coverage: build, query, algo, verify, bench, and the
exit-code contract."""

import gc
import json
import random
import sys
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

import pytest

from conftest import FIG1_INTERVALS, FIG2_ARCS, FIG2_TABLE_BLOB, KINDS
from sigraph import algorithms
from sigraph.circular import CircularArcGraph, random_arc_realization
from sigraph.cli import load_structure, main
from sigraph.graph import IntervalQueries, SuccinctIntervalGraph
from sigraph.intervals import IntervalRealization, random_realization
from sigraph.serial import width_for
from sigraph.variants import containment_depths


def write_interval_text(path, pairs):
    lines = [f"interval {len(pairs)}"]
    lines += [f"{l} {r}" for l, r in pairs]
    path.write_text("\n".join(lines) + "\n")


def write_circular_text(path, pairs):
    lines = [f"circular {len(pairs)}"]
    lines += [f"{a} {b}" for a, b in pairs]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def fig1_file(tmp_path):
    src = tmp_path / "fig1.txt"
    write_interval_text(src, FIG1_INTERVALS)
    out = tmp_path / "fig1.sig"
    assert main(["build", "--input", str(src), "--output", str(out)]) == 0
    return out


@pytest.fixture
def fig2_file(tmp_path):
    src = tmp_path / "fig2.txt"
    write_circular_text(src, FIG2_ARCS)
    out = tmp_path / "fig2.sig"
    assert (
        main(["build", "--type", "circular", "--input", str(src), "--output", str(out)])
        == 0
    )
    return out


# -- build ---------------------------------------------------------------


def test_build_writes_loadable_structure(fig1_file):
    g = load_structure(fig1_file)
    assert type(g) is SuccinctIntervalGraph
    assert g.n == 9
    lib = SuccinctIntervalGraph.from_realization(IntervalRealization(FIG1_INTERVALS))
    assert fig1_file.read_bytes() == lib.to_bytes()


def test_build_normalizes_raw_coordinates(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text("interval 2\n0.5 2.0\n1.0 3.0\n")
    out = tmp_path / "raw.sig"
    assert main(["build", "--input", str(src), "--output", str(out), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 2
    g = load_structure(out)
    assert g.realization().intervals == ((1, 3), (2, 4))


def test_build_each_type(tmp_path):
    src = tmp_path / "proper.txt"
    write_interval_text(src, [(1, 3), (2, 5), (4, 6)])
    for kind in ("interval", "proper", "kproper", "kimproper"):
        out = tmp_path / f"{kind}.sig"
        assert (
            main(["build", "--type", kind, "--input", str(src), "--output", str(out)])
            == 0
        )
        assert load_structure(out).n == 3


def test_build_proper_rejects_nested_input(tmp_path, capsys):
    src = tmp_path / "nested.txt"
    write_interval_text(src, [(1, 4), (2, 3)])
    out = tmp_path / "nested.sig"
    code = main(["build", "--type", "proper", "--input", str(src), "--output", str(out)])
    assert code == 2
    assert "not proper" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text",
    [("interval", "interval 3\n0 nan\n1 2\n1.5 3\n"),
     ("circular", "circular 3\nnan 0.5\n0.2 0.7\n0.6 0.9\n")],
    ids=["interval", "circular"],
)
def test_build_rejects_nan_coordinate(kind, text, tmp_path, capsys):
    src = tmp_path / "nan.txt"
    src.write_text(text)
    out = tmp_path / "nan.sig"
    code = main(["build", "--type", kind, "--input", str(src), "--output", str(out)])
    assert code == 2
    assert "#1 has a NaN coordinate" in capsys.readouterr().err
    assert not out.exists()


def test_build_circular_anchor_override(tmp_path):
    src = tmp_path / "arcs.txt"
    write_circular_text(src, [(10, 30), (25, 70), (50, 5)])
    out = tmp_path / "arcs.sig"
    assert (
        main(
            ["build", "--type", "circular", "--input", str(src),
             "--output", str(out), "--anchor", "2"]
        )
        == 0
    )
    g = load_structure(out)
    assert g.arc_of(1)[0] == 1


@pytest.mark.parametrize("kind", ["interval", "proper", "kproper", "kimproper"])
def test_build_anchor_rejected_for_linear_types(kind, tmp_path, capsys):
    src = tmp_path / "linear.txt"
    write_interval_text(src, [(1, 3), (2, 5), (4, 6)])
    out = tmp_path / "linear.sig"
    code = main(["build", "--type", kind, "--input", str(src),
                 "--output", str(out), "--anchor", "1"])
    assert code == 2
    assert "--anchor" in capsys.readouterr().err
    assert not out.exists()


def test_stored_degree_table_file_is_rejected(tmp_path, capsys):
    """--degree-table is gone, and a file an older build wrote with it
    fails to load with exit 2; it must be rebuilt."""
    src = tmp_path / "fig2.txt"
    write_circular_text(src, FIG2_ARCS)
    out = tmp_path / "fig2.sig"
    assert main(["build", "--type", "circular", "--input", str(src),
                 "--output", str(out), "--degree-table"]) == 2
    assert not out.exists()
    capsys.readouterr()
    out.write_bytes(bytes.fromhex(FIG2_TABLE_BLOB))
    assert main(["query", str(out), "degree", "1"]) == 2
    assert "degree table" in capsys.readouterr().err


def test_build_missing_file_is_input_error(tmp_path):
    out = tmp_path / "x.sig"
    assert main(["build", "--input", str(tmp_path / "nope.txt"), "--output", str(out)]) == 2


def test_build_type_header_mismatch(tmp_path):
    src = tmp_path / "arcs.txt"
    write_circular_text(src, [(1, 2)])
    assert main(["build", "--input", str(src), "--output", str(tmp_path / "x.sig")]) == 2


def test_undecodable_input_is_input_error(tmp_path, capsys):
    """A realization file that is not UTF-8 text is an input error that
    names the file, for build and verify alike."""
    src = tmp_path / "latin1.txt"
    src.write_bytes(b"interval 1\n1 2 # caf\xe9\n")
    out = tmp_path / "x.sig"
    assert main(["build", "--input", str(src), "--output", str(out)]) == 2
    assert str(src) in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--input", str(src)]) == 2
    assert str(src) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["interval", "circular"])
def test_byte_order_mark_is_ignored(kind, tmp_path):
    """A realization file saved with a UTF-8 byte-order mark builds the
    same blob as the file without it, and verifies."""
    text = "interval 3\n1 3\n2 5\n4 6\n" if kind == "interval" else "circular 2\n1 3\n4 2\n"
    blobs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        src = tmp_path / f"{name}.txt"
        src.write_bytes(data)
        out = tmp_path / f"{name}.sig"
        assert main(["build", "--type", kind, "--input", str(src), "--output", str(out)]) == 0
        blobs.append(out.read_bytes())
        assert main(["verify", "--type", kind, "--input", str(src)]) == 0
    assert blobs[0] == blobs[1]


# -- query ---------------------------------------------------------------


def test_query_matches_library(fig1_file, capsys):
    g = SuccinctIntervalGraph.from_realization(IntervalRealization(FIG1_INTERVALS))
    assert main(["query", str(fig1_file), "degree", "6"]) == 0
    assert capsys.readouterr().out.strip() == str(g.degree(6)) == "4"
    assert main(["query", str(fig1_file), "adjacent", "4", "7"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["query", str(fig1_file), "neighborhood", "6"]) == 0
    assert capsys.readouterr().out.strip() == "5 7 8 9"
    assert main(["query", str(fig1_file), "spath", "1", "9"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 5 6 9"


def test_query_json(fig1_file, capsys):
    assert main(["query", str(fig1_file), "spath", "1", "9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"path": [1, 3, 5, 6, 9]}
    assert main(["query", str(fig1_file), "adjacent", "1", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"adjacent": True}


def test_query_circular(fig2_file, tmp_path, capsys):
    """FIG2's answers, then every op, plain and --json, against the
    library on a random n = 200 circular blob."""
    assert main(["query", str(fig2_file), "degree", "4"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["query", str(fig2_file), "adjacent", "1", "5"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["query", str(fig2_file), "adjacent", "7", "1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["query", str(fig2_file), "neighborhood", "6"]) == 0
    assert capsys.readouterr().out.strip() == "4 5"
    assert main(["query", str(fig2_file), "spath", "1", "6"]) == 0
    assert len(capsys.readouterr().out.split()) == 3
    rng = random.Random(23)
    g = CircularArcGraph(random_arc_realization(200, rng))
    blob = tmp_path / "random.sig"
    blob.write_bytes(g.to_bytes())
    for _ in range(8):
        u, v = rng.sample(range(1, 201), 2)
        path = g.spath(u, v)
        answers = {
            ("degree", u): ({"degree": g.degree(u)}, str(g.degree(u))),
            ("adjacent", u, v): ({"adjacent": g.adjacent(u, v)},
                                 "true" if g.adjacent(u, v) else "false"),
            ("neighborhood", u): ({"neighborhood": g.neighborhood(u)},
                                  " ".join(map(str, g.neighborhood(u)))),
            ("spath", u, v): ({"path": path},
                              "none" if path is None else " ".join(map(str, path))),
        }
        for (op, *verts), (payload, text) in answers.items():
            argv = ["query", str(blob), op, *map(str, verts)]
            assert main(argv) == 0
            assert capsys.readouterr().out.strip() == text, argv
            assert main(argv + ["--json"]) == 0
            assert json.loads(capsys.readouterr().out) == payload, argv


def test_query_disconnected_prints_none(tmp_path, capsys):
    src = tmp_path / "d.txt"
    write_interval_text(src, [(1, 2), (3, 4)])
    out = tmp_path / "d.sig"
    assert main(["build", "--input", str(src), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["query", str(out), "spath", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_query_out_of_range_is_exit_3(fig1_file, fig2_file, capsys):
    for path, n in ((fig1_file, 9), (fig2_file, 7)):
        assert main(["query", str(path), "degree", str(n + 1)]) == 3
        assert "error" in capsys.readouterr().err
        assert main(["query", str(path), "spath", "0", "4"]) == 3
        capsys.readouterr()


def test_query_corrupt_file_is_exit_2(tmp_path, fig1_file, fig2_file, capsys):
    for path in (fig1_file, fig2_file):
        bad = tmp_path / "bad.sig"
        bad.write_bytes(b"QQQQ" + path.read_bytes()[4:])
        assert main(["query", str(bad), "degree", "1"]) == 2
        truncated = tmp_path / "short.sig"
        truncated.write_bytes(path.read_bytes()[:-2])
        assert main(["query", str(truncated), "degree", "1"]) == 2
        capsys.readouterr()


def test_query_wrong_arity_is_exit_2(fig1_file, capsys):
    assert main(["query", str(fig1_file), "degree", "1", "2"]) == 2
    assert main(["query", str(fig1_file), "adjacent", "1"]) == 2
    capsys.readouterr()


# -- algo ----------------------------------------------------------------


def test_algo_outputs(fig1_file, capsys):
    assert main(["algo", str(fig1_file), "mis"]) == 0
    assert capsys.readouterr().out.strip() == "2 5 9"
    assert main(["algo", str(fig1_file), "mvc"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 4 6 7 8"
    assert main(["algo", str(fig1_file), "clique"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["size 4", "1 2 3 4"]
    assert main(["algo", str(fig1_file), "coloring"]) == 0
    first, second = capsys.readouterr().out.strip().splitlines()
    assert first == "colors 4"
    g = SuccinctIntervalGraph.from_realization(IntervalRealization(FIG1_INTERVALS))
    assert second == " ".join(map(str, algorithms.greedy_coloring(g).colors))
    assert main(["algo", str(fig1_file), "dfs"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 4 5 6 7 8 9"


def test_algo_json(fig1_file, capsys):
    assert main(["algo", str(fig1_file), "clique", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info == {"size": 4, "cut": 4, "members": [1, 2, 3, 4]}


def test_algo_works_on_depth_annotated_structures(tmp_path, capsys):
    src = tmp_path / "f.txt"
    write_interval_text(src, FIG1_INTERVALS)
    for kind in ("kproper", "kimproper"):
        out = tmp_path / f"{kind}.sig"
        assert (
            main(["build", "--type", kind, "--input", str(src), "--output", str(out)])
            == 0
        )
        capsys.readouterr()
        assert main(["algo", str(out), "mis"]) == 0
        assert capsys.readouterr().out.strip() == "2 5 9"


def test_algo_rejects_circular(fig2_file, capsys):
    assert main(["algo", str(fig2_file), "mis"]) == 2
    assert "linear interval" in capsys.readouterr().err


# -- verify --------------------------------------------------------------


def test_verify_input_pass(tmp_path, capsys):
    src = tmp_path / "f.txt"
    write_interval_text(src, FIG1_INTERVALS)
    assert main(["verify", "--input", str(src)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_random_all_types(capsys):
    for kind in ("interval", "proper", "kproper", "kimproper", "circular"):
        code = main(
            ["verify", "--type", kind, "--random", "14", "--trials", "2", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0, (kind, out)
        assert out.startswith("PASS")


def test_verify_json(capsys):
    assert main(["verify", "--random", "8", "--trials", "1", "--seed", "3", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["ok"] is True


def test_verify_needs_exactly_one_source(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--input", "x", "--random", "5"]) == 2
    capsys.readouterr()


def test_verify_rejects_zero_trials(capsys):
    """A run that would check no instance is an input error, not a PASS."""
    assert main(["verify", "--random", "5", "--trials", "0"]) == 2
    assert main(["verify", "--random", "5", "--trials", "-1"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_verify_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    src = tmp_path / "f.txt"
    write_interval_text(src, FIG1_INTERVALS)
    import sigraph.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify", lambda g, real: ["degree(3): got 9, expected 4"])
    assert main(["verify", "--input", str(src)]) == 4
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "degree(3)" in out


@pytest.mark.parametrize("kind", ["interval", "proper", "kproper", "kimproper"])
def test_verify_reports_a_shared_query_bug_on_every_linear_type(kind, capsys, monkeypatch):
    """Each --type checks its own structure against the oracle, so a bug
    in the query code all linear structures share fails every type."""
    degree = IntervalQueries.degree
    monkeypatch.setattr(IntervalQueries, "degree", lambda self, v: degree(self, v) + (v == 2))
    argv = ["verify", "--type", kind, "--random", "12", "--trials", "2", "--seed", "3"]
    assert main(argv) == 4
    assert "degree(2)" in capsys.readouterr().out


def test_verify_proper_type_rejects_improper_input(tmp_path, capsys):
    src = tmp_path / "nested.txt"
    write_interval_text(src, [(1, 4), (2, 3)])
    assert main(["verify", "--type", "proper", "--input", str(src)]) == 2
    capsys.readouterr()


# -- bench ---------------------------------------------------------------


BENCH_KEYS = {
    "kind", "n", "total_bits", "bits_per_vertex", "build_seconds", "save_seconds",
    "load_seconds", "heap_bits", "heap_bits_per_vertex", "components", "baselines",
    "queries",
}
BENCH_ALGORITHMS = {"mis", "mvc", "max_clique", "greedy_coloring"}


def test_bench_json_fields(capsys):
    for kind in sorted(KINDS):
        assert main(["bench", "--type", kind, "--n", "60", "--queries", "5",
                     "--seed", "5", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        if kind == "circular":
            assert set(rep) == BENCH_KEYS, kind
        else:
            # linear kinds also time the algorithms, one run each
            assert set(rep) == BENCH_KEYS | {"algorithms"}, kind
            assert set(rep["algorithms"]) == BENCH_ALGORITHMS, kind
            assert all(secs >= 0 for secs in rep["algorithms"].values()), kind
        assert rep["kind"] == kind
    assert main(["bench", "--n", "300", "--queries", "20", "--seed", "5", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "interval"
    assert rep["n"] == 300
    assert rep["total_bits"] == sum(rep["components"].values())
    assert rep["total_bits"] > 0
    assert rep["baselines"]["edges"] > 0
    assert set(rep["queries"]) == {"degree", "adjacent", "neighborhood", "spath"}
    assert rep["build_seconds"] >= 0
    # the neighborhood and spath timings also read per reported neighbor
    # and per path hop, the units the benchmark reports them in
    queries = rep["queries"]
    assert set(queries["degree"]) == set(queries["adjacent"]) == {"count", "avg_us"}
    assert set(queries["neighborhood"]) == {"count", "avg_us", "us_per_nbr"}
    assert set(queries["spath"]) == {"count", "avg_us", "us_per_hop"}
    assert 0 < queries["neighborhood"]["us_per_nbr"] <= queries["neighborhood"]["avg_us"]
    assert 0 < queries["spath"]["us_per_hop"]


def test_bench_text_report(capsys):
    assert main(["bench", "--type", "proper", "--n", "200", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "proper structure, n=200" in out
    assert "total bits" in out
    assert "baselines" in out
    lines = out.splitlines()
    assert any(x.startswith("neighborhood:") and "us per nbr" in x for x in lines)
    assert any(x.startswith("spath:") and "us per hop" in x for x in lines)
    algo = [x for x in lines if x.startswith("algorithms: ")]
    assert len(algo) == 1
    assert all(f"{name} " in algo[0] for name in BENCH_ALGORITHMS)


def test_bench_circular(capsys):
    assert main(["bench", "--type", "circular", "--n", "150", "--queries", "10",
                 "--seed", "2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "circular"
    assert rep["total_bits"] == sum(rep["components"].values())
    assert "algorithms" not in rep


def test_bench_circular_reports_degree_table(capsys):
    """The circular structure always holds its degree table, so bench
    reports it as a component: n entries of width_for(n - 1) bits."""
    assert main(["bench", "--type", "circular", "--n", "150", "--queries", "10",
                 "--seed", "3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["components"]["degree_table"] == 150 * (149).bit_length()
    assert "grid_normal" not in rep["components"]


@pytest.mark.parametrize("kind,mode", [("kproper", "proper"), ("kimproper", "improper")])
def test_bench_kproper_reports_depths(kind, mode, capsys):
    """The depth-annotated structure holds one depth per vertex, not T,
    so bench reports n entries of width_for(k) bits and no T component."""
    n = 300
    assert main(["bench", "--type", kind, "--n", str(n), "--queries", "10",
                 "--seed", "4", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    k = max(containment_depths(random_realization(n, random.Random(4)), mode))
    assert rep["components"]["depths"] == n * width_for(k)
    assert not any(name.startswith("T_") for name in rep["components"])
    assert rep["total_bits"] == sum(rep["components"].values())


def _walk_bytes(root) -> int:
    """Bytes under root by a referent walk with sys.getsizeof, each object
    once, stopping at classes, modules and functions."""
    shared = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bench_reports_heap_bits(kind, capsys):
    """bench reports what the structure it built holds on the heap, as
    bits and bits per vertex, next to the accounted bits."""
    n, seed = 400, 6
    assert main(["bench", "--type", kind, "--n", str(n), "--queries", "5",
                 "--seed", str(seed), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    build, draw = KINDS[kind]
    g = build(draw(n, random.Random(seed)))
    assert rep["heap_bits"] == 8 * _walk_bytes(g)
    assert rep["heap_bits_per_vertex"] == round(rep["heap_bits"] / n, 3)
    assert main(["bench", "--type", kind, "--n", str(n), "--queries", "5",
                 "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert f"heap bits: {rep['heap_bits']} ({rep['heap_bits_per_vertex']} per vertex)" in out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bench_reports_save_and_load_seconds(kind, capsys):
    """bench times a save and a validated load of the structure's own
    blob next to its build, in both the JSON and the text report."""
    args = ["bench", "--type", kind, "--n", "300", "--queries", "5", "--seed", "7"]
    assert main(args + ["--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    for phase in ("build", "save", "load"):
        assert rep[f"{phase}_seconds"] >= 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("build time: ") and ", save " in line
               and ", validated load " in line for line in out.splitlines())


def test_bench_fails_when_the_blob_does_not_round_trip(monkeypatch, capsys):
    class Drifted:
        def to_bytes(self):
            return b"other"

    monkeypatch.setattr(SuccinctIntervalGraph, "from_bytes",
                        classmethod(lambda cls, data: Drifted()))
    assert main(["bench", "--n", "50", "--queries", "0"]) == 1
    assert "re-encode" in capsys.readouterr().err


def test_bench_rejects_negative_queries(capsys):
    assert main(["bench", "--n", "50", "--queries", "-2"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["bench", "--n", "50", "--queries", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["queries"] == {}


# -- parser-level behavior ----------------------------------------------


def test_unknown_command_is_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_env_seed_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIG_SEED", "99")
    assert main(["bench", "--n", "50", "--queries", "5", "--json"]) == 0
    rep_a = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("SIG_SEED", "100")
    assert main(["bench", "--n", "50", "--queries", "5", "--json"]) == 0
    rep_b = json.loads(capsys.readouterr().out)
    assert rep_a["baselines"]["edges"] != rep_b["baselines"]["edges"]


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    """A SIG_SEED that is no integer is an input error naming it, not an
    internal error."""
    monkeypatch.setenv("SIG_SEED", "abc")
    assert main(["verify", "--random", "5"]) == 2
    err = capsys.readouterr().err
    assert "SIG_SEED" in err and "internal error" not in err
    assert main(["bench", "--n", "50", "--queries", "5"]) == 2
    assert "SIG_SEED" in capsys.readouterr().err
    # an explicit --seed does not read the variable
    assert main(["verify", "--random", "5", "--seed", "3"]) == 0
    capsys.readouterr()
