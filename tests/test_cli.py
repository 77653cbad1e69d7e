"""Command line surface: outputs, exit codes, certificate round trips."""

import gc
import os
import random
import resource
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from ugl.cli import main
from ugl.distributions import CoveringFamily, Trace, parse_trace
from ugl.graphs import Graph, format_graph, parse_graph
from ugl.intervals import parse_interval_model
from ugl.obstructions import parse_witness
from ugl.refinement import format_trace, is_refinement
from ugl.ultragraph import build, parse_internal_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


C4_TEXT = "graph 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
PATH4_TEXT = "graph 4\ne 0 1\ne 1 2\ne 2 3\n"

QUORUM_CEX_TRACE = """indices 3
formulas 3
family quorum 2
g1 0 : 0 1 2
g1 1 : 0 1 2
g1 2 : 0 1 2
g2 0 : 0-2 1-2
g2 1 : 0-1 0-2
g2 2 : 0-1 0-2 1-2
"""

GOOD_TRACE = """indices 2
formulas 2
family principal 0 1
g1 0 : 0 1
g1 1 : 0 1
g2 0 : 0-1
g2 1 : 0-1
"""


# ---------------------------------------------------------------------------
# recognize
# ---------------------------------------------------------------------------

def test_recognize_interval_cycle_witness(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    code, out, _ = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 1
    assert out == "w irreducible-cycle 0 1 2 3\n"
    w = parse_witness(out)
    assert w.checks(parse_graph(C4_TEXT))


def test_recognize_member(tmp_path, capsys):
    gf = write(tmp_path, "P4.graph", PATH4_TEXT)
    code, out, _ = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 0 and out == "member\n"
    code, out, _ = run(capsys, "recognize", "--shape", "tree", gf)
    assert code == 1
    assert out == "w forbidden-family L4 0 1 2 3\n"


def test_recognize_input_errors(tmp_path, capsys):
    gf = write(tmp_path, "bad.graph", "graph 2\ne 0 5\n")
    code, _, err = run(capsys, "recognize", "--shape", "tree", gf)
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "recognize", "--shape", "tree",
                       str(tmp_path / "missing.graph"))
    assert code == 2
    code, _, err = run(capsys, "recognize", "--shape", "chordal", gf)
    assert code == 2
    code, _, err = run(capsys, "recognize", "--wat", gf)
    assert code == 2


def test_recognize_oversized_header_is_capability(tmp_path, capsys):
    gf = write(tmp_path, "huge.graph", "graph 100000000\n")
    code, out, err = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 3 and out == "" and "capability" in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                                monkeypatch):
    import ugl.cli

    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(ugl.cli._HANDLERS, "recognize", broken)
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    code, out, err = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 4 and out == ""
    assert err.splitlines()[-1] == "internal: RuntimeError: boom"


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def test_realize_emits_verifying_model(tmp_path, capsys):
    gf = write(tmp_path, "P4.graph", PATH4_TEXT)
    code, out, _ = run(capsys, "realize", gf)
    assert code == 0
    model = parse_interval_model(out)
    assert model.checks(parse_graph(PATH4_TEXT))


def test_realize_distinct_endpoints(tmp_path, capsys):
    gf = write(tmp_path, "tri.graph", "graph 3\ne 0 1\ne 0 2\ne 1 2\n")
    code, out, _ = run(capsys, "realize", "--distinct-endpoints", gf)
    assert code == 0
    model = parse_interval_model(out, distinct=True)
    assert model.checks(parse_graph("graph 3\ne 0 1\ne 0 2\ne 1 2\n"))


def test_realize_obstruction(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    code, out, _ = run(capsys, "realize", gf)
    assert code == 1 and out.startswith("w irreducible-cycle")


# Large inputs on which an exponential or recursive recognizer crashes
# or hangs: a long path overflows the recursion limit, and endpoint
# backtracking blows up on the strip and on C4 beside isolated vertices.

def test_long_path_recognize_and_realize(tmp_path, capsys):
    n = 1500
    text = format_graph(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    gf = write(tmp_path, "path.graph", text)
    assert run(capsys, "recognize", "--shape", "interval", gf)[:2] == (0, "member\n")
    code, out, _ = run(capsys, "realize", gf)
    assert code == 0
    assert parse_interval_model(out, distinct=True).checks(parse_graph(text))


def test_strip_recognize_and_realize(tmp_path, capsys):
    n = 60
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    text = format_graph(Graph(n, edges))
    gf = write(tmp_path, "strip.graph", text)
    assert run(capsys, "recognize", "--shape", "interval", gf)[:2] == (0, "member\n")
    code, out, _ = run(capsys, "realize", gf)
    assert code == 0 and parse_interval_model(out).checks(parse_graph(text))


def test_realize_c4_beside_isolated_vertices(tmp_path, capsys):
    gf = write(tmp_path, "c4.graph", format_graph(
        Graph(14, [(0, 1), (1, 2), (2, 3), (0, 3)])))
    code, out, _ = run(capsys, "realize", gf)
    assert (code, out) == (1, "w irreducible-cycle 0 1 2 3\n")


def forest_closure_edges(n):
    """Comparability graph of a random rooted tree on n vertices whose
    parents are among the three previous vertices; 0 is the root."""
    rng = random.Random(1)
    parent = [-1] + [rng.randrange(max(0, v - 3), v) for v in range(1, n)]
    edges = []
    for v in range(n):
        a = parent[v]
        while a != -1:
            edges.append((a, v))
            a = parent[a]
    return edges


def test_dense_forest_closure_is_tree_member(tmp_path, capsys):
    n = 1000
    edges = forest_closure_edges(n)
    assert len(edges) > 200000
    gf = write(tmp_path, "forest.graph", format_graph(Graph(n, edges)))
    assert run(capsys, "recognize", "--shape", "tree", gf)[:2] == (0, "member\n")


def test_dense_chordal_tree_non_member_answers_within_a_second(tmp_path):
    # without the root-last edge the closure stays chordal, so it has no
    # induced C4, and its exhaustive search took seconds
    n = 400
    edges = forest_closure_edges(n)
    edges.remove((0, n - 1))
    gf = write(tmp_path, "closure.graph", format_graph(Graph(n, edges)))
    start = time.perf_counter()
    got = subprocess.run([sys.executable, "-m", "ugl.cli", "recognize",
                          "--shape", "tree", gf], env=package_env(),
                         capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (got.returncode, got.stdout, got.stderr) == (
        1, "w forbidden-family L4 2 0 1 399\n", "")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------

def test_obstructions_tree_blocks(capsys):
    code, out, _ = run(capsys, "obstructions", "--shape", "tree",
                       "--max-n", "5")
    assert code == 0
    blocks = out.strip().split("\n\n")
    graphs = [parse_graph(b) for b in blocks]
    assert len(graphs) == 2
    assert sorted(len(g.edges()) for g in graphs) == [3, 4]


def test_obstructions_deterministic(capsys):
    code1, out1, _ = run(capsys, "obstructions", "--shape", "interval",
                         "--max-n", "5")
    code2, out2, _ = run(capsys, "obstructions", "--shape", "interval",
                         "--max-n", "5")
    assert code1 == code2 == 0 and out1 == out2
    assert len(out1.strip().split("\n\n")) == 2


def test_obstructions_cap(capsys):
    code, _, err = run(capsys, "obstructions", "--shape", "tree",
                       "--max-n", "8")
    assert code == 3 and "capability" in err


def test_obstructions_negative_max_n(capsys):
    code, out, err = run(capsys, "obstructions", "--shape", "tree",
                         "--max-n", "-3")
    assert code == 2 and out == "" and "error:" in err


# ---------------------------------------------------------------------------
# necessary
# ---------------------------------------------------------------------------

def test_necessary_lists_minimal_sets(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    code, out, _ = run(capsys, "necessary", "--shape", "interval", gf)
    assert code == 0
    assert out == ("B 0-2 1-3\n"
                   "flags necessary=1 submin=1 mincard=1 unique=1\n")
    code2, out2, _ = run(capsys, "necessary", "--shape", "interval", gf,
                         "--all-minimal")
    assert code2 == 0 and out2 == out


def test_necessary_member_host_has_none(tmp_path, capsys):
    gf = write(tmp_path, "P4.graph", PATH4_TEXT)
    code, out, _ = run(capsys, "necessary", "--shape", "interval", gf)
    assert code == 1 and out == "none\n"


def test_necessary_verify_good(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    sf = write(tmp_path, "A.set",
               "B 0-2 1-3\nflags necessary=1 submin=1 mincard=0 unique=0\n")
    code, out, _ = run(capsys, "necessary", "--shape", "interval", gf,
                       "--verify", sf)
    assert code == 0
    assert out == "B 0-2 1-3\nflags necessary=1 submin=1 mincard=0 unique=0\n"


def test_necessary_verify_bad_claim(tmp_path, capsys):
    from ugl.catalog import INTERVAL
    from ugl.necessary import counterexample_checks
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    sf = write(tmp_path, "A.set",
               "B 0-2\nflags necessary=1 submin=0 mincard=0 unique=0\n")
    code, out, _ = run(capsys, "necessary", "--shape", "interval", gf,
                       "--verify", sf)
    assert code == 1
    assert out.startswith("flag necessary fail\ncompletion\n")
    body = out.split("completion\n", 1)[1]
    lines = body.splitlines()
    psi = tuple(int(x) for l in lines if l.startswith("psi ")
                for x in l.split()[1:])
    completion = parse_graph("\n".join(l for l in lines
                                       if not l.startswith("psi ")))
    assert counterexample_checks(INTERVAL, parse_graph(C4_TEXT), [(0, 2)],
                                 completion, psi)


def test_necessary_flag_conflict(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    sf = write(tmp_path, "A.set", "B 0-2\nflags necessary=0 submin=0 "
                                  "mincard=0 unique=0\n")
    code, _, err = run(capsys, "necessary", "--shape", "interval", gf,
                       "--verify", sf, "--all-minimal")
    assert code == 2


def test_necessary_verify_nine_vertex_host_is_capability(tmp_path, capsys):
    gf = write(tmp_path, "C4plus5.graph", C4_TEXT.replace("graph 4", "graph 9"))
    sf = write(tmp_path, "A.set",
               "B 0-2 1-3\nflags necessary=1 submin=0 mincard=0 unique=0\n")
    code, out, err = run(capsys, "necessary", "--shape", "interval", gf,
                         "--verify", sf)
    assert code == 3 and out == "" and "capability" in err


CATALOG = [("C4", None), ("L4", None), ("III", 4), ("III", 5), ("III", 6),
           ("III", 7), ("I", None), ("II", None), ("IV", 2), ("IV", 3),
           ("IV", 4), ("V", 1), ("V", 2), ("V", 3)]


@pytest.mark.parametrize("kind,param", CATALOG)
def test_necessary_all_minimal_lists_catalog_set(tmp_path, capsys, kind,
                                                 param):
    from ugl.necessary import family_necessary_set
    shape, host, ns = family_necessary_set(kind, param)
    gf = write(tmp_path, "host.graph", format_graph(host))
    code, out, _ = run(capsys, "necessary", "--shape", shape, gf,
                       "--all-minimal")
    assert code == 0
    assert "B" + "".join(" %d-%d" % e for e in ns.edges) in out.splitlines()


def test_necessary_work_budget_is_capability(tmp_path, capsys):
    n = 20
    text = "graph %d\n" % n + "".join(
        "e %d %d\n" % (i, (i + 1) % n) for i in range(n))
    gf = write(tmp_path, "C20.graph", text)
    code, out, err = run(capsys, "necessary", "--shape", "interval", gf,
                         "--all-minimal")
    assert code == 3 and out == "" and "capability" in err


def test_jobs_flag_is_rejected(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    for argv in (("obstructions", "--shape", "tree", "--max-n", "4"),
                 ("necessary", "--shape", "interval", gf)):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--jobs" in err


# ---------------------------------------------------------------------------
# trace commands
# ---------------------------------------------------------------------------

def test_trace_check_good(tmp_path, capsys):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    code, out, _ = run(capsys, "trace-check", tf)
    assert code == 0
    assert out == ("adequate yes\n"
                   "multiplicative yes\n"
                   "sop2 holds\n"
                   "necessary tree holds\n"
                   "necessary interval holds\n")


def test_trace_check_inadequate(tmp_path, capsys):
    tf = write(tmp_path, "thin.trace",
               "indices 2\nformulas 2\nfamily quorum 2\n"
               "g1 0 : 0 1\ng1 1 : 0\ng2 0 : 0-1\n")
    code, out, _ = run(capsys, "trace-check", tf)
    assert code == 1
    assert "adequate no\n" in out
    assert "inadequate-formula 1\n" in out
    assert "inadequate-pair 0-1\n" in out


def test_trace_check_sop2_failure(tmp_path, capsys):
    tf = write(tmp_path, "chain.trace",
               "indices 1\nformulas 4\nfamily quorum 1\n"
               "g1 0 : 0 1 2 3\ng2 0 : 0-1 1-2 2-3\n")
    code, out, _ = run(capsys, "trace-check", tf)
    assert code == 1
    assert "sop2 fails 0 1 2 3 at 0\n" in out
    assert "necessary tree fails L4 0 1 2 3 at 0\n" in out
    assert "necessary interval holds\n" in out


def complete_trace_text(n):
    return format_trace(Trace(CoveringFamily.quorum(1, 1), n, [range(n)],
                              [list(combinations(range(n), 2))]))


def test_trace_check_twelve_formula_complete_trace(tmp_path, capsys):
    tf = write(tmp_path, "k12.trace", complete_trace_text(12))
    code, out, _ = run(capsys, "trace-check", tf)
    assert code == 0
    assert out.endswith("sop2 holds\n"
                        "necessary tree holds\n"
                        "necessary interval holds\n")


def test_trace_check_thirteen_formulas_is_capability(tmp_path, capsys):
    tf = write(tmp_path, "k13.trace", complete_trace_text(13))
    code, out, err = run(capsys, "trace-check", tf)
    assert code == 3 and out == "" and "capability" in err
    code, out, err = run(capsys, "trace-condition", "--sop2", "--shape",
                         "interval", tf)
    assert code == 3 and out == "" and "capability" in err


def test_trace_condition_tree_answers_above_formula_cap(tmp_path, capsys):
    # only the interval hosts grow with the formula count
    tf = write(tmp_path, "k13.trace", complete_trace_text(13))
    got = run(capsys, "trace-condition", "--sop2", "--shape", "tree", tf)
    assert got == (0, "sop2 holds\nnecessary tree holds\n", "")


@pytest.mark.parametrize("text,argv,code,out,err", [
    (lambda: "indices 1\nformulas 12000\nfamily quorum 1\n",
     ["trace-condition", "--sop2"], 0, "sop2 holds\n", ""),
    (lambda: complete_trace_text(400),
     ["trace-condition", "--sop2"], 0, "sop2 holds\n", ""),
    (lambda: "indices 1\nformulas 15000\nfamily quorum 1\n",
     ["trace-check"], 3, "",
     "capability: trace conditions bounded to 12 formulas\n"),
    (lambda: "indices 8000\nformulas 2\nfamily quorum 1\n",
     ["trace-refine"], 1, "none\n", ""),
    (lambda: "indices 100\nformulas 15000\nfamily quorum 1\n",
     ["trace-refine"], 1, "none\n", ""),
], ids=["sop2-empty-12000", "sop2-complete-400", "check-empty-15000",
        "refine-empty-8000-indices", "refine-empty-100x15000"])
def test_large_trace_conditions_answer_within_two_seconds(
        tmp_path, text, argv, code, out, err):
    # the chain condition places a 4-vertex host, a search that stays
    # fast at the trace cap; trace-check decides it before the interval
    # bound refuses the request.  The refinement search keeps a support
    # mask per formula and tests each distinct one once per node, so
    # neither many indices nor many formulas make its nodes slow.
    tf = write(tmp_path, "large.trace", text())
    start = time.perf_counter()
    got = subprocess.run([sys.executable, "-m", "ugl.cli"] + argv + [tf],
                         env=package_env(), capture_output=True, text=True,
                         timeout=60)
    elapsed = time.perf_counter() - start
    assert (got.returncode, got.stdout, got.stderr) == (code, out, err)
    assert elapsed < 2.0


@pytest.mark.parametrize("command,header", [
    ("trace-check", "indices 3000000\nformulas 2"),
    ("trace-refine", "indices 3000000\nformulas 2"),
    ("trace-check", "indices 1\nformulas 200000"),
])
def test_trace_header_above_cap_is_capability(tmp_path, command, header):
    # Each of these ran for more than 30 s before the header caps.
    tf = write(tmp_path, "big.trace", header + "\nfamily quorum 1\n")
    got = subprocess.run([sys.executable, "-m", "ugl.cli", command, tf],
                         env=package_env(), capture_output=True, text=True,
                         timeout=15)
    assert got.returncode == 3 and got.stdout == ""
    assert got.stderr.startswith("capability: traces bounded to")


def test_trace_check_structure_error(tmp_path, capsys):
    tf = write(tmp_path, "bad.trace",
               "indices 1\nformulas 2\nfamily quorum 1\ng2 0 : 0-1\n")
    code, _, err = run(capsys, "trace-check", tf)
    assert code == 2 and "error" in err


def test_trace_refine_counterexample(tmp_path, capsys):
    tf = write(tmp_path, "qcex.trace", QUORUM_CEX_TRACE)
    code, out, _ = run(capsys, "trace-refine", tf)
    assert code == 1 and out == "none\n"


def test_trace_refine_answers_on_a_thousand_indices(tmp_path):
    # deeper than the default recursion limit
    tf = write(tmp_path, "deep.trace",
               "indices 1000\nformulas 2\nfamily quorum 1\n")
    got = subprocess.run([sys.executable, "-m", "ugl.cli", "trace-refine", tf],
                         env=package_env(), capture_output=True, text=True,
                         timeout=15)
    assert (got.returncode, got.stdout, got.stderr) == (1, "none\n", "")


def test_trace_refine_lists_only_pairs_of_some_index_graph(tmp_path):
    # C(10000, 2) pairs, none in any g2: listing them all ran out of memory
    tf = write(tmp_path, "wide.trace",
               "indices 1\nformulas 10000\nfamily quorum 1\n")
    got = subprocess.run([sys.executable, "-m", "ugl.cli", "trace-refine", tf],
                         env=package_env(), capture_output=True, text=True,
                         timeout=15, preexec_fn=limit_address_space)
    assert (got.returncode, got.stdout, got.stderr) == (1, "none\n", "")


def test_trace_refine_emits_refinement(tmp_path, capsys):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    code, out, _ = run(capsys, "trace-refine", tf)
    assert code == 0
    r = parse_trace(out)
    t = parse_trace(GOOD_TRACE)
    assert is_refinement(r, t)


def test_trace_condition_flags(tmp_path, capsys):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    code, _, err = run(capsys, "trace-condition", tf)
    assert code == 2
    code, out, _ = run(capsys, "trace-condition", "--sop2", tf)
    assert code == 0 and out == "sop2 holds\n"
    code, out, _ = run(capsys, "trace-condition", "--shape", "interval", tf)
    assert code == 0 and out == "necessary interval holds\n"
    code, out, _ = run(capsys, "trace-condition", "--sop2", "--shape",
                       "tree", tf)
    assert code == 0 and out == "sop2 holds\nnecessary tree holds\n"


def test_trace_condition_failure(tmp_path, capsys):
    tf = write(tmp_path, "chain.trace",
               "indices 1\nformulas 4\nfamily quorum 1\n"
               "g1 0 : 0 1 2 3\ng2 0 : 0-1 1-2 2-3\n")
    code, out, _ = run(capsys, "trace-condition", "--sop2", tf)
    assert code == 1 and out == "sop2 fails 0 1 2 3 at 0\n"


# ---------------------------------------------------------------------------
# ultragraph
# ---------------------------------------------------------------------------

def test_ultragraph_report(tmp_path, capsys):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    code, out, _ = run(capsys, "ultragraph", tf)
    assert code == 0
    assert out == "core 0 1\nvertices 4\nedges 2\neta complete\n"


def test_ultragraph_extend_eta(tmp_path, capsys):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    code, out, _ = run(capsys, "ultragraph", "--extend-eta", tf)
    assert code == 0
    tail = out.split("eta complete\n", 1)[1]
    s = parse_internal_set(tail)
    t = parse_trace(GOOD_TRACE)
    rp = build(t)
    assert s.is_clique_in(rp)
    for b in range(t.n_formulas):
        assert s.contains((b, b))


def test_ultragraph_incomplete_eta(tmp_path, capsys):
    tf = write(tmp_path, "gap.trace",
               "indices 2\nformulas 2\nfamily principal 0 1\n"
               "g1 0 : 0 1\ng1 1 : 0 1\ng2 0 : 0-1\n")
    code, out, _ = run(capsys, "ultragraph", tf)
    assert code == 1
    assert out.endswith("eta incomplete 0 1 at 1\n")
    code, out, _ = run(capsys, "ultragraph", "--extend-eta", tf)
    assert code == 1 and out.endswith("none\n")


def test_ultragraph_missing_formula_is_input_error(tmp_path, capsys):
    tf = write(tmp_path, "gap.trace",
               "indices 2\nformulas 2\nfamily principal 0 1\n"
               "g1 0 : 0 1\ng1 1 : 0\n")
    code, out, err = run(capsys, "ultragraph", tf)
    assert code == 2 and out == ""


def test_ultragraph_quorum_rejected(tmp_path, capsys):
    tf = write(tmp_path, "qcex.trace", QUORUM_CEX_TRACE)
    code, _, err = run(capsys, "ultragraph", tf)
    assert code == 3 and "capability" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# usage: argv is read from one table of the subcommands
# ---------------------------------------------------------------------------

# Malformed argv and the token its error must name.  G, S and T stand for
# a graph, a necessary-set and a trace file.
MALFORMED = [
    ([], "command"),
    (["frobnicate", "G"], "frobnicate"),
    (["--shape", "tree", "recognize", "G"], "--shape"),
    (["recognize", "G"], "--shape"),
    (["recognize", "--shape", "forest", "G"], "forest"),
    (["recognize", "--shape", "tree", "G", "--jobs", "2"], "--jobs"),
    (["recognize", "--shape", "tree", "G", "G2"], "G2"),
    (["recognize", "--shape", "tree"], "graphfile"),
    (["recognize", "--shape"], "--shape"),
    (["recognize", "--sha", "tree", "G"], "--sha"),
    (["realize", "G", "--jobs", "2"], "--jobs"),
    (["realize", "G", "G2"], "G2"),
    (["realize", "--distinct-endpoints=yes", "G"], "--distinct-endpoints"),
    (["realize"], "graphfile"),
    (["obstructions", "--max-n", "4"], "--shape"),
    (["obstructions", "--shape", "forest", "--max-n", "4"], "forest"),
    (["obstructions", "--shape", "tree", "--max-n", "4", "--jobs", "2"],
     "--jobs"),
    (["obstructions", "--shape", "tree", "--max-n", "4", "G"], "G"),
    (["obstructions", "--shape", "tree"], "--max-n"),
    (["obstructions", "--shape", "tree", "--max-n", "x"], "'x'"),
    (["obstructions", "--shape", "tree", "--max-n", "-3"], "'-3'"),
    (["obstructions", "--shape", "tree", "--max-n=-3"], "'-3'"),
    (["obstructions", "--shape", "tree", "--max-n", "\u00b2"], "'\u00b2'"),
    (["necessary", "G"], "--shape"),
    (["necessary", "--shape", "forest", "G"], "forest"),
    (["necessary", "--shape", "tree", "G", "--jobs", "2"], "--jobs"),
    (["necessary", "--shape", "tree", "G", "G2"], "G2"),
    (["necessary", "--shape", "tree", "G", "--verify", "S", "--all-minimal"],
     "--all-minimal"),
    (["necessary", "--all-minimal", "--shape", "tree", "--verify", "S", "G"],
     "--all-minimal"),
    (["necessary", "--shape", "tree", "G", "--verify"], "--verify"),
    (["trace-check", "T", "--jobs", "2"], "--jobs"),
    (["trace-check", "T", "T2"], "T2"),
    (["trace-check"], "tracefile"),
    (["trace-refine", "T", "--jobs", "2"], "--jobs"),
    (["trace-refine", "T", "T2"], "T2"),
    (["trace-condition", "--shape", "forest", "T"], "forest"),
    (["trace-condition", "--sop2", "T", "--jobs", "2"], "--jobs"),
    (["trace-condition", "--sop2", "T", "T2"], "T2"),
    (["trace-condition", "T"], "--sop2"),
    (["ultragraph", "T", "--jobs", "2"], "--jobs"),
    (["ultragraph", "T", "T2"], "T2"),
    (["ultragraph", "--extend-eta=1", "T"], "--extend-eta"),
]


def files(tmp_path):
    """The stand-ins of MALFORMED mapped to real input files."""
    return {"G": write(tmp_path, "C4.graph", C4_TEXT),
            "S": write(tmp_path, "A.set", "B 0-2 1-3\nflags necessary=1 "
                                          "submin=0 mincard=0 unique=0\n"),
            "T": write(tmp_path, "good.trace", GOOD_TRACE)}


@pytest.mark.parametrize("argv,token", MALFORMED,
                         ids=[" ".join(a) or "empty" for a, _ in MALFORMED])
def test_malformed_argv_is_a_usage_error(tmp_path, capsys, argv, token):
    real = files(tmp_path)
    code, out, err = run(capsys, *[real.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and real.get(token, token) in err, err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["recognize", "-h"],
                                  ["necessary", "--shape", "tree", "--help"],
                                  ["obstructions", "--max-n", "4", "-h",
                                   "--jobs"]])
def test_help_prints_usage_from_the_command_table(capsys, argv):
    from ugl.cli import COMMANDS
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage:\n")
    named = [c for c in COMMANDS if "  ugl %s " % c in out]
    shown = argv[0] if argv[0] in COMMANDS else None
    assert named == ([shown] if shown else list(COMMANDS))
    if shown == "necessary":
        assert ("ugl necessary --shape {tree,interval} [--verify SETFILE] "
                "[--all-minimal] graphfile") in out


def test_help_exits_zero_from_a_process():
    got = subprocess.run([sys.executable, "-m", "ugl.cli", "recognize",
                          "--help"], env=package_env(), capture_output=True,
                         text=True, timeout=60)
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == ("usage:\n  ugl recognize --shape {tree,interval} "
                          "graphfile\n      shape membership with "
                          "certificate\n")


@pytest.mark.parametrize("argv", [
    ["recognize", "--shape", "interval", "G"],
    ["recognize", "--shape", "tree", "G"],
    ["obstructions", "--shape", "tree", "--max-n", "4"],
    ["necessary", "--shape", "interval", "G", "--verify", "S"],
    ["trace-condition", "--shape", "tree", "T"],
])
def test_equals_form_answers_like_the_spaced_form(tmp_path, capsys, argv):
    real = files(tmp_path)
    argv = [real.get(a, a) for a in argv]
    joined = []
    for a in argv:
        if joined and joined[-1] in ("--shape", "--max-n", "--verify"):
            joined[-1] += "=" + a
        else:
            joined.append(a)
    assert len(joined) < len(argv)
    assert run(capsys, *joined) == run(capsys, *argv)


def test_options_and_positional_come_in_any_order(tmp_path, capsys):
    from itertools import permutations
    real = files(tmp_path)
    units = [["--shape", "interval"], [real["G"]], ["--verify", real["S"]]]
    expected = run(capsys, "necessary", *sum(units, []))
    assert expected[0] == 0 and expected[1]
    for order in permutations(units):
        assert run(capsys, "necessary", *sum(order, [])) == expected
    units = [["--sop2"], ["--shape=tree"], [real["T"]]]
    expected = run(capsys, "trace-condition", *sum(units, []))
    for order in permutations(units):
        assert run(capsys, "trace-condition", *sum(order, [])) == expected


# ---------------------------------------------------------------------------
# module loading: each subcommand executes only the modules it uses
# ---------------------------------------------------------------------------

PACKAGE_MODULES = ("catalog", "graphs", "shapes", "necessary",
                   "distributions", "ultragraph", "isomorphism",
                   "obstructions", "intervals", "refinement", "fulldist")
# the modules split off from graphs, shapes and distributions: served by
# their old homes, never registered by the CLI
SPLIT_OFF = PACKAGE_MODULES[6:]

# Prints the exit code and the package modules still unexecuted (lazy
# modules change their class to ModuleType when they execute), after
# checking that the request imported no argparse or gettext.
UNEXECUTED = """
import sys, types
from ugl.cli import main
code = main(%r)
assert not {"argparse", "gettext"} & set(sys.modules), "argparse imported"
print(code, *[m for m in %r
              if type(sys.modules.get("ugl." + m)) is not types.ModuleType])
"""


def package_env():
    """The environment with this package's source first on PYTHONPATH."""
    import ugl.cli
    src = os.path.dirname(os.path.dirname(os.path.abspath(ugl.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def limit_address_space():
    """Cap a child's address space at 2 GB, so that a request that runs
    out of memory fails alone."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def fresh_python(script):
    """Last stdout line of a new interpreter that runs the script."""
    got = subprocess.run([sys.executable, "-c", script], env=package_env(),
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    return got.stdout.splitlines()[-1]


def unexecuted_after(*argv):
    return fresh_python(UNEXECUTED % (list(argv), PACKAGE_MODULES))


def test_graph_commands_leave_trace_modules_unexecuted(tmp_path):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    left = ("necessary distributions ultragraph isomorphism obstructions "
            "intervals refinement fulldist")
    for shape in ("tree", "interval"):
        assert (unexecuted_after("recognize", "--shape", shape, gf)
                == "1 " + left)
    assert unexecuted_after("realize", gf) == "1 " + left.replace(
        " intervals", "")
    assert unexecuted_after("obstructions", "--shape", "tree",
                            "--max-n", "4") == (
        "0 necessary distributions ultragraph intervals refinement fulldist")


def test_necessary_leaves_trace_modules_unexecuted(tmp_path):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    got = unexecuted_after("necessary", "--shape", "tree", gf)
    assert got == ("0 distributions ultragraph isomorphism obstructions "
                   "intervals refinement fulldist")


def test_trace_refine_leaves_necessary_and_ultragraph_unexecuted(tmp_path):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    got = unexecuted_after("trace-refine", tf)
    assert got == ("0 catalog shapes necessary ultragraph isomorphism "
                   "obstructions intervals fulldist")


# one index carrying the path 0-1-2-3: the chain condition and both
# shapes' catalog inclusions are checked, and fail
PATH_TRACE = """indices 1
formulas 4
family quorum 1
g1 0 : 0 1 2 3
g2 0 : 0-1 1-2 2-3
"""


def test_trace_conditions_leave_recognizers_and_necessary_unexecuted(
        tmp_path):
    tf = write(tmp_path, "path.trace", PATH_TRACE)
    left = ("shapes necessary ultragraph isomorphism obstructions intervals "
            "refinement fulldist")
    assert unexecuted_after("trace-check", tf) == "1 " + left
    assert unexecuted_after("trace-condition", "--sop2", "--shape", "tree",
                            tf) == "1 " + left


def test_ultragraph_leaves_graph_code_unexecuted(tmp_path):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    got = unexecuted_after("ultragraph", "--extend-eta", tf)
    assert got == ("0 catalog graphs shapes necessary isomorphism "
                   "obstructions intervals refinement fulldist")


def test_library_property_check_loads_distributions_only():
    got = fresh_python(
        "import sys\n"
        "import ugl.distributions as dist\n"
        "t = dist.parse_trace(%r)\n"
        "dist.check_properties(dist.extension_distribution(t))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('ugl.')))"
        % GOOD_TRACE)
    assert got == "ugl.distributions ugl.errors ugl.fulldist"


def test_complete_twelve_formula_property_check_is_fast():
    # 12 formulas, 8 indices, every index graph complete: 4,096 formula
    # sets, each present at every index
    got = fresh_python(
        "from itertools import combinations\n"
        "from time import perf_counter\n"
        "import ugl.distributions as dist\n"
        "pairs = list(combinations(range(12), 2))\n"
        "t = dist.Trace(dist.CoveringFamily.quorum(8, 1), 12,\n"
        "               [range(12)] * 8, [pairs] * 8)\n"
        "start = perf_counter()\n"
        "rep = dist.check_properties(dist.extension_distribution(t))\n"
        "print(perf_counter() - start, rep)")
    elapsed, rep = got.split(" ", 1)
    assert rep == ("PropertyReport(monotone=True, graph_like=True, "
                   "multiplicative=True, pairwise_splitting=True, "
                   "refines_los=None)")
    assert float(elapsed) < 0.3


def test_moved_names_stay_importable_where_they_were():
    import ugl.catalog
    import ugl.distributions
    import ugl.necessary
    import ugl.shapes
    for name in ("TREE", "INTERVAL", "check_shape", "family_graph",
                 "family_str", "parse_family", "shape_families"):
        assert getattr(ugl.shapes, name) is getattr(ugl.catalog, name)
    assert ugl.necessary.check_shape is ugl.catalog.check_shape
    with pytest.raises(AttributeError):
        ugl.distributions.recognize
    for module in (ugl.graphs, ugl.shapes):
        with pytest.raises(AttributeError):
            module.recognize_everything


# The names (dunders aside) these modules had before their cold halves
# moved out that each still serves: its own, and the sixteen that the
# bench reads through it.
FORMER_NAMES = {
    "graphs": """CapabilityError EDGES_ONLY Embedding GRAPH_VERTEX_CAP Graph
        INDUCED InputError automorphisms canonical_form canonical_key
        combinations enumerate_graphs enumerate_maximal_cliques
        find_embedding format_graph iter_embeddings parse_graph""",
    "shapes": """ASTEROIDAL_TRIPLE FORBIDDEN_FAMILY INDUCED INTERVAL
        IRREDUCIBLE_CYCLE InputError IntervalModel ObstructionWitness TREE
        WITNESS_KINDS _avoid_components _bits _chordal_cliques _clique_spans
        _interval_certificate _nested_neighborhoods _reaches check_shape
        combinations family_graph family_str find_asteroidal_triple
        find_chordless_cycle find_embedding format_interval_model
        format_witness minimal_obstructions parse_family
        parse_interval_model parse_witness realize_intervals recognize
        shape_families""",
    "distributions": """CapabilityError ConsistencyError CoveringFamily
        EXPLICIT FORMULA_CAP InputError PRINCIPAL QUORUM TRACE_FORMULA_CAP
        TRACE_INDEX_CAP Trace _build_family _collect_rows _index_graphs
        _parse_int adequacy_report check_necessary_conditions
        check_properties check_sop2_condition combinations
        extension_distribution find_multiplicative_refinement format_trace
        graph_sequence is_multiplicative_trace is_pair_adequate
        is_refinement pair_support parse_trace singleton_support""",
    "necessary": """CapabilityError FLAG_NAMES FORBIDDEN_FAMILY
        IRREDUCIBLE_CYCLE InputError NecessarySet SEARCH_VERTEX_CAP
        WORK_BUDGET _TREE_PATTERN_NON_EDGES _branch_bits _charge
        _check_pairs _complete_to_member _minimal_completions _minimal_hits
        _sorted_pairs catalog_necessary_set check_shape
        compute_flags counterexample_checks edges_mask
        family_necessary_set forced_edges format_necessary_set
        graph_from_mask is_necessary minimal_necessary_sets
        necessary_by_enumeration necessity_constraints
        necessity_counterexample pair_index parse_necessary_set recognize
        verify_claims""",
    "ultragraph": """CapabilityError ConsistencyError InputError InternalSet
        LiftedMap MATERIALIZE_CAP PRINCIPAL ReducedProduct Trace
        _grow_clique build clique_transversal_trace combinations eta
        eta_clique_witness eta_extension extend_to_internal_clique
        format_internal_set format_product_vertex lift_map
        parse_internal_set product""",
}


def bench_traced_names():
    """The ``TRACED`` table of the benchmark's request child."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


def test_former_names_resolve_from_their_old_homes():
    import importlib
    # the pair-mask helpers of graphs live in necessary, their one user
    split_off = {m: importlib.import_module("ugl." + m)
                 for m in SPLIT_OFF + ("necessary",)}
    moved = set()
    for home, names in FORMER_NAMES.items():
        module = importlib.import_module("ugl." + home)
        for name in names.split():
            value = getattr(module, name)
            # a name its old home no longer binds is served from the
            # split-off module that does, as that very object
            for new_home in split_off.values():
                if name not in vars(module) and name in vars(new_home):
                    assert value is vars(new_home)[name], (home, name)
                    moved.add((home, name))
    assert len(moved) == 16
    for home, names in bench_traced_names().items():
        for name in names:
            assert callable(getattr(importlib.import_module("ugl." + home),
                                    name)), (home, name)


def test_import_registers_every_module_unexecuted():
    got = fresh_python(
        "import sys, types\n"
        "import ugl.cli\n"
        "print(*[m for m in ('cli',) + %r if 'ugl.' + m in sys.modules],\n"
        "      sum(type(sys.modules['ugl.' + m]) is types.ModuleType\n"
        "          for m in %r if 'ugl.' + m in sys.modules),\n"
        "      *[m for m in ('argparse', 'gettext') if m in sys.modules])"
        % (PACKAGE_MODULES, PACKAGE_MODULES))
    registered = [m for m in PACKAGE_MODULES if m not in SPLIT_OFF]
    assert got == "cli " + " ".join(registered) + " 0"


def test_cli_uses_a_module_imported_before_it():
    got = fresh_python(
        "import sys\n"
        "import ugl.shapes as first\n"
        "import ugl.cli\n"
        "code = ugl.cli.main(['obstructions', '--shape', 'tree',\n"
        "                     '--max-n', '99'])\n"
        "print(ugl.cli.shapes is first is sys.modules['ugl.shapes'],\n"
        "      code)")
    assert got == "True 3"


# ---------------------------------------------------------------------------
# process entry: run() freezes the collector before exit, main() does not
# ---------------------------------------------------------------------------

def test_main_in_process_leaves_the_collector_unfrozen(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    before = gc.get_freeze_count()
    assert run(capsys, "recognize", "--shape", "tree", gf)[0] == 1
    assert run(capsys, "trace-refine", write(tmp_path, "good.trace",
                                             GOOD_TRACE))[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("request_kind", ["obstructions", "realize"])
def test_process_entry_writes_what_main_writes(tmp_path, capsys,
                                               request_kind):
    # read through a block-buffered pipe, so output still buffered at
    # exit must arrive
    if request_kind == "obstructions":
        argv = ["obstructions", "--shape", "interval", "--max-n", "6"]
    else:
        n = 1500
        argv = ["realize", write(tmp_path, "path.graph", format_graph(
            Graph(n, [(i, i + 1) for i in range(n - 1)])))]
    expected = run(capsys, *argv)
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    got = subprocess.run([sys.executable, "-m", "ugl.cli"] + argv, env=env,
                         capture_output=True, text=True, timeout=120)
    assert expected[0] == 0 and expected[1]
    assert (got.returncode, got.stdout, got.stderr) == expected


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_with_empty_stderr(tmp_path, unbuffered):
    # a reader that has gone away is no internal error, whether the write
    # or only the flush at the end meets the closed pipe
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["obstructions", "--shape", "interval", "--max-n", "6"],
                 ["recognize", "--shape", "tree", gf], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            got = subprocess.run([sys.executable, "-m", "ugl.cli"] + argv,
                                 env=env, stdout=write_end,
                                 stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (got.returncode, got.stderr) == (141, b""), argv


def test_console_script_names_the_process_entry():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text(encoding="utf-8").split(
        "[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.split() == ["ugl", "=", '"ugl.cli:run"']
