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
from ugl.covering import CoveringFamily
from ugl.distributions import Trace, parse_trace
from ugl.graphs import Graph, format_graph, parse_graph
from ugl.intervals import parse_interval_model
from ugl.obstructions import parse_witness
from ugl.refinement import format_trace, is_refinement
from ugl.ultragraph import build, parse_internal_set

from test_source import NODE_CAP


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
# an interval graph (the path 2-3-5-4-1 with 0 on 5) whose maximal
# cliques, in the order the chordality search finds them, hold 5 at the
# first, second and fourth place: the clique order needs reordering
GAP_TEXT = "graph 6\ne 0 5\ne 1 4\ne 2 3\ne 3 5\ne 4 5\n"

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


# Every command that reads a file, with "X" where the undecodable one goes
# and the stand-ins of ``files`` for the valid ones.
READERS = [["recognize", "--shape", "tree", "X"], ["realize", "X"],
           ["necessary", "--shape", "tree", "X"],
           ["necessary", "--shape", "tree", "G", "--verify", "X"],
           ["trace-check", "X"], ["trace-refine", "X"],
           ["trace-condition", "--sop2", "X"], ["ultragraph", "X"]]


@pytest.mark.parametrize("argv", READERS, ids=" ".join)
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\n")
    real = dict(files(tmp_path), X=str(bad))
    code, out, err = run(capsys, *[real.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read %s: " % bad), err
    assert "Traceback" not in err


def test_recognize_oversized_header_is_capability(tmp_path, capsys):
    gf = write(tmp_path, "huge.graph", "graph 100000000\n")
    code, out, err = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 3 and out == "" and "capability" in err


@pytest.mark.parametrize("error", [RuntimeError, RecursionError, MemoryError])
def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                                monkeypatch, error):
    import ugl.cli

    def broken(args, out):
        raise error("boom")

    monkeypatch.setitem(ugl.cli._HANDLERS, "recognize", broken)
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    code, out, err = run(capsys, "recognize", "--shape", "interval", gf)
    assert code == 4 and out == ""
    assert err.splitlines()[-1] == "internal: %s: boom" % error.__name__


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
    model = parse_interval_model(out)
    assert model.checks(parse_graph("graph 3\ne 0 1\ne 0 2\ne 1 2\n"))
    assert sorted(e for ab in model.intervals for e in ab) == list(range(6))


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
    model = parse_interval_model(out)
    assert model.checks(parse_graph(text))
    ends = sorted(e for ab in model.intervals for e in ab)
    assert ends == list(range(2 * n))


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


def test_necessary_verify_redundant_and_smaller_evidence(tmp_path, capsys):
    # on the path 0-1-2-3 the tree claim {0-2, 0-3, 1-3} is necessary,
    # but 0-3 is redundant and the necessary {0-2, 1-3} is smaller
    gf = write(tmp_path, "L4.graph", "graph 4\ne 0 1\ne 1 2\ne 2 3\n")
    sf = write(tmp_path, "B.set", "B 0-2 0-3 1-3\nflags necessary=1 "
                                  "submin=1 mincard=1 unique=1\n")
    code, out, _ = run(capsys, "necessary", "--shape", "tree", gf,
                       "--verify", sf)
    assert code == 1
    assert out == ("flag submin fail\nredundant 0-3\n"
                   "flag mincard fail\nsmaller 0-2 1-3\n"
                   "flag unique fail\nsmaller 0-2 1-3\n")


def test_necessary_flag_conflict(tmp_path, capsys):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    sf = write(tmp_path, "A.set", "B 0-2\nflags necessary=0 submin=0 "
                                  "mincard=0 unique=0\n")
    code, _, err = run(capsys, "necessary", "--shape", "interval", gf,
                       "--verify", sf, "--all-minimal")
    assert code == 2


def test_necessary_verify_nine_vertex_host_answers(tmp_path, capsys):
    # a 4-cycle and 5 isolated vertices: its 36 pairs and 960
    # automorphisms fit the work budget, so the search decides the set
    gf = write(tmp_path, "C4plus5.graph", C4_TEXT.replace("graph 4", "graph 9"))
    text = "B 0-2 1-3\nflags necessary=1 submin=0 mincard=0 unique=0\n"
    sf = write(tmp_path, "A.set", text)
    assert run(capsys, "necessary", "--shape", "interval", gf,
               "--verify", sf) == (0, text, "")


def near_complete_text(n):
    """K_n minus the edge 0-1."""
    return "graph %d\n" % n + "".join(
        "e %d %d\n" % (i, j) for j in range(n) for i in range(j)
        if (i, j) != (0, 1))


@pytest.mark.parametrize("text,verify,code,out", [
    (near_complete_text(400), False, 1, "none\n"),
    (near_complete_text(400), True, 3, ""),
    ("graph 400\n", False, 3, ""),
    ("graph 400\n", True, 3, ""),
], ids=["near-complete-400", "near-complete-400-verify", "edgeless-400",
        "edgeless-400-verify"])
def test_necessary_large_hosts_answer_within_a_second(tmp_path, text, verify,
                                                      code, out):
    # The sweep charges one unit per host non-edge and the search one per
    # host pair, both before they build anything: K_400 minus an edge has
    # one non-edge and 79,800 pairs, the edgeless host 79,800 of each.
    argv = ["necessary", "--shape", "interval", write(tmp_path, "h.graph", text)]
    if verify:
        argv += ["--verify", write(tmp_path, "B.set",
                                   "B 0-1\nflags necessary=1\n")]
    start = time.perf_counter()
    got = subprocess.run([sys.executable, "-m", "ugl.cli"] + argv,
                         env=package_env(), capture_output=True, text=True,
                         timeout=60)
    elapsed = time.perf_counter() - start
    assert (got.returncode, got.stdout) == (code, out)
    assert (got.stderr.startswith("capability:") if code == 3
            else got.stderr == "")
    assert elapsed < 1.0


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


def test_trace_refine_refuses_an_uncoverable_pair_before_searching(tmp_path):
    # K6 less a perfect matching at 16 indices, less 0-2 at the last one,
    # under the family of sets holding index 15: 0-1 lies in no g2 and
    # 0-2 is an edge outside every member, so no refinement exists.  A
    # search over the first 15 indices' 8 maximal cliques each ran for
    # minutes
    lines = ["indices 16", "formulas 6", "family principal 15"]
    for a in range(16):
        lines.append("g1 %d : 0 1 2 3 4 5" % a)
        lines.append("g2 %d : " % a + " ".join(
            "%d-%d" % p for p in combinations(range(6), 2)
            if p not in ((0, 1), (2, 3), (4, 5)) and (a < 15 or p != (0, 2))))
    tf = write(tmp_path, "k6x16.trace", "\n".join(lines) + "\n")
    got = subprocess.run([sys.executable, "-m", "ugl.cli", "trace-refine", tf],
                         env=package_env(), capture_output=True, text=True,
                         timeout=10)
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


def test_ultragraph_extend_eta_on_a_symbolic_product(tmp_path, capsys):
    # K40 at both core indices: 1,600 product vertices, past the 1,000
    # up to which the edges are counted
    k40 = "".join(" %d-%d" % p for p in combinations(range(40), 2))
    vs = " ".join(map(str, range(40)))
    tf = write(tmp_path, "k40.trace",
               "indices 2\nformulas 40\nfamily principal 0 1\n"
               "g1 0 : %s\ng1 1 : %s\ng2 0 :%s\ng2 1 :%s\n"
               % (vs, vs, k40, k40))
    code, out, _ = run(capsys, "ultragraph", "--extend-eta", tf)
    assert code == 0
    assert out == ("core 0 1\nvertices 1600\nedges symbolic\neta complete\n"
                   "K 0 : %s\nK 1 : %s\n" % (vs, vs))


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


def test_ultragraph_prints_a_count_past_4300_digits_as_symbolic(
        tmp_path, capsys):
    # 2^14300 product vertices, 4,305 digits: str() of the count would
    # raise past Python's default limit of 4,300 digits
    n = 14300
    text = ("indices %d\nformulas 2\nfamily principal %s\n" % (
        n, " ".join(map(str, range(n))))
        + "".join("g1 %d : 0 1\n" % a for a in range(n)))
    tf = write(tmp_path, "wide.trace", text)
    for extend in ((), ("--extend-eta",)):
        code, out, err = run(capsys, "ultragraph", *extend, tf)
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[1:4] == ["vertices symbolic", "edges symbolic",
                              "eta incomplete 0 1 at 0"]
        assert lines[4:] == (["none"] if extend else [])
    rp = build(parse_trace(text))
    assert repr(rp) == "ReducedProduct(core=%r, size=symbolic)" % list(
        range(n))


def test_ultragraph_builds_once_and_scans_eta_in_full_at_most_once(
        tmp_path, monkeypatch, capsys):
    import ugl.ultragraph as ug
    calls = []

    def counted(name, fn):
        def wrapper(t):
            got = fn(t)
            # a witness search that returns None scanned the whole image
            calls.append(name + (" -> None" if got is None else ""))
            return got
        return wrapper

    for name in ("build", "eta_clique_witness", "eta_extension"):
        monkeypatch.setattr(ug, name, counted(name, getattr(ug, name)))
    good = write(tmp_path, "good.trace", GOOD_TRACE)
    gap = write(tmp_path, "gap.trace",
                "indices 2\nformulas 2\nfamily principal 0 1\n"
                "g1 0 : 0 1\ng1 1 : 0 1\ng2 0 : 0-1\n")
    for argv, want in [
            ([good], ["build", "eta_clique_witness -> None"]),
            (["--extend-eta", good], ["build", "eta_clique_witness -> None"]),
            ([gap], ["build", "eta_clique_witness"]),
            (["--extend-eta", gap], ["build", "eta_clique_witness"])]:
        calls.clear()
        code, _, _ = run(capsys, "ultragraph", *argv)
        assert code == (0 if argv[-1] == good else 1)
        assert calls == want, argv


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
    (["obstructions", "--shape", "tree", "--max-n", "\u0664"], "\u0664"),
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

PACKAGE_MODULES = ("catalog", "chordal", "graphs", "shapes", "necessary",
                   "distributions", "ultragraph", "tracecli", "isomorphism",
                   "obstructions", "intervals", "refinement", "fulldist",
                   "covering", "lifting", "completions", "embeddings",
                   "consecutive")
# the modules split off from graphs, shapes, chordal and distributions:
# the first five serve the bench's names through their old homes, the
# last two serve nothing there
SPLIT_OFF = ("isomorphism", "obstructions", "intervals", "refinement",
             "fulldist", "embeddings", "consecutive")

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
    # the catalog and the embedding search execute only where a family
    # graph is placed (a tree non-member's witness), the interval kernels
    # only where an interval test or a chordality test runs, and the
    # consecutive-ones placement only where the clique order leaves a
    # gap; no graph command runs tracecli
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    left = ("necessary distributions ultragraph tracecli isomorphism "
            "obstructions intervals refinement fulldist covering lifting "
            "completions")
    assert (unexecuted_after("recognize", "--shape", "tree", gf)
            == "1 " + left + " consecutive")
    assert (unexecuted_after("recognize", "--shape", "interval", gf)
            == "1 catalog " + left + " embeddings consecutive")
    assert unexecuted_after("realize", gf) == "1 catalog " + left.replace(
        " intervals", "") + " embeddings consecutive"
    tree_member = write(tmp_path, "P3.graph", "graph 3\ne 0 1\ne 1 2\n")
    assert (unexecuted_after("recognize", "--shape", "tree", tree_member)
            == "0 catalog chordal " + left + " embeddings consecutive")
    assert unexecuted_after("obstructions", "--shape", "tree",
                            "--max-n", "4") == (
        "0 chordal necessary distributions ultragraph tracecli intervals "
        "refinement fulldist covering lifting completions consecutive")


def test_necessary_leaves_trace_modules_unexecuted(tmp_path):
    gf = write(tmp_path, "C4.graph", C4_TEXT)
    left = ("distributions ultragraph tracecli isomorphism obstructions "
            "intervals refinement fulldist covering lifting consecutive")
    assert unexecuted_after("necessary", "--shape", "tree", gf) == "0 " + left
    assert (unexecuted_after("necessary", "--shape", "interval", gf)
            == "0 catalog " + left)


def test_trace_refine_leaves_necessary_and_ultragraph_unexecuted(tmp_path):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    got = unexecuted_after("trace-refine", tf)
    assert got == ("0 catalog chordal shapes necessary ultragraph "
                   "isomorphism obstructions intervals fulldist lifting "
                   "completions embeddings consecutive")


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
    left = ("chordal shapes necessary ultragraph isomorphism obstructions "
            "intervals refinement fulldist lifting completions consecutive")
    assert unexecuted_after("trace-check", tf) == "1 " + left
    assert unexecuted_after("trace-condition", "--sop2", "--shape", "tree",
                            tf) == "1 " + left


def test_ultragraph_leaves_graph_code_unexecuted(tmp_path):
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    got = unexecuted_after("ultragraph", "--extend-eta", tf)
    assert got == ("0 catalog chordal graphs shapes necessary isomorphism "
                   "obstructions intervals refinement fulldist lifting "
                   "completions embeddings consecutive")


# Prints the package modules that recognize and realize requests executed.
EXECUTED = """
import sys, types
from ugl.cli import main
for argv in %r:
    main(argv)
print(*sorted(m for m, module in sys.modules.items()
              if m.split(".")[0] == "ugl" and type(module) is types.ModuleType))
"""


def ast_nodes(module):
    """The AST nodes of a module's source: what compiling it walks."""
    import ast
    import importlib.util
    source = Path(importlib.util.find_spec(module).origin).read_text(
        encoding="utf-8")
    return sum(1 for _ in ast.walk(ast.parse(source)))


def test_recognize_and_realize_compile_no_module_larger_than_cli(tmp_path):
    # The compiler's transient memory grows with the largest module a
    # request compiles (where no bytecode is cached), and that sets the
    # request's peak RSS.  Every request compiles cli, so a recognize or
    # realize request compiles nothing larger; the other subcommands the
    # benchmark runs, and its library property check, stay under the
    # package's node cap.
    c4 = write(tmp_path, "C4.graph", C4_TEXT)
    path = write(tmp_path, "P4.graph", PATH4_TEXT)
    gap = write(tmp_path, "gap.graph", GAP_TEXT)
    requests = [[cmd, "--shape", shape, g] for cmd in ("recognize",)
                for shape in ("tree", "interval") for g in (c4, path, gap)]
    requests += [["realize", g] for g in (c4, path, gap)]
    executed = fresh_python(EXECUTED % (requests,)).split()
    assert {"ugl.cli", "ugl.graphs", "ugl.intervals", "ugl.embeddings",
            "ugl.consecutive"} <= set(executed)
    limit = ast_nodes("ugl.cli")
    sizes = {m: ast_nodes(m) for m in executed}
    assert {m: n for m, n in sizes.items() if n > limit} == {}, limit
    tf = write(tmp_path, "good.trace", GOOD_TRACE)
    sf = write(tmp_path, "C4.set",
               "B 0-2 1-3\nflags necessary=1 submin=1 mincard=1 unique=1\n")
    requests = [["trace-check", tf],
                ["trace-condition", "--sop2", "--shape", "interval", tf],
                ["trace-refine", tf], ["ultragraph", "--extend-eta", tf],
                ["necessary", "--shape", "tree", c4, "--verify", sf],
                ["necessary", "--shape", "tree", c4, "--all-minimal"],
                ["obstructions", "--shape", "interval", "--max-n", "6"]]
    executed += fresh_python(EXECUTED % (requests,)).split()
    executed += fresh_python(EXECUTED_BY % (
        "import ugl.distributions as dist\n"
        "t = dist.parse_trace(%r)\n"
        "dist.check_properties(dist.extension_distribution(t))"
        % GOOD_TRACE)).split()
    assert {"ugl.distributions", "ugl.ultragraph", "ugl.necessary",
            "ugl.completions", "ugl.covering", "ugl.fulldist"} <= set(executed)
    sizes = {m: ast_nodes(m) for m in executed}
    assert {m: n for m, n in sizes.items() if n > NODE_CAP} == {}


def test_interval_members_run_the_clique_placement_only_on_a_gap(tmp_path):
    # an interval member places no family graph, so it never executes
    # the embedding search; the consecutive-ones placement executes
    # only where the search order of the cliques leaves a gap.  (The
    # tests above pin the embedding search for tree members and
    # non-members, necessary and the non-chordal C4.)
    p4 = write(tmp_path, "P4.graph", PATH4_TEXT)
    gap = write(tmp_path, "gap.graph", GAP_TEXT)

    def executed(*argv):
        code, *left = unexecuted_after(*argv).split()
        return code, {"embeddings", "consecutive"} - set(left)

    for g, placed in ((p4, set()), (gap, {"consecutive"})):
        assert (executed("recognize", "--shape", "interval", g)
                == ("0", placed))
        assert executed("realize", g) == ("0", placed)


# Prints the package modules executed (registered ones change their
# class to ModuleType when they execute) after a library script.
EXECUTED_BY = """
%s
import sys, types
print(*sorted(m for m, module in sys.modules.items()
              if m.startswith("ugl.") and type(module) is types.ModuleType))
"""


def test_library_property_check_loads_distributions_only():
    got = fresh_python(EXECUTED_BY % (
        "import ugl.distributions as dist\n"
        "t = dist.parse_trace(%r)\n"
        "dist.check_properties(dist.extension_distribution(t))"
        % GOOD_TRACE))
    assert got == "ugl.covering ugl.distributions ugl.errors ugl.fulldist"


def test_library_calls_without_cli_execute_only_what_they_use():
    # a module imported alone leaves the siblings it names unexecuted
    # until it uses them
    got = fresh_python(EXECUTED_BY % (
        "import ugl.shapes\n"
        "from ugl.graphs import Graph\n"
        "assert ugl.shapes.recognize('tree', Graph(3, [(0, 1), (1, 2)]))"
        " is None"))
    assert got == "ugl.errors ugl.graphs ugl.shapes"
    got = fresh_python(EXECUTED_BY % (
        "from ugl.graphs import Graph\n"
        "from ugl.necessary import minimal_necessary_sets\n"
        "assert minimal_necessary_sets('interval', Graph(4, %r))"
        % ([(0, 1), (1, 2), (2, 3), (0, 3)],)))
    assert got == ("ugl.chordal ugl.completions ugl.embeddings ugl.errors "
                   "ugl.graphs ugl.necessary ugl.shapes")


def test_complete_twelve_formula_property_check_is_fast():
    # 12 formulas, 8 indices, every index graph complete: 4,096 formula
    # sets, each present at every index
    got = fresh_python(
        "from itertools import combinations\n"
        "from time import perf_counter\n"
        "import ugl.distributions as dist\n"
        "from ugl.covering import CoveringFamily\n"
        "pairs = list(combinations(range(12), 2))\n"
        "t = dist.Trace(CoveringFamily.quorum(8, 1), 12,\n"
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
    # the shape names live in the package, which every request executes
    for name in ("TREE", "INTERVAL", "SHAPES", "check_shape"):
        assert getattr(ugl.catalog, name) is getattr(ugl, name)
    assert ugl.necessary.check_shape is ugl.catalog.check_shape
    with pytest.raises(AttributeError):
        ugl.distributions.recognize
    for module in (ugl.graphs, ugl.shapes):
        with pytest.raises(AttributeError):
            module.recognize_everything
    # the embedding search and the clique placement are read from their
    # own modules, and no old home forwards to them, nor shapes to the
    # interval model type
    import ugl.chordal
    for module, name in ((ugl.graphs, "Embedding"),
                         (ugl.graphs, "iter_embeddings"),
                         (ugl.chordal, "overlap_spans"),
                         (ugl.shapes, "IntervalModel")):
        with pytest.raises(AttributeError):
            getattr(module, name)


# The names (dunders aside) that each module serves: its own, and the
# eighteen that the bench reads through an old home.  A name that moved
# without a bench reader is listed under its new home alone.
FORMER_NAMES = {
    "graphs": """CapabilityError EDGES_ONLY GRAPH_VERTEX_CAP Graph INDUCED
        InputError automorphisms canonical_form canonical_key combinations
        enumerate_graphs enumerate_maximal_cliques find_embedding
        format_graph parse_graph""",
    "embeddings": "Embedding iter_embeddings",
    "fulldist": "conjugate distribution_from_conjugate graphlike_extension",
    "shapes": """ASTEROIDAL_TRIPLE FORBIDDEN_FAMILY INDUCED INTERVAL
        IRREDUCIBLE_CYCLE InputError ObstructionWitness TREE
        WITNESS_KINDS _avoid_components _bits _interval_certificate
        _nested_neighborhoods _reaches check_shape
        combinations family_graph family_str find_asteroidal_triple
        find_chordless_cycle find_embedding format_interval_model
        format_witness minimal_obstructions parse_family
        parse_interval_model parse_witness realize_intervals recognize
        shape_families""",
    "distributions": """CapabilityError FORMULA_CAP InputError
        TRACE_FORMULA_CAP TRACE_INDEX_CAP Trace _collect_rows _index_graphs
        adequacy_report check_necessary_conditions check_properties
        check_sop2_condition combinations extension_distribution
        find_multiplicative_refinement graph_sequence
        is_multiplicative_trace is_pair_adequate is_refinement pair_support
        parse_trace singleton_support""",
    "covering": """CoveringFamily EXPLICIT PRINCIPAL QUORUM _bits
        _build_family _checked_mask _edges _graphs _has _mask _parse_int""",
    "necessary": """FLAG_NAMES InputError NecessarySet WORK_BUDGET
        check_shape counterexample_checks family_necessary_set forced_edges
        format_necessary_set minimal_necessary_sets necessity_constraints
        necessity_counterexample parse_necessary_set recognize
        verify_claims""",
    "completions": """_Spend _TREE_PATTERN_NON_EDGES _branch_bits
        _check_pairs _minimal_completions _minimal_hits _non_edges _pairs
        _sorted_pairs""",
    "ultragraph": """CapabilityError ConsistencyError InputError InternalSet
        MATERIALIZE_CAP PRINCIPAL ReducedProduct Trace _grow_clique build
        combinations eta eta_clique_witness eta_extension
        extend_to_internal_clique format_internal_set format_product_vertex
        parse_internal_set product""",
    "lifting": """LiftedMap clique_transversal_trace""",
}


def bench_names():
    """What the benchmark reads from the package: the ``TRACED`` table of
    its request child (module -> the functions it wraps), and, read from
    the syntax trees of ``bench/*.py``, the names that each
    ``from ugl... import`` takes (module -> names)."""
    import ast
    import importlib.util
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_child",
                                                  bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    traced = {"ugl." + home: names for home, names in child.TRACED.items()}
    imported = {}
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module.split(".")[0] == "ugl"):
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    return traced, imported


def test_former_names_resolve_from_their_old_homes():
    import importlib
    # the pair-mask helpers of graphs live in necessary, their one user,
    # and shapes serves its family names from the catalog
    split_off = {m: importlib.import_module("ugl." + m)
                 for m in SPLIT_OFF + ("necessary", "catalog")}
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
    assert len(moved) == 18
    for module, names in bench_names()[0].items():
        for name in names:
            assert callable(getattr(importlib.import_module(module),
                                    name)), (module, name)


def test_bench_imports_resolve_where_the_bench_reads_them():
    import importlib
    imported = bench_names()[1]
    # check.py reads trace, graph, necessity, shape and product names
    assert {"ugl.distributions", "ugl.graphs", "ugl.necessary", "ugl.shapes",
            "ugl.ultragraph"} <= set(imported)
    for module, names in imported.items():
        for name in names:
            assert hasattr(importlib.import_module(module), name), (module,
                                                                    name)


def test_untraced_modules_call_traced_functions_through_their_homes():
    # The bench's tracer replaces a traced function in the modules of its
    # TRACED table only, so a module outside it that bound one by name
    # would call it unseen.  A module that defines one (a home its old
    # home forwards to) is the exception.
    import importlib
    traced = bench_names()[0]
    for other in PACKAGE_MODULES:
        module = importlib.import_module("ugl." + other)
        if module.__name__ in traced:
            continue
        for home, names in traced.items():
            for name in names:
                fn = getattr(importlib.import_module(home), name)
                if vars(module).get(name) is fn:
                    assert fn.__module__ == module.__name__, (other, name)


def test_import_registers_every_module_unexecuted():
    got = fresh_python(EXECUTED_BY % (
        "import sys\n"
        "import ugl.cli\n"
        "assert all('ugl.' + m in sys.modules for m in %r)\n"
        "assert not {'argparse', 'gettext'} & set(sys.modules)"
        % (PACKAGE_MODULES,)))
    assert got == "ugl.cli ugl.errors"


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
