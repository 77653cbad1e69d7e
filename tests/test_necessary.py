from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugl import completions, necessary, shapes
from ugl.catalog import INTERVAL, TREE, family_graph
from ugl.errors import CapabilityError, InputError
from ugl.graphs import Graph
from ugl.isomorphism import automorphisms, enumerate_graphs
from ugl.necessary import (NecessarySet, counterexample_checks,
                           family_necessary_set, forced_edges,
                           format_necessary_set, minimal_necessary_sets,
                           necessity_constraints, necessity_counterexample,
                           parse_necessary_set, verify_claims)
from ugl.shapes import recognize

import oracles
from oracles import (classwide_constraints, compute_flags, minimize_family,
                     necessary_by_enumeration)
from test_cli import fresh_python

C4 = family_graph("C4")
L4 = family_graph("L4")


def nonmembers(shape, n):
    return [g for g in enumerate_graphs(n) if recognize(shape, g) is not None]


def members_up_to(shape, max_n, min_n=0):
    out = []
    for n in range(min_n, max_n + 1):
        out += [g for g in enumerate_graphs(n) if recognize(shape, g) is None]
    return out


# ---------------------------------------------------------------------------
# value type and text format
# ---------------------------------------------------------------------------

def test_necessary_set_validation():
    ns = NecessarySet([(1, 3), (0, 2)], {"necessary": 1})
    assert ns.edges == ((0, 2), (1, 3))
    assert ns.claimed() == ["necessary"]
    with pytest.raises(InputError):
        NecessarySet([(2, 1)])
    with pytest.raises(InputError):
        NecessarySet([(1, 1)])
    with pytest.raises(InputError):
        NecessarySet([(0, 1), (0, 1)])
    with pytest.raises(InputError):
        NecessarySet([(0, 1)], {"minimal": 1})


def test_set_file_round_trip():
    ns = NecessarySet([(0, 2), (1, 3)], {"necessary": 1, "submin": 1})
    text = format_necessary_set(ns)
    assert text == "B 0-2 1-3\nflags necessary=1 submin=1 mincard=0 unique=0\n"
    assert parse_necessary_set(text) == ns
    empty = NecessarySet([], {})
    assert parse_necessary_set(format_necessary_set(empty)) == empty


@pytest.mark.parametrize("text", [
    "",
    "B 0-2",
    "flags necessary=1",
    "B 0-2\nB 1-3\nflags necessary=0 submin=0 mincard=0 unique=0",
    "B 02\nflags necessary=0 submin=0 mincard=0 unique=0",
    "B 0-x\nflags necessary=0 submin=0 mincard=0 unique=0",
    "B 0-2\nflags necessary=2 submin=0 mincard=0 unique=0",
    "B 0-2\nflags shiny=1",
    "B 0-2\nflags necessary=1 necessary=1",
    "Q 0-2\nflags necessary=1",
    # number tokens are an optional "-" and ASCII digits
    "B 0-\u0662 +1-3\nflags necessary=1 submin=0 mincard=0 unique=0",
    "B +0-2\nflags necessary=0 submin=0 mincard=0 unique=0",
    "B 0-2_0\nflags necessary=0 submin=0 mincard=0 unique=0",
    "B 0-2\nflags necessary=1 submin=0 mincard=0 unique=0\n"
    "flags necessary=1 submin=0 mincard=0 unique=0",
])
def test_set_file_rejects(text):
    with pytest.raises(InputError):
        parse_necessary_set(text)


def test_pairs_checked_against_host():
    with pytest.raises(InputError):
        necessity_counterexample(TREE, C4, [(0, 1)])
    with pytest.raises(InputError):
        necessity_counterexample(TREE, C4, [(0, 4)])


# ---------------------------------------------------------------------------
# forced edges
# ---------------------------------------------------------------------------

def test_forced_edges_frozen():
    assert forced_edges(TREE, C4) == [(0, 2), (1, 3)]
    assert forced_edges(TREE, L4) == [(0, 2), (1, 3)]
    assert forced_edges(INTERVAL, family_graph("V", 1)) == [(0, 4), (1, 2), (3, 5)]
    assert forced_edges(INTERVAL, family_graph("II")) == [(0, 6), (1, 3), (3, 5)]
    assert forced_edges(INTERVAL, family_graph("I")) == [(0, 2), (0, 4), (0, 6)]
    assert forced_edges(INTERVAL, family_graph("III", 6)) == []


def test_forced_edges_lie_in_every_minimal_set():
    for kind, param in [("C4", None), ("L4", None), ("IV", 2), ("V", 1)]:
        shape, host, _ = family_necessary_set(kind, param)
        forced = set(forced_edges(shape, host))
        for s in minimal_necessary_sets(shape, host):
            assert forced <= set(s.edges)


# ---------------------------------------------------------------------------
# the two decision routes agree
# ---------------------------------------------------------------------------

def test_routes_agree_exhaustively_small():
    for shape in (TREE, INTERVAL):
        for n in (4, 5):
            for h in nonmembers(shape, n):
                fam = necessity_constraints(shape, h)
                ne = h.non_edges()
                candidates = [()]
                candidates += [(e,) for e in ne]
                candidates += list(combinations(ne, 2))
                for b in candidates:
                    via_enum = all(set(b) & s for s in fam)
                    via_search = necessity_counterexample(shape, h, b) is None
                    assert via_enum == via_search, (shape, h, b)


def test_routes_agree_on_catalog_hosts():
    for kind, param in [("III", 5), ("III", 6), ("IV", 2), ("V", 1)]:
        shape, host, ns = family_necessary_set(kind, param)
        assert necessary_by_enumeration(shape, host, ns.edges)
        assert necessity_counterexample(shape, host, ns.edges) is None


def test_counterexamples_check_out():
    for shape in (TREE, INTERVAL):
        for h in nonmembers(shape, 5):
            for e in h.non_edges():
                got = necessity_counterexample(shape, h, [e])
                if got is None:
                    continue
                completion, psi = got
                assert counterexample_checks(shape, h, [e], completion, psi)
                assert not counterexample_checks(
                    shape, h, [e], h, psi)


def test_counterexample_checks_rejects_tampering():
    shape, host, _ = family_necessary_set("III", 5)
    got = necessity_counterexample(shape, host, [(0, 2)])
    assert got is not None
    completion, psi = got
    bad_psi = tuple(reversed(psi))
    if counterexample_checks(shape, host, [(0, 2)], completion, bad_psi):
        bad_psi = psi[1:] + psi[:1]
    assert not counterexample_checks(shape, host, [(0, 2)], completion,
                                     (0, 0, 1, 2, 3))


# ---------------------------------------------------------------------------
# the decision agrees with the recursive search and the sandwich sweep
# ---------------------------------------------------------------------------

CATALOG = [("C4", None), ("L4", None), ("III", 4), ("III", 5), ("III", 6),
           ("III", 7), ("I", None), ("II", None), ("IV", 2), ("IV", 3),
           ("IV", 4), ("V", 1), ("V", 2), ("V", 3)]


def assert_matches_oracles(shape, host, pairs):
    # The masks over the host's non-edges relabel the bits of the masks
    # over all pairs in the same order, so the completion and the psi of
    # every answer stay those of the recursive search over all pairs.
    got = necessity_counterexample(shape, host, pairs)
    assert got == oracles.recursive_counterexample(shape, host, pairs), (
        host, pairs)
    assert got == oracles.sandwich_counterexample(shape, host, pairs), (
        host, pairs)


def test_sandwiches_match_sweep_on_catalog_hosts():
    for kind, param in CATALOG:
        shape, host, ns = family_necessary_set(kind, param)
        b = ns.edges
        cases = [b, tuple(forced_edges(shape, host))]
        cases += [b[:i] + b[i + 1:] for i in range(len(b))]
        for pairs in cases:
            assert_matches_oracles(shape, host, pairs)


def test_sandwiches_match_sweep_on_small_nonmembers():
    for shape in (TREE, INTERVAL):
        for n in range(7):
            for h in nonmembers(shape, n):
                for e in h.non_edges():
                    assert_matches_oracles(shape, h, [e])


# ---------------------------------------------------------------------------
# constraints and minimal sets agree with the sweeps over every supergraph
# ---------------------------------------------------------------------------

def small_hosts(max_non_edges):
    """Catalog hosts, then non-members with at most 6 vertices, each with
    at most ``max_non_edges`` non-edges."""
    out = []
    for kind, param in CATALOG:
        shape, host, _ = family_necessary_set(kind, param)
        out.append((shape, host))
    for shape in (TREE, INTERVAL):
        for n in range(7):
            out += [(shape, h) for h in nonmembers(shape, n)]
    return [(shape, h) for shape, h in out
            if len(h.non_edges()) <= max_non_edges]


def test_constraints_match_sweep_on_catalog_hosts():
    for kind, param in CATALOG:
        shape, host, _ = family_necessary_set(kind, param)
        if len(host.non_edges()) > 12:
            continue
        want = minimize_family(oracles.brute_constraints(shape, host))
        assert necessity_constraints(shape, host) == want, (kind, param)


@pytest.mark.parametrize("shape", [TREE, INTERVAL])
def test_constraints_match_sweep_on_small_nonmembers(shape):
    # Six-vertex hosts with 9 non-edges are left out: the oracle takes
    # about 5 s on them.
    for n in range(7):
        for h in nonmembers(shape, n):
            if len(h.non_edges()) <= 8:
                want = minimize_family(oracles.brute_constraints(shape, h))
                assert necessity_constraints(shape, h) == want, h


def test_minimal_sets_match_subset_sweep():
    for shape, h in small_hosts(9):
        got = [m.edges for m in minimal_necessary_sets(shape, h)]
        assert got == oracles.brute_minimal_hits(shape, h), (shape, h)


def counting(monkeypatch, module, *names):
    """Counts of the calls made to the named functions of the module."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_constraints_branch_on_witness_pairs(monkeypatch):
    # The 4-cycle's diagonals are the only branches; the four isolated
    # vertices add 20 non-edges that are never tried.  The sweep
    # recognizes through shapes, the automorphism scan is necessary's.
    calls = counting(monkeypatch, shapes, "recognize")
    scans = counting(monkeypatch, necessary, "iter_embeddings")
    host = Graph(8, C4.edges())
    assert necessity_constraints(TREE, host) == [frozenset({(0, 2)}),
                                                 frozenset({(1, 3)})]
    assert 0 < calls["recognize"] <= 3
    assert scans["iter_embeddings"] == 0
    # no automorphism or canonical-form code runs: the call leaves the
    # isomorphism module unexecuted
    got = fresh_python(
        "import sys, types\n"
        "from ugl.graphs import Graph\n"
        "from ugl.catalog import TREE\n"
        "from ugl.necessary import necessity_constraints\n"
        "got = necessity_constraints(TREE, Graph(8, %r))\n"
        "print(len(got),\n"
        "      type(sys.modules['ugl.isomorphism']) is types.ModuleType)"
        % (C4.edges(),))
    assert got == "2 False"
    assert [m.edges for m in minimal_necessary_sets(TREE, host)] == [
        ((0, 2), (1, 3))]


# ---------------------------------------------------------------------------
# reduction to same-vertex-set completions is sound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,shape,max_n", [
    ("C4", TREE, 6), ("L4", TREE, 6), ("III", INTERVAL, 6),
])
def test_classwide_constraints_match(kind, shape, max_n):
    param = 4 if kind == "III" else None
    host = family_graph(kind, param)
    members = members_up_to(shape, max_n, min_n=host.n)
    wide = minimize_family(classwide_constraints(host, members))
    same = minimize_family(necessity_constraints(shape, host))
    assert wide == same


def test_classwide_constraints_match_five_vertex_hosts():
    members = members_up_to(INTERVAL, 6, min_n=5)
    for h in nonmembers(INTERVAL, 5):
        wide = minimize_family(classwide_constraints(h, members))
        same = minimize_family(necessity_constraints(INTERVAL, h))
        assert wide == same, h


# ---------------------------------------------------------------------------
# automorphism stability
# ---------------------------------------------------------------------------

def test_necessity_is_automorphism_stable():
    for kind, param in [("C4", None), ("III", 5), ("V", 1)]:
        shape, host, ns = family_necessary_set(kind, param)
        for sigma in automorphisms(host):
            moved = sorted(tuple(sorted((sigma[u], sigma[v])))
                           for u, v in ns.edges)
            assert necessity_counterexample(shape, host, moved) is None


# ---------------------------------------------------------------------------
# minimal sets and flags
# ---------------------------------------------------------------------------

def test_minimal_sets_frozen():
    for host in (C4, L4):
        mins = minimal_necessary_sets(TREE, host)
        assert [m.edges for m in mins] == [((0, 2), (1, 3))]
        assert mins[0].flags == {"necessary": True, "submin": True,
                                 "mincard": True, "unique": True}
    for kind, param in [("V", 1), ("IV", 2)]:
        shape, host, ns = family_necessary_set(kind, param)
        mins = minimal_necessary_sets(shape, host)
        assert [m.edges for m in mins] == [ns.edges]
        assert mins[0].flags["unique"]


def test_minimal_sets_on_five_cycle():
    shape, host, ns = family_necessary_set("III", 5)
    mins = minimal_necessary_sets(shape, host)
    assert len(mins) == 5 and all(len(m.edges) == 3 for m in mins)
    assert all(m.flags["mincard"] and not m.flags["unique"] for m in mins)
    assert ns.edges in [m.edges for m in mins]


def test_minimal_sets_on_six_cycle():
    shape, host, ns = family_necessary_set("III", 6)
    mins = minimal_necessary_sets(shape, host)
    sizes = [len(m.edges) for m in mins]
    assert min(sizes) == 3
    assert ns.edges in [m.edges for m in mins]
    catalog = next(m for m in mins if m.edges == ns.edges)
    assert catalog.flags["submin"] and not catalog.flags["mincard"]


def test_compute_flags_examples():
    shape, host, ns = family_necessary_set("IV", 2)
    assert compute_flags(shape, host, ns.edges) == {
        "necessary": True, "submin": True, "mincard": True, "unique": True}
    assert compute_flags(shape, host, [(0, 4)]) == {
        "necessary": False, "submin": False, "mincard": False, "unique": False}
    shape, host, ns = family_necessary_set("II")
    fl = compute_flags(shape, host, ns.edges)
    assert fl == {"necessary": True, "submin": True,
                  "mincard": True, "unique": True}


def test_compute_flags_exact_on_every_catalog_host():
    shape, host, ns = family_necessary_set("I")
    assert compute_flags(shape, host, ns.edges) == {
        "necessary": True, "submin": True, "mincard": True, "unique": True}
    for kind, param in CATALOG:
        shape, host, ns = family_necessary_set(kind, param)
        fl = compute_flags(shape, host, ns.edges)
        assert None not in fl.values(), (kind, param)
        assert fl["necessary"] and fl["submin"], (kind, param)


def test_verify_claims_catalog_small():
    for kind, param in [("C4", None), ("L4", None), ("III", 4), ("III", 5),
                        ("IV", 2), ("V", 1)]:
        shape, host, ns = family_necessary_set(kind, param)
        ok, verdicts, evidence = verify_claims(shape, host, ns)
        assert ok, (kind, param, verdicts)
        assert set(verdicts) == set(ns.claimed())
        assert not evidence


def test_verify_claims_failure_evidence():
    shape, host, _ = family_necessary_set("III", 5)
    bogus = NecessarySet([(0, 2)], {"necessary": 1})
    ok, verdicts, evidence = verify_claims(shape, host, bogus)
    assert not ok and verdicts == {"necessary": False}
    tag, completion, psi = evidence["necessary"]
    assert tag == "completion"
    assert counterexample_checks(shape, host, bogus.edges, completion, psi)

    padded = NecessarySet([(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)],
                          {"submin": 1})
    ok, verdicts, evidence = verify_claims(shape, host, padded)
    assert not ok and verdicts == {"submin": False}
    assert evidence["submin"][0] == "redundant"

    shape6, host6, ns6 = family_necessary_set("III", 6)
    greedy = NecessarySet(ns6.edges, {"mincard": 1})
    ok, verdicts, evidence = verify_claims(shape6, host6, greedy)
    assert not ok and verdicts == {"mincard": False}
    tag, smaller = evidence["mincard"]
    assert tag == "smaller" and len(smaller) == 3
    assert necessity_counterexample(shape6, host6, smaller) is None


def test_verify_claims_settles_cardinality_on_large_hosts():
    shape, host, _ = family_necessary_set("I")
    claim = NecessarySet([(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (3, 5)],
                         {"mincard": 1, "unique": 1})
    assert verify_claims(shape, host, claim) == (
        True, {"mincard": True, "unique": True}, {})
    shape, host, ns = family_necessary_set("II")
    claim = NecessarySet(ns.edges, {"unique": 1})
    assert verify_claims(shape, host, claim) == (True, {"unique": True}, {})
    shape, host, ns = family_necessary_set("III", 7)
    greedy = NecessarySet(ns.edges, {"mincard": 1, "unique": 1})
    smaller = ("smaller", ((0, 3), (0, 4), (1, 5), (2, 6)))
    assert verify_claims(shape, host, greedy) == (
        False, {"mincard": False, "unique": False},
        {"mincard": smaller, "unique": smaller})


def test_capability_bounds():
    shape, host, ns = family_necessary_set("I")
    mins = minimal_necessary_sets(shape, host)
    assert [len(m.edges) for m in mins] == [6, 7, 7, 7, 8, 8, 8, 9]
    assert mins[0] == NecessarySet(ns.edges, {"necessary": 1, "submin": 1,
                                              "mincard": 1, "unique": 1})
    # 9! automorphisms exceed the budget of the search
    big = Graph(9, [])
    with pytest.raises(CapabilityError):
        necessity_counterexample(INTERVAL, big, [(0, 1)])
    shape, host, ns = family_necessary_set("IV", 5)
    assert host.n == 9
    assert necessity_counterexample(shape, host, ns.edges) is None
    wide = Graph(7, [])
    assert necessity_constraints(INTERVAL, wide) == [frozenset()]


def test_work_budget(monkeypatch):
    # A 20-cycle branches on 170 chords, and its chorded cycles branch
    # again: the sweep runs out of budget after about 1,500 recognize
    # calls.
    calls = counting(monkeypatch, shapes, "recognize")
    cycle = Graph(20, [(i, (i + 1) % 20) for i in range(20)])
    with pytest.raises(CapabilityError):
        minimal_necessary_sets(INTERVAL, cycle)
    assert 0 < calls["recognize"] < necessary.WORK_BUDGET
    # Every mask has a bit per host non-edge, so a host with more
    # non-edges than the budget is refused before the first recognize.
    calls["recognize"] = 0
    sparse = Graph(400, C4.edges())
    assert 400 * 399 // 2 - 4 > necessary.WORK_BUDGET
    with pytest.raises(CapabilityError):
        necessity_constraints(TREE, sparse)
    assert calls["recognize"] == 0


def disjoint_c4s(k):
    return Graph(4 * k, [(4 * i + a, 4 * i + (a + 1) % 4)
                         for i in range(k) for a in range(4)])


def test_hitting_set_nodes_are_charged_by_their_completions():
    # k disjoint 4-cycles have 2^k minimal completions, all carried by
    # the root of the hitting-set branching: 8 of them fit the budget,
    # and 9, which the sweep alone allows, are refused
    sets = minimal_necessary_sets(TREE, disjoint_c4s(8))
    assert [ns.edges for ns in sets] == [
        ((4 * i, 4 * i + 2), (4 * i + 1, 4 * i + 3)) for i in range(8)]
    spend = completions._Spend()
    _, family = completions._minimal_completions(TREE, disjoint_c4s(9), spend)
    assert len(family) == 512
    assert spend.units + len(family) < necessary.WORK_BUDGET
    with pytest.raises(CapabilityError):
        minimal_necessary_sets(TREE, disjoint_c4s(9))


def test_search_charges_host_pairs_automorphisms_and_masks(monkeypatch):
    calls = counting(monkeypatch, necessary, "recognize")
    spend = completions._Spend()
    assert necessity_counterexample(INTERVAL, C4, [(0, 2)], spend) is not None
    # 6 pairs, the 8 automorphisms of the 4-cycle, then the masks
    assert spend.units == 6 + 8 + calls["recognize"]
    # K_400 minus an edge has 79,800 pairs: the search is refused before
    # it scans an automorphism, where the sweep charges its one non-edge
    calls["recognize"] = 0
    near = Graph(400, [(i, j) for j in range(400) for i in range(j)
                       if (i, j) != (0, 1)])
    with pytest.raises(CapabilityError):
        necessity_counterexample(INTERVAL, near, [(0, 1)])
    assert calls["recognize"] == 0
    assert minimal_necessary_sets(INTERVAL, near) == []


def test_verify_claims_share_one_spend(monkeypatch):
    # III(9)'s search for its curated set takes 857 units, and the eight
    # searches of its necessary and submin claims 1,484 in all: under a
    # budget of 1,200 the one search answers and the claims are refused
    shape, host, ns = family_necessary_set("III", 9)
    assert verify_claims(shape, host, ns)[0]
    monkeypatch.setattr(necessary, "WORK_BUDGET", 1200)
    with pytest.raises(CapabilityError):
        verify_claims(shape, host, ns)
    assert necessity_counterexample(shape, host, ns.edges) is None


def test_member_host_has_no_necessary_sets():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert minimal_necessary_sets(INTERVAL, path) == []
    assert necessity_counterexample(INTERVAL, path, [(0, 2)]) is not None
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert minimal_necessary_sets(TREE, triangle) == []


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def host_and_set(draw):
    shape = draw(st.sampled_from((TREE, INTERVAL)))
    pool = nonmembers(shape, 5)
    h = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    ne = h.non_edges()
    picks = draw(st.sets(st.integers(min_value=0, max_value=len(ne) - 1),
                         max_size=3))
    return shape, h, tuple(ne[i] for i in sorted(picks))


@given(host_and_set())
@settings(max_examples=80, deadline=None)
def test_property_routes_agree(args):
    shape, h, b = args
    assert (necessary_by_enumeration(shape, h, b)
            == (necessity_counterexample(shape, h, b) is None))


@given(host_and_set())
@settings(max_examples=40, deadline=None)
def test_property_supersets_stay_necessary(args):
    shape, h, b = args
    if necessity_counterexample(shape, h, b) is not None:
        return
    rest = [e for e in h.non_edges() if e not in b]
    if rest:
        assert necessity_counterexample(
            shape, h, tuple(b) + (rest[0],)) is None
