"""Covering families, traces, level maps, and the refinement search."""

import importlib.util
import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest

import ugl.distributions as D
from ugl.catalog import INTERVAL, TREE, family_str, shape_families
from ugl.covering import CoveringFamily, _edges
from ugl.distributions import (
    Trace,
    adequacy_report,
    check_necessary_conditions,
    check_sop2_condition,
    graph_sequence,
    is_multiplicative_trace,
    is_pair_adequate,
    pair_support,
    parse_trace,
    singleton_support,
)
from ugl.errors import CapabilityError, ConsistencyError, InputError
from ugl.fulldist import (
    FullDistribution,
    all_subsets,
    check_properties,
    conjugate,
    distribution_from_conjugate,
    extension_distribution,
    graphlike_extension,
)
from ugl.graphs import Graph
from ugl.isomorphism import enumerate_graphs
from ugl.necessary import family_necessary_set
from ugl.refinement import (
    LosInstance,
    enumerate_maximal_cliques,
    essential_range,
    find_multiplicative_refinement,
    format_trace,
    from_graph_sequence,
    is_refinement,
    restrict,
)
from ugl.shapes import recognize
from ugl.ultragraph import _grow_clique

import oracles
from oracles import (all_subsets_from_conjugate, brute_pattern_violation,
                     frozenset_adequacy_report, frozenset_check_properties,
                     frozenset_conjugate, frozenset_extension,
                     frozenset_graph_sequence, frozenset_grow_clique,
                     frozenset_is_multiplicative_trace,
                     frozenset_multiplicative_refinement,
                     pairwise_check_properties,
                     recursive_maximal_cliques,
                     recursive_multiplicative_refinement)


def pairs_of(vs):
    return list(combinations(sorted(vs), 2))


def random_family(rng, n):
    roll = rng.randrange(3)
    if roll == 0:
        return CoveringFamily.quorum(n, rng.randrange(1, n + 1))
    if roll == 1:
        size = rng.randrange(1, n + 1)
        return CoveringFamily.principal(n, rng.sample(range(n), size))
    mins = set()
    for _ in range(rng.randrange(1, 3)):
        size = rng.randrange(1, n + 1)
        mins.add(frozenset(rng.sample(range(n), size)))
    keep = [m for m in mins if not any(o < m for o in mins)]
    return CoveringFamily.explicit(n, keep)


def random_trace(rng, n_indices, n_formulas, family=None, p_vertex=0.7,
                 p_edge=0.6):
    fam = family or random_family(rng, n_indices)
    g1 = []
    g2 = []
    for _ in range(n_indices):
        vs = {b for b in range(n_formulas) if rng.random() < p_vertex}
        es = [p for p in pairs_of(vs) if rng.random() < p_edge]
        g1.append(vs)
        g2.append(es)
    return Trace(fam, n_formulas, g1, g2)


def random_monotone(rng, n_formulas, n_indices):
    subs = all_subsets(n_formulas)
    v = {s: frozenset(a for a in range(n_indices) if rng.random() < 0.6)
         for s in subs}
    full = frozenset(range(n_indices))
    mp = {}
    for d in subs:
        acc = full
        for phi in subs:
            if phi <= d:
                acc &= v[phi]
        mp[d] = acc
    return FullDistribution(n_formulas, n_indices, mp)


def bench_traces(tmp_path_factory, seeds=range(1, 6)):
    """(request kinds, trace) for every trace file of the traces rounds of
    the given bench seeds, as ``bench/gen.py`` writes them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = []
    for seed in seeds:
        outdir = tmp_path_factory.mktemp("traces-%d" % seed)
        kinds = {}
        for req in gen.write_inputs("traces", seed, outdir):
            kinds.setdefault(req["argv"][-1][1:], set()).add(req["argv"][0])
        for name in sorted(kinds):
            text = (outdir / name).read_text(encoding="utf-8")
            out.append((kinds[name], parse_trace(text)))
    return out


def report_fields(rep):
    return (rep.monotone, rep.graph_like, rep.multiplicative,
            rep.pairwise_splitting, rep.refines_los, rep.witnesses)


def induced_on_g1(t, alpha):
    vs = sorted(t.g1[alpha])
    pos = {v: i for i, v in enumerate(vs)}
    return Graph(len(vs), [(pos[u], pos[v]) for u, v in t.g2[alpha]])


# ---------------------------------------------------------------------------
# covering families
# ---------------------------------------------------------------------------

def test_family_kinds_membership():
    q = CoveringFamily.quorum(4, 3)
    assert q.is_member({0, 1, 2}) and q.is_member({0, 1, 2, 3})
    assert not q.is_member({0, 1}) and not q.is_member(())
    p = CoveringFamily.principal(4, [1, 3])
    assert p.is_member({1, 3}) and p.is_member({0, 1, 3})
    assert not p.is_member({1, 2}) and not p.is_member(())
    e = CoveringFamily.explicit(4, [[0, 1], [2, 3]])
    assert e.is_member({0, 1}) and e.is_member({2, 3}) and e.is_member({0, 2, 3})
    assert not e.is_member({0, 2}) and not e.is_member(())


def test_family_never_contains_empty_and_upward_closed():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 6)
        fam = random_family(rng, n)
        assert not fam.is_member(())
        s = frozenset(a for a in range(n) if rng.random() < 0.5)
        if fam.is_member(s):
            extra = s | {rng.randrange(n)}
            assert fam.is_member(extra)


def test_family_validation():
    with pytest.raises(InputError):
        CoveringFamily.quorum(3, 0)
    with pytest.raises(InputError):
        CoveringFamily.quorum(3, 4)
    with pytest.raises(InputError):
        CoveringFamily.principal(3, [])
    with pytest.raises(InputError):
        CoveringFamily.principal(3, [3])
    with pytest.raises(InputError):
        CoveringFamily.explicit(3, [])
    with pytest.raises(InputError):
        CoveringFamily.explicit(3, [[0], [0, 1]])
    with pytest.raises(InputError):
        CoveringFamily.explicit(3, [[0, 1], [0, 1]])
    with pytest.raises(InputError):
        CoveringFamily.explicit(3, [[]])
    with pytest.raises(InputError):
        CoveringFamily(3, "majority", 2)


def test_family_minimal_members():
    assert CoveringFamily.quorum(3, 2).minimal_members() == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    assert CoveringFamily.principal(3, [2, 0]).minimal_members() == [
        frozenset({0, 2})]
    e = CoveringFamily.explicit(4, [[2, 3], [0, 1]])
    assert e.minimal_members() == [frozenset({0, 1}), frozenset({2, 3})]


def test_family_restrict_quorum_shifts_threshold():
    q = CoveringFamily.quorum(5, 3)
    r = q.restrict([0, 2, 3, 4])
    assert r == CoveringFamily.quorum(4, 2)
    r2 = q.restrict([1, 2, 4])
    assert r2 == CoveringFamily.quorum(3, 1)


def test_family_restrict_principal_renumbers():
    p = CoveringFamily.principal(5, [1, 4])
    r = p.restrict([1, 3, 4])
    assert r == CoveringFamily.principal(3, [0, 2])


def test_family_restrict_explicit_cuts_members():
    e = CoveringFamily.explicit(5, [[0, 1], [1, 2, 3]])
    r = e.restrict([0, 1, 2])
    assert r == CoveringFamily.explicit(3, [[0, 1], [1, 2]])


def test_family_restrict_degenerate():
    with pytest.raises(ConsistencyError):
        CoveringFamily.quorum(4, 2).restrict([0, 1])
    with pytest.raises(ConsistencyError):
        CoveringFamily.explicit(4, [[0, 1], [2, 3]]).restrict([0, 1])
    with pytest.raises(ConsistencyError):
        CoveringFamily.principal(3, [0, 1]).restrict([0, 2])


def outcome(call, *args):
    """A call's result, or its error type and message."""
    try:
        return call(*args)
    except (InputError, ConsistencyError) as err:
        return type(err).__name__, str(err)


def test_family_matches_the_frozenset_oracle():
    # every quorum, principal and explicit family over at most 4 indices
    # (explicit members listed in reverse sorted order), and the refused
    # declarations, against every candidate set and two out of range
    families = []
    for n in range(1, 5):
        subsets = [frozenset(c) for k in range(1, n + 1)
                   for c in combinations(range(n), k)]
        params = [("quorum", k) for k in range(1, n + 2)]
        params += [("principal", sorted(s)) for s in subsets]
        params += [("explicit", [sorted(m) for m in reversed(chain)])
                   for size in range(1, 7)
                   for chain in combinations(subsets, size)]
        for kind, param in params:
            got = outcome(CoveringFamily, n, kind, param)
            old = outcome(oracles.FrozensetCoveringFamily, n, kind, param)
            assert repr(got) == repr(old)
            if not isinstance(got, CoveringFamily):
                continue
            families.append((got, old))
            candidates = [()] + subsets + [(n,), (n, -1)]
            for c in candidates:
                assert outcome(got.is_member, c) == outcome(old.is_member, c)
            assert got.minimal_members() == old.minimal_members()
            for c in filter(old.is_member, subsets):
                cut, old_cut = outcome(got.restrict, c), outcome(old.restrict, c)
                assert repr(cut) == repr(old_cut)
                if isinstance(cut, CoveringFamily):
                    assert cut == CoveringFamily(
                        old_cut.index_count, old_cut.kind, old_cut.param)
    # 10 quorum, 26 principal and 189 explicit families
    assert len(families) == 225
    for (a, old_a), (b, old_b) in combinations(families, 2):
        assert (a == b) == (old_a == old_b) == (repr(a) == repr(b))


# ---------------------------------------------------------------------------
# instance and trace structure
# ---------------------------------------------------------------------------

def test_instance_validation():
    LosInstance(3, [{0, 1}, {2}], [[(0, 1)], []])
    with pytest.raises(InputError):
        LosInstance(3, [{0}], [[(0, 1)]])
    with pytest.raises(InputError):
        LosInstance(3, [{0, 1}], [[(0, 0)]])
    with pytest.raises(InputError):
        LosInstance(3, [{0, 1}, {2}], [[(0, 1)]])


def test_instance_clique_check():
    inst = LosInstance(3, [{0, 1, 2}], [[(0, 1), (1, 2)]])
    assert inst.is_clique(0, {0, 1})
    assert inst.is_clique(0, {1})
    assert inst.is_clique(0, set())
    assert not inst.is_clique(0, {0, 2})
    assert not inst.is_clique(0, {0, 1, 2})


def test_trace_structure_enforced():
    fam = CoveringFamily.quorum(2, 1)
    Trace(fam, 3, [{0, 1}, set()], [[(0, 1)], []])
    with pytest.raises(InputError):
        Trace(fam, 3, [{0, 1}, set()], [[(0, 2)], []])
    with pytest.raises(InputError):
        Trace(fam, 3, [{0, 1}], [[(0, 1)]])
    with pytest.raises(InputError):
        Trace(fam, 3, [{0, 3}, set()], [[], []])


def test_trace_instance_domination_enforced():
    fam = CoveringFamily.quorum(2, 1)
    inst = LosInstance(3, [{0, 1}, {0, 1, 2}], [[(0, 1)], [(0, 1), (1, 2)]])
    Trace(fam, 3, [{0, 1}, {1, 2}], [[(0, 1)], [(1, 2)]], inst)
    with pytest.raises(InputError):
        Trace(fam, 3, [{0, 2}, set()], [[], []], inst)
    with pytest.raises(InputError):
        Trace(fam, 3, [{0, 1}, {0, 1}], [[], [(0, 1)]],
              LosInstance(3, [{0, 1}, {0, 1}], [[], []]))
    with pytest.raises(InputError):
        Trace(CoveringFamily.quorum(3, 1), 3, [set()] * 3, [[]] * 3,
              LosInstance(3, [{0}], [[]]))


def test_trace_immutable():
    t = random_trace(random.Random(0), 2, 3)
    with pytest.raises(AttributeError):
        t.g1 = ()


def test_supports_and_adequacy():
    fam = CoveringFamily.quorum(3, 2)
    t = Trace(fam, 3,
              [{0, 1, 2}, {0, 1}, {2}],
              [[(0, 1), (1, 2)], [(0, 1)], []])
    assert singleton_support(t, 0) == {0, 1}
    assert singleton_support(t, 2) == {0, 2}
    assert pair_support(t, (0, 1)) == {0, 1}
    assert pair_support(t, (1, 0)) == {0, 1}
    assert pair_support(t, (0, 2)) == frozenset()
    # formulas outside the trace lie in no set
    assert singleton_support(t, -1) == singleton_support(t, 3) == frozenset()
    assert pair_support(t, (-1, 0)) == pair_support(t, (2, 3)) == frozenset()
    bad_b, bad_p = adequacy_report(t)
    assert bad_b == []
    assert bad_p == [(0, 2), (1, 2)]
    assert not is_pair_adequate(t)


def test_adequacy_reads_a_sparse_wide_trace_in_time_linear_in_its_edges():
    # one index, 15,000 formulas, g2 the matching {i, i + 7,500}: its rows
    # are 15,000 bits wide with one bit each, so a reader that costs the
    # width of each row spends about 2 s before the first bad pair
    n, half = 15000, 7500
    t = Trace(CoveringFamily.quorum(1, 1), n, [range(n)],
              [[(i, i + half) for i in range(half)]])
    start = time.perf_counter()
    assert not is_pair_adequate(t)
    assert time.perf_counter() - start < 0.5
    assert t.g2 == (frozenset((i, i + half) for i in range(half)),)


def test_edges_reads_rows_of_every_density():
    # sparse rows are read lowest bit first, dense ones through their
    # binary string; both give the pairs in ascending order
    rng = random.Random(4)
    for p in (0.0, 0.01, 0.1, 0.2, 0.5, 1.0):
        pairs = [e for e in combinations(range(300), 2) if rng.random() < p]
        assert _edges(Graph(300, pairs).rows) == pairs


def test_empty_trace_fully_inadequate():
    fam = CoveringFamily.principal(2, [0])
    t = Trace(fam, 3, [set(), set()], [[], []])
    bad_b, bad_p = adequacy_report(t)
    assert bad_b == [0, 1, 2]
    assert bad_p == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

EXAMPLE_TEXT = """indices 3
formulas 3
family quorum 2
g1 0 : 0 1 2
g1 1 : 0 1
g1 2 : 2
g2 0 : 0-1 1-2
g2 1 : 0-1
g2 2 :
"""


def test_parse_format_round_trip_exact():
    t = parse_trace(EXAMPLE_TEXT)
    assert format_trace(t) == EXAMPLE_TEXT
    assert t.g1[2] == {2} and t.g2[2] == frozenset()


def test_format_parse_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        t = random_trace(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        assert parse_trace(format_trace(t)) == t


def test_format_explicit_family_and_instance():
    fam = CoveringFamily.explicit(2, [[0], [1]])
    inst = LosInstance(2, [{0, 1}, {0}], [[(0, 1)], []])
    t = Trace(fam, 2, [{0, 1}, {0}], [[(0, 1)], []], inst)
    text = format_trace(t)
    assert "family explicit\nmember 0\nmember 1\n" in text
    assert "k1 0 : 0 1" in text and "k2 0 : 0-1" in text
    assert parse_trace(text) == t


def test_parse_principal_family():
    t = parse_trace("indices 2\nformulas 1\nfamily principal 1\n"
                    "g1 0 :\ng1 1 : 0\ng2 0 :\ng2 1 :\n")
    assert t.family == CoveringFamily.principal(2, [1])


def test_parse_missing_rows_default_empty():
    t = parse_trace("indices 2\nformulas 2\nfamily quorum 1\ng1 0 : 0\n")
    assert t.g1 == (frozenset({0}), frozenset())
    assert t.g2 == (frozenset(), frozenset())


@pytest.mark.parametrize("text", [
    "formulas 2\nfamily quorum 1\n",
    "indices 2\nfamily quorum 1\n",
    "indices 2\nformulas 2\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 0 0\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 0 : 0\ng1 0 : 1\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 2 : 0\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng2 0 : 0,1\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng2 0 : 0-1\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng3 0 : 0\n",
    "indices 2\nformulas 2\nfamily quorum 1\nmember 0\n",
    "indices 2\nformulas 2\nfamily quorum one\n",
    "indices 2\nformulas 2\nfamily explicit\n",
    "indices 2\nformulas 2\nfamily quorum 1\nindices 2\n",
    "indices 2\nformulas 2\nfamily quorum 1\nk1 0 : 0\nk2 1 : 0-1\n",
    # number tokens are an optional "-" and ASCII digits
    "indices \u0662\nformulas 2\nfamily quorum 1\n",
    "indices 2\nformulas +2\nfamily quorum 1\n",
    "indices 2\nformulas 2\nfamily quorum 1_0\n",
    "indices 2\nformulas 2\nfamily principal \u0660\n",
    "indices 2\nformulas 2\nfamily explicit\nmember +0\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 +0 : 0\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 0 : 0 \u0661\n",
    "indices 2\nformulas 2\nfamily quorum 1\ng1 0 : 0 1\ng2 0 : 0-+1\n",
    "indices 0\nformulas 2\nfamily quorum 1\n",
    "indices 2\nformulas 2\nfamily principal 0\nmember 1\n",
    "indices 2\nformulas 2\nfamily explicit x\n",
    "indices 2\nformulas 2\nfamily bogus 1\n",
    "indices 2\nformulas 2\nfamily\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_trace(text)


def test_negative_formula_counts_are_refused():
    # a trace or an instance on a negative number of formulas is malformed
    with pytest.raises(InputError, match="formula count must be nonnegative"):
        parse_trace("indices 1\nformulas -1\nfamily principal 0\n")
    with pytest.raises(InputError):
        Trace(CoveringFamily.quorum(1, 1), -1, [set()], [[]])
    with pytest.raises(InputError):
        LosInstance(-2, [], [])


def test_parse_reports_the_first_fault_in_row_order():
    # rows are checked as they are parsed, the instance first: k1, k2,
    # then g1, g2, then the domination of the trace by the instance; a
    # vertex row is read whole before its values are checked
    head = "indices 2\nformulas 3\nfamily quorum 1\n"
    for rows, want in [
            ("g1 0 : 0 5\ng2 0 : 0x1\n", "g1 entry element 5 out of range 0..2"),
            ("g1 0 : 5 x\n", "malformed number 'x' in 'x'"),
            ("g1 0 : 0\ng2 0 : 0-1\nk1 0 : 0\nk2 0 : 0-2\n",
             "k2 pair (0, 2) outside k1 at index 0"),
            ("g1 0 : x\nk1 0 : 9\n", "k1 entry element 9 out of range 0..2"),
            ("g1 0 : 1\nk1 0 : 0\n", "g1 exceeds the instance k1 at index 0")]:
        with pytest.raises(InputError) as err:
            parse_trace(head + rows)
        assert str(err.value) == want


def test_parse_comments_and_blank_lines():
    t = parse_trace("# example\nindices 1\n\nformulas 1\nfamily quorum 1\n"
                    "g1 0 : 0\n")
    assert t.g1 == (frozenset({0}),)


def test_parse_instance_lines_build_instance():
    text = ("indices 1\nformulas 2\nfamily quorum 1\n"
            "g1 0 : 0 1\ng2 0 : 0-1\nk1 0 : 0 1\nk2 0 : 0-1\n")
    t = parse_trace(text)
    assert t.instance == LosInstance(2, [{0, 1}], [[(0, 1)]])
    assert format_trace(t) == text


def test_parse_rejects_trace_exceeding_instance():
    with pytest.raises(InputError):
        parse_trace("indices 1\nformulas 2\nfamily quorum 1\n"
                    "g1 0 : 0 1\ng2 0 : 0-1\nk1 0 : 0 1\nk2 0 :\n")


# ---------------------------------------------------------------------------
# full distributions and level maps
# ---------------------------------------------------------------------------

def test_full_distribution_requires_complete_keys():
    mp = {s: frozenset() for s in all_subsets(2)}
    FullDistribution(2, 1, mp)
    short = dict(mp)
    del short[frozenset({0})]
    with pytest.raises(InputError):
        FullDistribution(2, 1, short)
    extra = dict(mp)
    extra[frozenset({5})] = frozenset()
    with pytest.raises(InputError):
        FullDistribution(2, 1, extra)
    bad = dict(mp)
    bad[frozenset()] = frozenset({3})
    with pytest.raises(InputError):
        FullDistribution(2, 1, bad)


def test_full_distribution_cap():
    with pytest.raises(CapabilityError):
        FullDistribution(13, 1, {})


def test_conjugate_round_trip_bulk():
    rng = random.Random(2026)
    for _ in range(1000):
        nb = rng.randrange(1, 5)
        ni = rng.randrange(1, 6)
        f = random_monotone(rng, nb, ni)
        assert distribution_from_conjugate(conjugate(f)) == f


def test_conjugate_levels_shape():
    rng = random.Random(3)
    f = random_monotone(rng, 3, 4)
    levels = conjugate(f)
    assert len(levels) == 4
    for n, lv in enumerate(levels):
        assert len(lv) == 4
        for entry in lv:
            assert all(len(d) == n for d in entry)


def test_from_conjugate_reports_hereditary_violation():
    levels = [
        (frozenset({frozenset()}),),
        (frozenset(),),
        (frozenset({frozenset({0, 1})}),),
    ]
    with pytest.raises(InputError) as err:
        distribution_from_conjugate(levels)
    msg = str(err.value)
    assert "index 0" in msg and "level 1" in msg and "[0, 1]" in msg


def conjugate_report(rebuild, levels):
    try:
        return rebuild(levels)
    except InputError as err:
        return str(err)


def test_from_conjugate_reports_like_the_all_subsets_scan():
    # toggling random sets in and out of the levels breaks heredity (and
    # sometimes a level's set size); the one-smaller check must rebuild
    # or report exactly what the scan over all subsets did
    rng = random.Random(83)
    broken = 0
    for _ in range(400):
        nb = rng.randrange(1, 6)
        f = random_monotone(rng, nb, rng.randrange(1, 4))
        levels = [list(lv) for lv in conjugate(f)]
        for _ in range(rng.randrange(1, 4)):
            d = frozenset(rng.sample(range(nb), rng.randrange(nb + 1)))
            n = len(d) if rng.random() < 0.9 else rng.randrange(nb + 1)
            a = rng.randrange(f.n_indices)
            levels[n][a] = levels[n][a] ^ {d}
        levels = [tuple(lv) for lv in levels]
        got = conjugate_report(distribution_from_conjugate, levels)
        assert got == conjugate_report(all_subsets_from_conjugate, levels)
        broken += isinstance(got, str)
    assert 100 < broken < 400


def test_from_conjugate_rejects_formulas_outside_the_range():
    # one formula: the set {7} names a formula that does not exist
    levels = [(frozenset({frozenset()}),),
              (frozenset({frozenset({7}), frozenset({0})}),)]
    with pytest.raises(InputError) as err:
        distribution_from_conjugate(levels)
    assert str(err.value) == (
        "level 1 set at index 0: element 7 out of range 0..0")


def test_from_conjugate_rejects_wrong_level_size():
    levels = [
        (frozenset({frozenset({0})}),),
        (frozenset(),),
    ]
    with pytest.raises(InputError):
        distribution_from_conjugate(levels)


def test_extension_levels_reproduce_trace():
    rng = random.Random(17)
    for _ in range(40):
        t = random_trace(rng, rng.randrange(1, 4), rng.randrange(2, 5))
        levels = graphlike_extension(t)
        for a in range(t.n_indices):
            assert levels[0][a] == {frozenset()}
            assert levels[1][a] == {frozenset({b}) for b in t.g1[a]}
            assert levels[2][a] == {frozenset(p) for p in t.g2[a]}


def test_extension_distribution_counts_cliques():
    fam = CoveringFamily.quorum(2, 1)
    t = Trace(fam, 3,
              [{0, 1, 2}, {0, 1, 2}],
              [[(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)]])
    f = extension_distribution(t)
    assert f.at({0, 1, 2}) == {0}
    assert f.at({0, 1}) == {0, 1}
    assert f.at({0, 2}) == {0}
    assert f.at(()) == {0, 1}


# ---------------------------------------------------------------------------
# property report
# ---------------------------------------------------------------------------

def test_properties_random_monotone():
    rng = random.Random(23)
    for _ in range(120):
        f = random_monotone(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        rep = check_properties(f)
        assert rep.monotone and "monotone" not in rep.witnesses


def test_properties_monotone_witness():
    mp = {s: frozenset() for s in all_subsets(2)}
    mp[frozenset({0, 1})] = frozenset({0})
    f = FullDistribution(2, 1, mp)
    rep = check_properties(f)
    assert not rep.monotone
    small, big = rep.witnesses["monotone"]
    assert small < big and not f.at(big) <= f.at(small)


def test_properties_extension_always_graph_like():
    rng = random.Random(29)
    for _ in range(80):
        t = random_trace(rng, rng.randrange(1, 4), rng.randrange(1, 5))
        rep = check_properties(extension_distribution(t))
        assert rep.monotone and rep.graph_like


def test_graph_like_means_determined_by_trace():
    rng = random.Random(31)
    seen = 0
    for _ in range(400):
        f = random_monotone(rng, rng.randrange(2, 5), rng.randrange(1, 4))
        if not check_properties(f).graph_like:
            continue
        seen += 1
        fam = CoveringFamily.quorum(f.n_indices, 1)
        g1 = [frozenset(b for b in range(f.n_formulas)
                        if a in f.at({b}))
              for a in range(f.n_indices)]
        g2 = [[p for p in combinations(range(f.n_formulas), 2)
               if a in f.at(p) and p[0] in g1[a] and p[1] in g1[a]]
              for a in range(f.n_indices)]
        t = Trace(fam, f.n_formulas, g1, g2)
        f2 = extension_distribution(t)
        for d in all_subsets(f.n_formulas):
            if len(d) >= 1:
                assert f2.at(d) == f.at(d)
    assert seen >= 10


def test_multiplicative_implies_graph_like():
    rng = random.Random(37)
    for _ in range(300):
        f = random_monotone(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        rep = check_properties(f)
        if rep.multiplicative:
            assert rep.graph_like
        if rep.multiplicative:
            assert rep.pairwise_splitting


def test_multiplicative_iff_graph_like_and_splitting():
    rng = random.Random(41)
    checked = 0
    for _ in range(400):
        if rng.random() < 0.5:
            f = random_monotone(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        else:
            t = random_trace(rng, rng.randrange(1, 4), rng.randrange(1, 5))
            f = extension_distribution(t)
        rep = check_properties(f)
        if rep.graph_like:
            checked += 1
            assert rep.multiplicative == rep.pairwise_splitting
    assert checked >= 50


def random_full(rng, n_formulas, n_indices):
    """A full distribution that is multiplicative by construction, then,
    most of the time, has one value (or every value) redrawn."""
    def draw():
        return frozenset(a for a in range(n_indices) if rng.random() < 0.7)

    subs = all_subsets(n_formulas)
    empty = draw()
    single = {b: draw() & empty for b in range(n_formulas)}
    mp = {}
    for d in subs:
        acc = empty
        for b in d:
            acc &= single[b]
        mp[d] = acc
    roll = rng.random()
    if roll < 0.5:
        mp[rng.choice(subs)] = draw()
    elif roll < 0.7:
        mp = {d: draw() for d in subs}
    return FullDistribution(n_formulas, n_indices, mp)


def test_properties_match_pairwise_oracle_on_random_distributions():
    rng = random.Random(43)
    verdicts = set()
    for _ in range(400):
        f = random_full(rng, rng.randrange(0, 7), rng.randrange(1, 5))
        rep = check_properties(f)
        assert report_fields(rep) == report_fields(pairwise_check_properties(f))
        verdicts.add(rep.multiplicative)
        if not rep.multiplicative:
            d, e = rep.witnesses["multiplicative"]
            assert f.at(d | e) != f.at(d) & f.at(e) and len(d) <= 1
    assert verdicts == {True, False}


def test_properties_match_pairwise_oracle_on_bench_traces(tmp_path_factory):
    lib = [t for kinds, t in bench_traces(tmp_path_factory) if "lib" in kinds]
    assert len(lib) == 120
    verdicts = set()
    for t in lib:
        f = extension_distribution(t)
        rep = check_properties(f)
        assert report_fields(rep) == report_fields(pairwise_check_properties(f))
        verdicts.add(rep.multiplicative)
    assert verdicts == {True, False}


def test_refines_los_with_instance():
    fam = CoveringFamily.quorum(2, 1)
    inst = LosInstance(3, [{0, 1, 2}, {0, 1}], [pairs_of({0, 1, 2}), [(0, 1)]])
    t = Trace(fam, 3, [{0, 1, 2}, {0, 1}],
              [[(0, 1), (1, 2)], [(0, 1)]], inst)
    f = extension_distribution(t)
    rep = check_properties(f, inst)
    assert rep.refines_los is True
    mp = dict(f.map)
    mp[frozenset({1, 2})] = mp[frozenset({1, 2})] | {1}
    tampered = FullDistribution(3, 2, mp)
    rep2 = check_properties(tampered, inst)
    assert rep2.refines_los is False
    assert rep2.witnesses["refines_los"] == (frozenset({1, 2}), 1)


def test_refines_los_absent_without_instance():
    f = random_monotone(random.Random(1), 3, 2)
    assert check_properties(f).refines_los is None


def random_instance(rng, n_indices, n_formulas):
    k1 = [{b for b in range(n_formulas) if rng.random() < 0.8}
          for _ in range(n_indices)]
    k2 = [[p for p in pairs_of(vs) if rng.random() < 0.8] for vs in k1]
    return LosInstance(n_formulas, k1, k2)


def random_dominated_trace(rng, n_indices, n_formulas):
    """A trace under a random family kind with an instance above it."""
    inst = random_instance(rng, n_indices, n_formulas)
    g1 = [{b for b in k if rng.random() < 0.8} for k in inst.k1]
    g2 = [[p for p in k if set(p) <= vs and rng.random() < 0.7]
          for k, vs in zip(inst.k2, g1)]
    return Trace(random_family(rng, n_indices), n_formulas, g1, g2, inst)


def test_extension_and_properties_match_the_frozenset_oracles():
    rng = random.Random(1507)
    kinds = set()
    for i in range(240):
        nb = i % 10
        t = random_dominated_trace(rng, rng.randrange(1, 6), nb)
        kinds.add(t.family.kind)
        f = extension_distribution(t)
        want = frozenset_extension(t)
        assert f.map == want
        for d in all_subsets(nb):
            assert f.at(d) == want[d]
        instance = t.instance if i % 2 else None
        assert (report_fields(check_properties(f, instance))
                == report_fields(frozenset_check_properties(want, instance)))
    assert kinds == {"quorum", "principal", "explicit"}


def test_properties_match_the_frozenset_oracle_on_broken_distributions():
    # random distributions, most of them monotone or multiplicative with
    # one value redrawn, under random instances: every property fails
    # somewhere, so every witness kind is compared
    rng = random.Random(1508)
    hit = set()
    for i in range(600):
        nb, ni = rng.randrange(0, 7), rng.randrange(1, 5)
        if i % 3 == 0:
            f = random_monotone(rng, nb, ni)
        else:
            f = random_full(rng, nb, ni)
        if i % 5 == 0:
            mp = f.map
            mp[rng.choice(all_subsets(nb))] = frozenset(range(ni))
            f = FullDistribution(nb, ni, mp)
        instance = random_instance(rng, ni, nb) if i % 2 else None
        rep = check_properties(f, instance)
        assert (report_fields(rep)
                == report_fields(frozenset_check_properties(f, instance)))
        hit.update(rep.witnesses)
    assert hit == {"monotone", "graph_like", "multiplicative",
                   "pairwise_splitting", "refines_los"}


def test_trace_routines_match_the_frozenset_oracles():
    # random traces with at most 8 formulas and 6 indices, under every
    # family kind, with and without an instance: the routines on bitmask
    # rows give the results and witnesses of their frozenset versions
    rng = random.Random(1616)
    seen = set()
    outcomes = set()
    for i in range(360):
        nb, ni = rng.randrange(0, 9), rng.randrange(1, 7)
        if i % 2:
            t = random_dominated_trace(rng, ni, nb)
        else:
            t = random_trace(rng, ni, nb, p_edge=rng.choice((0.6, 0.95)))
        seen.add((t.family.kind, t.instance is not None))
        assert graph_sequence(t) == frozenset_graph_sequence(t)
        multiplicative = is_multiplicative_trace(t)
        assert multiplicative == frozenset_is_multiplicative_trace(t)
        assert adequacy_report(t) == frozenset_adequacy_report(t)
        assert is_pair_adequate(t) == (not any(frozenset_adequacy_report(t)))
        found = find_multiplicative_refinement(t)
        assert found == frozenset_multiplicative_refinement(t)
        assert found == recursive_multiplicative_refinement(t)
        outcomes.add((multiplicative, found is None))
        for a in range(ni):
            seed = {b for b in t.g1[a] if rng.random() < 0.3}
            assert (_grow_clique(t, a, seed)
                    == frozenset_grow_clique(t, a, seed))
        f = extension_distribution(t)
        assert conjugate(f) == frozenset_conjugate(f)
    assert seen == {(kind, inst) for kind in ("quorum", "principal", "explicit")
                    for inst in (False, True)}
    assert {(True, False), (False, False), (False, True)} <= outcomes


def test_refines_los_needs_an_instance_of_the_same_dimensions():
    f = random_monotone(random.Random(2), 3, 2)
    with pytest.raises(InputError):
        check_properties(f, random_instance(random.Random(3), 3, 3))


# ---------------------------------------------------------------------------
# graph sequences
# ---------------------------------------------------------------------------

def test_graph_sequence_round_trip():
    fam = CoveringFamily.quorum(2, 1)
    t = Trace(fam, 4,
              [{0, 1, 3}, {0, 2}],
              [[(0, 1)], []])
    seq = graph_sequence(t)
    assert seq[0][0] == (0, 1, 3)
    assert seq[1][1].edges() == []
    back = from_graph_sequence(fam, 4, seq, require_adequate=False)
    assert back == t


def test_graph_sequence_keeps_isolated_vertices():
    fam = CoveringFamily.quorum(1, 1)
    t = Trace(fam, 3, [{2}], [[]])
    back = from_graph_sequence(fam, 3, graph_sequence(t),
                               require_adequate=False)
    assert back.g1[0] == {2}


def test_from_graph_sequence_checks_adequacy():
    fam = CoveringFamily.quorum(2, 2)
    t = Trace(fam, 2, [{0, 1}, {0}], [[(0, 1)], []])
    with pytest.raises(ConsistencyError):
        from_graph_sequence(fam, 2, graph_sequence(t))
    ok = Trace(fam, 2, [{0, 1}, {0, 1}], [[(0, 1)], [(0, 1)]])
    assert from_graph_sequence(fam, 2, graph_sequence(ok)) == ok


def test_from_graph_sequence_rejects_bad_size():
    fam = CoveringFamily.quorum(1, 1)
    with pytest.raises(InputError):
        from_graph_sequence(fam, 3, [((0,), Graph(2, []))],
                            require_adequate=False)


# ---------------------------------------------------------------------------
# refinement relation, multiplicative traces, restriction
# ---------------------------------------------------------------------------

def test_is_refinement_basic():
    fam = CoveringFamily.quorum(2, 1)
    big = Trace(fam, 2, [{0, 1}, {0, 1}], [[(0, 1)], [(0, 1)]])
    small = Trace(fam, 2, [{0, 1}, {0}], [[(0, 1)], []])
    assert is_refinement(small, big)
    assert is_refinement(big, big)
    assert not is_refinement(big, small)


def test_is_refinement_requires_adequacy():
    fam = CoveringFamily.quorum(2, 2)
    big = Trace(fam, 2, [{0, 1}, {0, 1}], [[(0, 1)], [(0, 1)]])
    small = Trace(fam, 2, [{0, 1}, {0}], [[(0, 1)], []])
    assert not is_refinement(small, big)


def test_is_refinement_frame_mismatch():
    t1 = Trace(CoveringFamily.quorum(2, 1), 2, [set()] * 2, [[]] * 2)
    t2 = Trace(CoveringFamily.quorum(2, 2), 2, [set()] * 2, [[]] * 2)
    with pytest.raises(InputError):
        is_refinement(t1, t2)
    t3 = Trace(CoveringFamily.quorum(2, 1), 3, [set()] * 2, [[]] * 2)
    with pytest.raises(InputError):
        is_refinement(t1, t3)


def test_is_multiplicative_trace():
    fam = CoveringFamily.quorum(2, 1)
    assert is_multiplicative_trace(
        Trace(fam, 3, [{0, 1}, set()], [[(0, 1)], []]))
    assert not is_multiplicative_trace(
        Trace(fam, 3, [{0, 1}, {0, 2}], [[(0, 1)], []]))


def test_multiplicative_trace_iff_extension_multiplicative():
    fam = CoveringFamily.quorum(2, 1)
    graphs = []
    for vs_bits in range(8):
        vs = {b for b in range(3) if vs_bits >> b & 1}
        ps = pairs_of(vs)
        for es_bits in range(1 << len(ps)):
            es = [p for i, p in enumerate(ps) if es_bits >> i & 1]
            graphs.append((vs, es))
    assert len(graphs) == 18
    for (v1, e1), (v2, e2) in product(graphs, repeat=2):
        t = Trace(fam, 3, [v1, v2], [e1, e2])
        rep = check_properties(extension_distribution(t))
        assert is_multiplicative_trace(t) == rep.multiplicative


def test_essential_range_and_restrict():
    fam = CoveringFamily.principal(3, [0, 1])
    t = Trace(fam, 2, [{0, 1}, {0}, set()], [[(0, 1)], [], []])
    assert essential_range(t) == {0, 1}
    r = restrict(t)
    assert r.n_indices == 2
    assert r.family == CoveringFamily.principal(2, [0, 1])
    assert r.g1 == (frozenset({0, 1}), frozenset({0}))
    assert r.g2 == (frozenset({(0, 1)}), frozenset())


def test_restrict_requires_essential_member():
    fam = CoveringFamily.quorum(3, 2)
    t = Trace(fam, 2, [{0}, set(), set()], [[], [], []])
    with pytest.raises(ConsistencyError):
        essential_range(t)
    with pytest.raises(ConsistencyError):
        restrict(t)


def test_restrict_carries_instance():
    fam = CoveringFamily.quorum(3, 2)
    inst = LosInstance(2, [{0, 1}] * 3, [[(0, 1)]] * 3)
    t = Trace(fam, 2, [{0}, set(), {0, 1}], [[], [], [(0, 1)]], inst)
    r = restrict(t)
    assert r.n_indices == 2
    assert r.instance.k1 == (frozenset({0, 1}),) * 2
    assert r.family == CoveringFamily.quorum(2, 1)


def test_restrict_of_degenerate_quorum_errors():
    fam = CoveringFamily.quorum(4, 2)
    t = Trace(fam, 1, [{0}, {0}, set(), set()], [[], [], [], []])
    with pytest.raises(ConsistencyError):
        restrict(t)


# ---------------------------------------------------------------------------
# multiplicative refinement search
# ---------------------------------------------------------------------------

def brute_refinement_exists(t):
    per_index = []
    for a in range(t.n_indices):
        cliques = []
        vs = sorted(t.g1[a])
        for size in range(len(vs) + 1):
            for c in combinations(vs, size):
                if all((u, v) in t.g2[a] for u, v in combinations(c, 2)):
                    cliques.append(set(c))
        per_index.append(cliques)
    formulas = range(t.n_formulas)
    for pick in product(*per_index):
        ok = True
        for b in formulas:
            if not t.family.is_member({a for a, k in enumerate(pick) if b in k}):
                ok = False
                break
        if ok:
            for p in combinations(formulas, 2):
                sup = {a for a, k in enumerate(pick)
                       if p[0] in k and p[1] in k}
                if not t.family.is_member(sup):
                    ok = False
                    break
        if ok:
            return True
    return False


def test_refinement_matches_brute_oracle():
    rng = random.Random(47)
    found = 0
    missing = 0
    for _ in range(150):
        t = random_trace(rng, rng.randrange(1, 5), rng.randrange(1, 5),
                         p_vertex=0.8, p_edge=0.55)
        got = find_multiplicative_refinement(t)
        assert (got is not None) == brute_refinement_exists(t)
        if got is None:
            missing += 1
        else:
            found += 1
            assert is_multiplicative_trace(got)
            assert is_refinement(got, t)
    assert found >= 20 and missing >= 20


def test_refinement_matches_recursive_oracle_on_bench_traces(
        tmp_path_factory):
    # every trace of the rounds: those the bench refines (principal,
    # planted and the quorum counterexample) and the rest
    traces = bench_traces(tmp_path_factory)
    refined = [t for kinds, t in traces if "trace-refine" in kinds]
    assert len(refined) >= 5 * (1 + 4)
    found = uncovered = 0
    for _, t in traces:
        got = find_multiplicative_refinement(t)
        assert got == recursive_multiplicative_refinement(t)
        assert got == frozenset_multiplicative_refinement(t)
        found += got is not None
        # pairs in no g2, which the search refuses before it starts
        nb = t.n_formulas
        uncovered += len(set().union(*t.g2)) < nb * (nb - 1) // 2
    assert 0 < found < len(traces)
    assert 0 < uncovered < len(traces)


def test_refinement_refuses_uncoverable_traces_before_searching(
        monkeypatch):
    # random traces with at most 8 formulas, adequate or not: the answer
    # is the recursive search's, and a trace whose formulas or pairs
    # cannot be covered by a family member is refused before any clique
    # is enumerated
    import ugl.refinement
    searched = []
    choices = ugl.refinement._clique_choices
    monkeypatch.setattr(ugl.refinement, "_clique_choices",
                        lambda t, a: searched.append(a) or choices(t, a))
    rng = random.Random(2626)
    outcomes = set()
    for _ in range(400):
        t = random_trace(rng, rng.randrange(1, 6), rng.randrange(0, 9),
                         p_vertex=rng.choice((0.7, 1.0)),
                         p_edge=rng.choice((0.6, 0.9)))
        del searched[:]
        got = find_multiplicative_refinement(t)
        assert got == recursive_multiplicative_refinement(t)
        adequate = not any(adequacy_report(t))
        assert bool(searched) == adequate
        outcomes.add((adequate, got is None))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_refinement_search_depth_is_not_bounded_by_recursion():
    # deeper than the default recursion limit of 1000
    n = 1200
    fam = CoveringFamily.quorum(n, 1)
    assert find_multiplicative_refinement(
        Trace(fam, 2, [set()] * n, [[]] * n)) is None
    t = Trace(fam, 2, [{0, 1}] * n, [[(0, 1)]] * n)
    assert find_multiplicative_refinement(t) == t


def test_maximal_cliques_match_the_recursive_oracle(tmp_path_factory):
    # every graph with at most 7 vertices (one per class), whole and
    # without each vertex, and every index graph of the bench traces
    cases = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            full = (1 << n) - 1
            for within in [None] + [full & ~(1 << v) for v in range(n)]:
                assert (enumerate_maximal_cliques(g, within)
                        == recursive_maximal_cliques(g, within)), (g, within)
                cases += 1
    for _, t in bench_traces(tmp_path_factory):
        for mask, rows in zip(t.g1_masks, t.g2_rows):
            g = Graph._from_rows(t.n_formulas, rows)
            assert (enumerate_maximal_cliques(g, mask)
                    == recursive_maximal_cliques(g, mask)), (t, mask)
            cases += 1
    assert cases > 8000


def test_maximal_cliques_are_not_bounded_by_recursion():
    # a clique deeper than the default recursion limit of 1000, which
    # the recursive form could not expand
    n = 1200
    whole = (1 << n) - 1
    g = Graph._from_rows(n, [whole & ~(1 << v) for v in range(n)])
    assert enumerate_maximal_cliques(g) == [tuple(range(n))]
    t = Trace(CoveringFamily.quorum(1, 1), n, [range(n)],
              [combinations(range(n), 2)])
    assert find_multiplicative_refinement(t) == t


def test_refinement_result_is_lex_least():
    fam = CoveringFamily.quorum(2, 1)
    full = pairs_of({0, 1, 2})
    t = Trace(fam, 3, [{0, 1, 2}] * 2, [full, full])
    r = find_multiplicative_refinement(t)
    assert [sorted(s) for s in r.g1] == [[0, 1, 2], [0, 1, 2]]


def test_refinement_quorum_counterexample():
    fam = CoveringFamily.quorum(3, 2)
    full = pairs_of({0, 1, 2})
    t = Trace(fam, 3, [{0, 1, 2}] * 3,
              [[(0, 2), (1, 2)], [(0, 1), (0, 2)], full])
    assert is_pair_adequate(t)
    assert find_multiplicative_refinement(t) is None


def test_refinement_quorum_counterexample_relaxed_variant():
    fam = CoveringFamily.quorum(3, 2)
    full = pairs_of({0, 1, 2})
    t = Trace(fam, 3, [{0, 1, 2}] * 3,
              [full, [(0, 1), (0, 2)], full])
    r = find_multiplicative_refinement(t)
    assert r is not None
    assert [sorted(s) for s in r.g1] == [[0, 1, 2], [0, 1], [0, 1, 2]]


def test_refinement_principal_always_exists_when_adequate():
    # over a principal family, pair-adequacy forces every generator
    # index to carry the complete graph on all formulas, so the search
    # must always succeed
    rng = random.Random(53)
    found = 0
    for _ in range(150):
        n = rng.randrange(1, 5)
        gen = rng.sample(range(n), rng.randrange(1, n + 1))
        fam = CoveringFamily.principal(n, gen)
        t = random_trace(rng, n, rng.randrange(1, 4), family=fam)
        if not is_pair_adequate(t):
            continue
        found += 1
        assert find_multiplicative_refinement(t) is not None
    assert found >= 10


def test_refinement_keeps_instance():
    fam = CoveringFamily.quorum(1, 1)
    inst = LosInstance(2, [{0, 1}], [[(0, 1)]])
    t = Trace(fam, 2, [{0, 1}], [[(0, 1)]], inst)
    r = find_multiplicative_refinement(t)
    assert r is not None and r.instance == inst


# ---------------------------------------------------------------------------
# chain condition and catalog conditions
# ---------------------------------------------------------------------------

def trace_of_graph(g, n_indices=1):
    fam = CoveringFamily.quorum(n_indices, 1)
    return Trace(fam, g.n, [set(range(g.n))] * n_indices,
                 [g.edges()] * n_indices)


def test_sop2_small_formula_sets_vacuous():
    t = random_trace(random.Random(3), 2, 3)
    assert check_sop2_condition(t) is None


def test_sop2_iff_no_induced_four_chain_exhaustive():
    for bits in range(64):
        g = Graph(4, [p for i, p in enumerate(pairs_of(range(4)))
                      if bits >> i & 1])
        t = trace_of_graph(g)
        got = check_sop2_condition(t)
        assert (got is None) == (recognize(TREE, g) is None)
        if got is not None:
            (x0, x1, x2, x3), a = got
            assert a == 0
            assert g.has_edge(x0, x1) and g.has_edge(x1, x2) and g.has_edge(x2, x3)
            assert not g.has_edge(x0, x2) and not g.has_edge(x1, x3)


def test_sop2_on_distribution_matches_trace():
    rng = random.Random(59)
    for _ in range(40):
        t = random_trace(rng, rng.randrange(1, 4), 4)
        f = extension_distribution(t)
        assert (check_sop2_condition(t) is None) == \
            (check_sop2_condition(f) is None)


def test_sop2_multi_index_witness():
    g_good = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    g_bad = Graph(4, [(0, 1), (1, 2), (2, 3)])
    fam = CoveringFamily.quorum(2, 1)
    t = Trace(fam, 4, [set(range(4))] * 2,
              [g_good.edges(), g_bad.edges()])
    got = check_sop2_condition(t)
    assert got is not None and got[1] == 1


def test_necessary_conditions_iff_per_index_membership():
    rng = random.Random(61)
    for shape in (TREE, INTERVAL):
        hits = 0
        clears = 0
        for _ in range(60):
            t = random_trace(rng, rng.randrange(1, 4), rng.randrange(4, 7),
                             p_edge=0.5)
            members = all(recognize(shape, induced_on_g1(t, a)) is None
                          for a in range(t.n_indices))
            got = check_necessary_conditions(t, shape)
            assert (got is None) == members
            if got is None:
                clears += 1
            else:
                hits += 1
        assert hits >= 5 and clears >= 5


def test_necessary_conditions_witness_structure():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    t = trace_of_graph(g, 2)
    token, placement, alpha = check_necessary_conditions(t, INTERVAL)
    assert token == "III(4)"
    assert alpha == 0
    assert sorted(placement) == [0, 1, 2, 3]
    assert check_necessary_conditions(t, TREE) is not None


def test_necessary_conditions_skip_oversized_families():
    t = random_trace(random.Random(67), 2, 3)
    assert check_necessary_conditions(t, INTERVAL) is None


def test_necessary_conditions_bad_shape():
    t = random_trace(random.Random(71), 1, 3)
    with pytest.raises(InputError):
        check_necessary_conditions(t, "chordal")


# ---------------------------------------------------------------------------
# trace conditions against the permutation-sweep oracle
# ---------------------------------------------------------------------------

CHAIN = Graph(4, [(0, 1), (1, 2), (2, 3)])


def oracle_necessary(source, shape):
    for kind, param in shape_families(shape, source.n_formulas):
        _, host, ns = family_necessary_set(kind, param)
        got = brute_pattern_violation(source, host, ns.edges)
        if got is not None:
            return (family_str(kind, param),) + got
    return None


def assert_conditions_match_oracle(source):
    assert check_sop2_condition(source) == \
        brute_pattern_violation(source, CHAIN, [(0, 2), (1, 3)])
    for shape in (TREE, INTERVAL):
        assert check_necessary_conditions(source, shape) == \
            oracle_necessary(source, shape)


def test_conditions_match_oracle_on_every_small_graph():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert_conditions_match_oracle(trace_of_graph(g))


def test_conditions_match_oracle_on_multi_index_traces():
    rng = random.Random(73)
    witnesses = 0
    for nb in (7, 7, 7, 8, 8):
        for p_vertex in (0.5, 1.0):
            t = random_trace(rng, rng.randrange(2, 5), nb, p_vertex=p_vertex,
                             p_edge=rng.choice((0.3, 0.6, 0.9)))
            assert_conditions_match_oracle(t)
            witnesses += check_necessary_conditions(t, INTERVAL) is not None
    assert 0 < witnesses < 10


def test_conditions_match_oracle_on_full_distributions():
    rng = random.Random(79)
    for _ in range(5):
        t = random_trace(rng, rng.randrange(1, 4), 6)
        assert_conditions_match_oracle(extension_distribution(t))
        assert_conditions_match_oracle(random_monotone(rng, 6, 3))


def test_necessary_conditions_bounded_to_formula_cap():
    t = trace_of_graph(Graph(D.FORMULA_CAP + 1))
    with pytest.raises(CapabilityError):
        check_necessary_conditions(t, INTERVAL)


def test_tree_conditions_answer_above_formula_cap():
    # the tree hosts have four vertices whatever the formula count, so
    # only the interval search is bounded
    nb = D.FORMULA_CAP + 1
    t = trace_of_graph(Graph(nb, [(i, i + 1) for i in range(nb - 1)]))
    got = check_necessary_conditions(t, TREE)
    assert got == oracle_necessary(t, TREE) == ("L4", (0, 1, 2, 3), 0)
