"""Reduced products, internal sets, the constant-tuple embedding."""

import random
from itertools import combinations, product

import pytest

import ugl.ultragraph as U
from ugl.distributions import CoveringFamily, Trace
from ugl.errors import CapabilityError, ConsistencyError, InputError
from ugl.refinement import LosInstance, find_multiplicative_refinement

import oracles
from test_distributions import bench_traces


def principal_trace(graphs, n_formulas, core=None):
    n = len(graphs)
    fam = CoveringFamily.principal(n, core if core is not None else range(n))
    g1 = [set(vs) for vs, _ in graphs]
    g2 = [list(es) for _, es in graphs]
    return Trace(fam, n_formulas, g1, g2)


def pairs_of(vs):
    return list(combinations(sorted(vs), 2))


# ---------------------------------------------------------------------------
# building the product
# ---------------------------------------------------------------------------

def test_build_requires_principal():
    t = Trace(CoveringFamily.quorum(2, 1), 2, [{0, 1}] * 2, [[(0, 1)]] * 2)
    with pytest.raises(CapabilityError):
        U.build(t)
    with pytest.raises(CapabilityError):
        U.clique_transversal_trace(t, {0: (0, 0), 1: (1, 1)})


def test_singleton_core_is_the_index_graph():
    t = principal_trace([({0, 1, 2}, [(0, 1), (1, 2)]), ({0}, [])], 3,
                        core=[0])
    rp = U.build(t)
    assert rp.core == (0,)
    assert rp.size == 3
    g, vs = rp.to_graph()
    assert vs == [(0,), (1,), (2,)]
    assert g.edges() == [(0, 1), (1, 2)]


def test_two_index_product_of_edges():
    t = principal_trace([({0, 1}, [(0, 1)]), ({0, 1}, [(0, 1)])], 2)
    rp = U.build(t)
    assert rp.size == 4
    vs = rp.vertices()
    assert vs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    g, order = rp.to_graph()
    named = {order[u]: u for u in range(4)}
    assert g.edges() == sorted([
        (named[(0, 0)], named[(1, 1)]),
        (named[(0, 1)], named[(1, 0)])])
    assert not rp.has_edge((0, 0), (0, 1))
    assert rp.loop_adjacent((0, 0), (0, 1))


def test_empty_part_gives_empty_product():
    t = principal_trace([({0, 1}, [(0, 1)]), (set(), [])], 2)
    rp = U.build(t)
    assert rp.size == 0
    assert rp.vertices() == []


def test_vertex_count_is_product():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 4)
        graphs = []
        for _ in range(n):
            vs = {b for b in range(4) if rng.random() < 0.7}
            graphs.append((vs, [p for p in pairs_of(vs)
                                if rng.random() < 0.5]))
        t = principal_trace(graphs, 4)
        rp = U.build(t)
        want = 1
        for vs, _ in graphs:
            want *= len(vs)
        assert rp.size == want
        if want:
            assert len(rp.vertices()) == want


def test_edge_count_matches_the_pair_loop(tmp_path_factory):
    # the principal traces of bench seeds 1-5, which the bench sends to
    # ultragraph, and random principal traces with up to 3 indices
    traces = [t for kinds, t in bench_traces(tmp_path_factory)
              if "ultragraph" in kinds]
    assert len(traces) == 60
    rng = random.Random(31)
    for _ in range(300):
        n, nb = rng.randrange(1, 4), rng.randrange(6)
        graphs = []
        for _ in range(n):
            vs = {b for b in range(nb) if rng.random() < 0.8}
            p = rng.choice((0.3, 0.9))
            graphs.append((vs, [e for e in pairs_of(vs) if rng.random() < p]))
        core = rng.sample(range(n), rng.randrange(1, n + 1))
        traces.append(principal_trace(graphs, nb, core))
    counts = set()
    for t in traces:
        rp = U.build(t)
        counts.add(rp.edge_count())
        assert rp.edge_count() == oracles.loop_edge_count(rp)
    assert 0 in counts and max(counts) > 100


def test_check_vertex_errors():
    t = principal_trace([({0, 1}, []), ({0}, [])], 2)
    rp = U.build(t)
    with pytest.raises(InputError):
        rp.check_vertex((0,))
    with pytest.raises(InputError):
        rp.check_vertex((0, 1))
    rp.check_vertex((1, 0))


def test_vertex_tests_take_int_coordinates_only():
    # a coordinate is a vertex only as an int, as in every constructor:
    # 1.0 is refused even where the int 1 is a vertex
    t = principal_trace([({0, 1}, [(0, 1)]), ({0}, [])], 2)
    rp = U.build(t)
    assert rp.loop_adjacent((0, 0), (1, 0))
    for bad in ((1.0, 0), (-1, 0), ("1", 0)):
        with pytest.raises(InputError):
            rp.check_vertex(bad)
    with pytest.raises(InputError):
        U.InternalSet((0, 1), {0: {0, 1.0}, 1: {0}}).is_clique_in(rp)
    inst = LosInstance(2, [{0, 1}], [[(0, 1)]])
    assert inst.is_clique(0, {0, 1})
    assert not inst.is_clique(0, {0, 1.0})
    assert not inst.is_clique(0, {-1})


def test_product_vertex_format():
    assert U.format_product_vertex((2, 0, 1)) == "(2,0,1)"


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_constant_tuples():
    t = principal_trace([({0, 1}, [(0, 1)]), ({0, 1}, [(0, 1)])], 2)
    m = U.eta(t)
    assert m == {0: (0, 0), 1: (1, 1)}
    rp = U.build(t)
    assert rp.has_edge(m[0], m[1])
    assert U.eta_clique_witness(t) is None


def test_eta_single_index_edge():
    t = principal_trace([({0, 1}, [(0, 1)])], 2)
    m = U.eta(t)
    assert m == {0: (0,), 1: (1,)}
    assert U.build(t).has_edge((0,), (1,))


def test_eta_missing_formula_is_consistency_error():
    t = principal_trace([({0, 1}, [(0, 1)]), ({0}, [])], 2)
    with pytest.raises(ConsistencyError) as err:
        U.eta(t)
    assert "formula 1" in str(err.value) and "index 1" in str(err.value)


def test_eta_witness_names_first_missing_edge():
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2})),
                         ({0, 1, 2}, [(0, 1)])], 3)
    assert U.eta_clique_witness(t) == (0, 2, 1)


# ---------------------------------------------------------------------------
# internal sets
# ---------------------------------------------------------------------------

def test_internal_set_denotation_round_trip():
    s = U.InternalSet((0, 2), {0: {0, 1}, 2: {1}})
    assert s.count() == 2
    assert s.tuples() == [(0, 1), (1, 1)]
    assert s.contains((1, 1)) and not s.contains((1, 0))
    assert not s.contains((1,))
    back = U.InternalSet((0, 2), {0: {x[0] for x in s.tuples()},
                                  2: {x[1] for x in s.tuples()}})
    assert back == s


def test_internal_set_text_round_trip():
    s = U.InternalSet((0, 1), {0: {1, 0}, 1: set()})
    text = U.format_internal_set(s)
    assert text == "K 0 : 0 1\nK 1 :\n"
    assert U.parse_internal_set(text) == s


@pytest.mark.parametrize("text", [
    "",
    "K 0 0 1\n",
    "K 0 : 0\nK 0 : 1\n",
    "K x : 0\n",
    "J 0 : 0\n",
])
def test_internal_set_parse_rejects(text):
    with pytest.raises(InputError):
        U.parse_internal_set(text)


def test_internal_set_clique_check():
    t = principal_trace([({0, 1, 2}, [(0, 1)]), ({0, 1}, [(0, 1)])], 3)
    rp = U.build(t)
    assert U.InternalSet((0, 1), {0: {0, 1}, 1: {0, 1}}).is_clique_in(rp)
    assert not U.InternalSet((0, 1), {0: {0, 2}, 1: {0}}).is_clique_in(rp)
    with pytest.raises(InputError):
        U.InternalSet((0,), {0: {0}}).is_clique_in(rp)
    with pytest.raises(InputError):
        U.InternalSet((0, 1), {0: {0, 3}, 1: {0}}).is_clique_in(rp)


def test_internal_clique_iff_quotient_adjacent_tuples():
    rng = random.Random(19)
    for _ in range(40):
        graphs = []
        for _ in range(2):
            vs = {b for b in range(3) if rng.random() < 0.8}
            graphs.append((vs, [p for p in pairs_of(vs)
                                if rng.random() < 0.6]))
        t = principal_trace(graphs, 3)
        rp = U.build(t)
        parts = {a: {v for v in t.g1[a] if rng.random() < 0.7}
                 for a in rp.core}
        s = U.InternalSet(rp.core, parts)
        want = all(rp.loop_adjacent(x, y)
                   for x, y in combinations(s.tuples(), 2))
        assert s.is_clique_in(rp) == want


# ---------------------------------------------------------------------------
# extension to internal cliques
# ---------------------------------------------------------------------------

def test_extend_rejects_incomplete_target():
    t = principal_trace([({0, 1, 2}, [(0, 1), (1, 2)])], 3)
    rp = U.build(t)
    with pytest.raises(InputError):
        U.extend_to_internal_clique(rp, [(0,), (2,)])
    assert U.extend_to_internal_clique(rp, [(0,), (2,)],
                                       require_complete=False) is None


def test_extend_path_pair():
    t = principal_trace([({0, 1, 2}, [(0, 1), (1, 2)])], 3)
    rp = U.build(t)
    s = U.extend_to_internal_clique(rp, [(0,), (1,)])
    assert s.parts[0] == {0, 1}
    assert s.is_clique_in(rp)


def test_extend_grows_to_lex_least_maximal():
    t = principal_trace([({0, 1, 2}, [(0, 1), (0, 2)])], 3)
    rp = U.build(t)
    s = U.extend_to_internal_clique(rp, [(0,)])
    assert s.parts[0] == {0, 1}


def test_extend_full_on_complete_graphs():
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2}))] * 2, 3)
    rp = U.build(t)
    m = U.eta(t)
    s = U.extend_to_internal_clique(rp, list(m.values()))
    assert s.parts[0] == {0, 1, 2} and s.parts[1] == {0, 1, 2}
    for tup in m.values():
        assert s.contains(tup)


def test_extend_allows_shared_coordinates():
    t = principal_trace([({0, 1, 2}, [(0, 1), (1, 2)]),
                         ({0, 1}, [(0, 1)])], 3)
    rp = U.build(t)
    s = U.extend_to_internal_clique(rp, [(0, 0), (0, 1)])
    assert s is not None and s.contains((0, 0)) and s.contains((0, 1))
    assert s.parts[0] == {0, 1}


def all_index_graphs(n_formulas):
    out = []
    for bits in range(1 << n_formulas):
        vs = {b for b in range(n_formulas) if bits >> b & 1}
        ps = pairs_of(vs)
        for ebits in range(1 << len(ps)):
            out.append((vs, [p for i, p in enumerate(ps) if ebits >> i & 1]))
    return out


def test_eta_extension_iff_refinement_exhaustive():
    # the finite-scale equivalence, exhaustively at the stated bounds
    hits = 0
    misses = 0
    for nb in (1, 2, 3):
        per = all_index_graphs(nb)
        for cores in (1, 2):
            for graphs in product(per, repeat=cores):
                t = principal_trace(list(graphs), nb)
                s = U.eta_extension(t)
                r = find_multiplicative_refinement(t)
                assert (s is None) == (r is None)
                if s is None:
                    misses += 1
                else:
                    hits += 1
                    rp = U.build(t)
                    assert s.is_clique_in(rp)
                    for b, tup in U.eta(t).items():
                        assert s.contains(tup)
    # success needs every core graph complete on all formulas, so the
    # positive side is exactly one trace per (formula count, core size)
    assert hits == 6 and misses > 300


# ---------------------------------------------------------------------------
# lifted maps
# ---------------------------------------------------------------------------

def test_lift_identity():
    t = principal_trace([({0, 1}, [(0, 1)]), ({0, 2}, [(0, 2)])], 3)
    rp = U.build(t)
    ident = U.lift_map(rp, rp, {a: {v: v for v in t.g1[a]} for a in rp.core})
    for tup in rp.vertices():
        assert ident.apply(tup) == tup
    s = U.InternalSet(rp.core, {0: {0}, 1: {0, 2}})
    assert ident.image_of(s) == s
    assert ident.preimage_of(s) == s


def test_lift_requires_total_maps():
    t = principal_trace([({0, 1}, [(0, 1)])], 2)
    rp = U.build(t)
    with pytest.raises(InputError):
        U.lift_map(rp, rp, {0: {0: 0}})
    with pytest.raises(InputError):
        U.lift_map(rp, rp, {0: {0: 0, 1: 5}})
    with pytest.raises(InputError):
        U.lift_map(rp, rp, {})


def test_lift_core_containment():
    small = principal_trace([({0, 1}, [(0, 1)])], 2)
    big = principal_trace([({0, 1}, [(0, 1)]), ({0, 1}, [(0, 1)])], 2)
    rps = U.build(small)
    rpb = U.build(big)
    with pytest.raises(InputError):
        U.lift_map(rpb, rps, {0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}})
    lm = U.lift_map(rps, rpb, {0: {0: 1, 1: 0}})
    assert lm.apply((0,)) == (1, 0)
    assert lm.apply((1,)) == (0, 0)


def test_lift_image_and_preimage_match_tuples():
    rng = random.Random(23)
    for _ in range(40):
        graphs = []
        for _ in range(2):
            vs = {b for b in range(3) if rng.random() < 0.8}
            if not vs:
                vs = {0}
            graphs.append((vs, [p for p in pairs_of(vs)
                                if rng.random() < 0.5]))
        t = principal_trace(graphs, 3)
        rp = U.build(t)
        theta = {a: {v: rng.choice(sorted(t.g1[a])) for v in t.g1[a]}
                 for a in rp.core}
        lm = U.lift_map(rp, rp, theta)
        s = U.InternalSet(rp.core,
                          {a: {v for v in t.g1[a] if rng.random() < 0.6}
                           for a in rp.core})
        image = lm.image_of(s)
        want = {lm.apply(x) for x in s.tuples()}
        assert set(image.tuples()) == want
        back = lm.preimage_of(s)
        want_pre = {x for x in rp.vertices() if s.contains(lm.apply(x))}
        assert set(back.tuples()) == want_pre


def test_lift_inclusion_image_is_component_product():
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2})),
                         ({0, 1, 2}, pairs_of({0, 1, 2}))], 3)
    refined = Trace(t.family, 3, [{0, 1}, {1, 2}], [[(0, 1)], [(1, 2)]])
    rp_small = U.build(refined)
    rp_big = U.build(t)
    lm = U.lift_map(rp_small, rp_big,
                    {a: {v: v for v in refined.g1[a]} for a in rp_small.core})
    full = U.InternalSet(rp_small.core, {0: {0, 1}, 1: {1, 2}})
    assert lm.image_of(full) == U.InternalSet(rp_big.core,
                                              {0: {0, 1}, 1: {1, 2}})


def test_lift_constant_map_image_single_vertex():
    t = principal_trace([({0, 1}, [(0, 1)])], 2)
    rp = U.build(t)
    lm = U.lift_map(rp, rp, {0: {0: 1, 1: 1}})
    s = U.InternalSet((0,), {0: {0, 1}})
    assert lm.image_of(s) == U.InternalSet((0,), {0: {1}})


def test_lift_homomorphism_sends_cliques_to_quotient_cliques():
    # collapse a triangle onto an edge: a graph homomorphism
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2}))], 3)
    target = principal_trace([({0, 1}, [(0, 1)])], 2)
    rp = U.build(t)
    rpt = U.build(target)
    lm = U.lift_map(rp, rpt, {0: {0: 0, 1: 1, 2: 0}})
    clique = [(0,), (1,), (2,)]
    assert rp.induces_clique(clique)
    image = [lm.apply(x) for x in clique]
    assert rpt.induces_clique(image, loops=True)


def test_lift_nonedge_preserving_pulls_back_cliques():
    # injective map preserving non-edges: preimages of internal cliques
    # are internal cliques
    src = principal_trace([({0, 1, 2}, [(0, 1)])], 3)
    dst = principal_trace([({0, 1, 2, 3}, [(0, 1), (2, 3)])], 4)
    rp_s = U.build(src)
    rp_d = U.build(dst)
    theta = {0: {0: 0, 1: 1, 2: 3}}
    for u, v in pairs_of({0, 1, 2}):
        if (u, v) not in src.g2[0]:
            a, b = theta[0][u], theta[0][v]
            assert a != b and (min(a, b), max(a, b)) not in dst.g2[0]
    lm = U.lift_map(rp_s, rp_d, theta)
    for part in ({0, 1}, {2, 3}, {0}, {3}, set()):
        s = U.InternalSet((0,), {0: part})
        if s.is_clique_in(rp_d):
            assert lm.preimage_of(s).is_clique_in(rp_s)


def test_lift_preimage_of_missed_fill_is_empty():
    small = principal_trace([({0, 1}, [(0, 1)])], 2)
    big = principal_trace([({0, 1}, [(0, 1)]), ({0, 1}, [(0, 1)])], 2)
    lm = U.lift_map(U.build(small), U.build(big), {0: {0: 0, 1: 1}})
    s = U.InternalSet((0, 1), {0: {0, 1}, 1: {1}})
    assert lm.preimage_of(s).count() == 0


# ---------------------------------------------------------------------------
# transversal traces
# ---------------------------------------------------------------------------

def test_transversal_constant_is_identity():
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2})),
                         ({0, 1}, [(0, 1)])], 3, core=[0])
    h = {b: tuple(b for _ in range(t.n_indices)) for b in range(3)}
    new, theta = U.clique_transversal_trace(t, h)
    assert new == t
    assert theta == {0: {0: 0, 1: 1, 2: 2}}


def test_transversal_swap_relabels_and_keeps_refinement():
    full = pairs_of({0, 1, 2})
    for edges in (full, [(0, 1), (1, 2)]):
        t = principal_trace([({0, 1, 2}, full), ({0, 1, 2}, edges)], 3)
        h = {0: (0, 1), 1: (1, 0), 2: (2, 2)}
        if U.eta_extension(t) is None:
            continue
        new, _ = U.clique_transversal_trace(t, h)
        assert (find_multiplicative_refinement(new) is not None) == \
            (find_multiplicative_refinement(t) is not None)


def test_transversal_single_index_clique():
    # single-index core on a triangle; the non-core index picks up the
    # induced subgraph on the transversal's values there
    t = principal_trace([({0, 1, 2}, pairs_of({0, 1, 2})),
                         ({0, 1, 2}, [(0, 1), (1, 2)])], 3, core=[0])
    h = {0: (1, 0), 1: (2, 1), 2: (0, 2)}
    new, theta = U.clique_transversal_trace(t, h)
    assert new.g1[0] == {0, 1, 2} and new.g2[0] == set(pairs_of({0, 1, 2}))
    assert new.g1[1] == {0, 1, 2} and new.g2[1] == {(0, 1), (1, 2)}
    assert theta == {0: {0: 1, 1: 2, 2: 0}}
    h2 = {0: (1, 0), 1: (2, 1), 2: (0, 5)}
    cut, _ = U.clique_transversal_trace(t, h2)
    assert cut.g1[1] == {0, 1} and cut.g2[1] == {(0, 1)}


def test_transversal_shared_values_become_edges():
    t = principal_trace([({0, 1, 2}, [(0, 1)])], 3)
    h = {0: (0,), 1: (0,), 2: (1,)}
    new, _ = U.clique_transversal_trace(t, h)
    assert new.g2[0] == {(0, 1), (0, 2), (1, 2)}


def test_transversal_precondition_errors():
    t = principal_trace([({0, 1, 2}, [(0, 1), (1, 2)])], 3)
    with pytest.raises(InputError):
        U.clique_transversal_trace(t, {0: (0,), 1: (1,)})
    with pytest.raises(InputError):
        U.clique_transversal_trace(t, {0: (0,), 1: (1,), 2: (0, 1)})
    with pytest.raises(InputError):
        U.clique_transversal_trace(t, {0: (0,), 1: (1,), 2: (5,)})
    with pytest.raises(InputError):
        U.clique_transversal_trace(t, {0: (0,), 1: (1,), 2: (2,)})


def test_transversal_psi_restricts_to_eta_correspondence():
    full = pairs_of({0, 1, 2})
    t = principal_trace([({0, 1, 2}, full), ({0, 1, 2}, full)], 3)
    h = {0: (0, 1), 1: (1, 2), 2: (2, 0)}
    new, theta = U.clique_transversal_trace(t, h)
    psi = U.lift_map(U.build(new), U.build(t), theta)
    me = U.eta(new)
    for b in range(3):
        assert psi.apply(me[b]) == h[b]
    rp_new = U.build(new)
    rp_old = U.build(t)
    for b, c in combinations(range(3), 2):
        assert rp_new.loop_adjacent(me[b], me[c]) == \
            rp_old.loop_adjacent(h[b], h[c])


# ---------------------------------------------------------------------------
# capability bounds
# ---------------------------------------------------------------------------

def test_materialization_cap():
    graphs = [({b for b in range(10)}, pairs_of(range(10)))] * 7
    t = principal_trace(graphs, 10)
    rp = U.build(t)
    assert rp.size == 10 ** 7
    with pytest.raises(CapabilityError):
        rp.vertices()
    m = U.eta(t)
    assert len(m) == 10
    s = U.extend_to_internal_clique(rp, [m[0], m[1]])
    assert s is not None
    with pytest.raises(CapabilityError):
        s.tuples()
