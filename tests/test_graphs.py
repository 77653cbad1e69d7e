import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugl.embeddings import Embedding, iter_embeddings
from ugl.errors import CapabilityError, InputError
from ugl.graphs import (EDGES_ONLY, GRAPH_VERTEX_CAP, INDUCED, Graph,
                        find_embedding, format_graph, parse_graph)
from ugl.isomorphism import (automorphisms, canonical_form, canonical_key,
                             enumerate_graphs, graph_from_canonical_key,
                             is_isomorphic)
from ugl.refinement import enumerate_maximal_cliques

import oracles

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
L4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def random_graph(rng, n, p=0.5):
    from itertools import combinations
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------

def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(-1)


def test_edges_are_sorted_and_deduped():
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2)]
    assert g.edge_count() == 2
    assert g.non_edges() == [(1, 2)]


def test_graph_is_immutable_and_hashable():
    with pytest.raises(AttributeError):
        C4.n = 5
    assert len({C4, Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])}) == 1


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------

def test_induced_subgraph_relabels_ascending():
    assert oracles.induced_subgraph(C4, [0, 1, 2]).edges() == [(0, 1), (1, 2)]
    assert oracles.induced_subgraph(C4, [1, 3]).edges() == []
    assert oracles.induced_subgraph(C4, range(4)) == C4


def test_induced_subgraph_rejects_bad_selections():
    with pytest.raises(InputError):
        oracles.induced_subgraph(C4, [0, 4])
    with pytest.raises(InputError):
        oracles.induced_subgraph(C4, [1, 1])


def test_induced_subgraph_matches_definition():
    import random
    rng = random.Random(11)
    from itertools import combinations
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 6))
        vs = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        sub = oracles.induced_subgraph(g, vs)
        for i, j in combinations(range(len(vs)), 2):
            assert sub.has_edge(i, j) == g.has_edge(vs[i], vs[j])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_graph_format_round_trip():
    text = format_graph(C4)
    assert parse_graph(text) == C4
    assert text == "graph 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"


def test_graph_parser_accepts_comments():
    g = parse_graph("# a square\ngraph 4\ne 0 1\n\ne 1 2\ne 2 3\ne 3 0\n")
    assert g == C4


@pytest.mark.parametrize("text", [
    "e 0 1",
    "graph 2\ne 0 0",
    "graph 2\ne 0 2",
    "graph 3\ne 0 1\ne 1 0",
    "graph 3\ne 0 1\ne 0 1",
    "graph 3\nvertex 2",
    "graph 3\ngraph 3",
    "graph x",
    "",
    # number tokens are an optional "-" and ASCII digits
    "graph 1_0\ne +0 \u0663",
    "graph +4",
    "graph \u0664",
    "graph 4\ne +0 3",
    "graph 4\ne 0 \u0663",
    "graph 4\ne 0 3_0",
    "graph 3 4",
    "graph -2",
    "graph 3\ne 0 1 2",
])
def test_graph_parser_rejects_malformed_input(text):
    with pytest.raises(InputError):
        parse_graph(text)


def test_graph_parser_bounds_the_vertex_count():
    assert parse_graph("graph %d\n" % GRAPH_VERTEX_CAP).n == GRAPH_VERTEX_CAP
    with pytest.raises(CapabilityError):
        parse_graph("graph %d\n" % (GRAPH_VERTEX_CAP + 1))
    with pytest.raises(CapabilityError):
        parse_graph("graph 100000000\ne 0 1\n")


# ---------------------------------------------------------------------------
# canonical forms and isomorphism
# ---------------------------------------------------------------------------

def test_canonical_form_matches_brute_force_oracle():
    import random
    rng = random.Random(3)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 6))
        assert canonical_form(g)[0] == oracles.brute_canonical_key(g)


def test_canonical_form_permutation_achieves_key():
    import random
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7))
        key, perm = canonical_form(g)
        relabel = {v: i for i, v in enumerate(perm)}
        moved = Graph(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        assert graph_from_canonical_key(g.n, key) == moved


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_is_isomorphism_invariant(data):
    from itertools import combinations
    n = data.draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    g = Graph(n, edges)
    perm = data.draw(st.permutations(range(n)))
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    assert canonical_key(g) == canonical_key(h)
    assert is_isomorphic(g, h)


def test_canonical_key_is_isomorphism_invariant_at_eight_vertices():
    import random
    rng = random.Random(29)
    for _ in range(1000):
        g = random_graph(rng, 8, rng.choice([0.3, 0.5, 0.7]))
        perm = list(range(8))
        rng.shuffle(perm)
        h = Graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g)[0] == canonical_form(h)[0], g


def test_is_isomorphic_distinguishes():
    assert not is_isomorphic(C4, L4)
    assert not is_isomorphic(C4, Graph(5, C4.edges()))
    assert is_isomorphic(C4, Graph(4, [(2, 1), (1, 3), (3, 0), (0, 2)]))


def test_canonical_form_bounded():
    with pytest.raises(CapabilityError):
        canonical_form(Graph(9))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    expected = [1, 1, 2, 4, 11, 34, 156, 1044]
    for n, count in enumerate(expected):
        assert len(enumerate_graphs(n)) == count


def test_enumeration_keys_pinned_through_seven_vertices():
    # sha256 of repr() of the sorted key tuples, pinned so that no change
    # of enumeration strategy can move a key
    import hashlib
    want = {
        6: "eb7cdd89fe7a355d5af8d9162de74a9903c6ecf7e03509fc4b2a9d2072498e94",
        7: "b8f64781cb0f26478777e22675e38d5926add5951fbeff67656cb77b43d4515d",
    }
    for n, digest in want.items():
        keys = tuple(sorted(canonical_form(g)[0] for g in enumerate_graphs(n)))
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def test_enumeration_computes_one_canonical_form_per_class(monkeypatch):
    # enumeration lives in the isomorphism module, which binds the names
    # it calls
    from ugl import isomorphism
    calls = {}
    plain = isomorphism.canonical_form

    def counted(g):
        calls[g.n] = calls.get(g.n, 0) + 1
        return plain(g)

    monkeypatch.setattr(isomorphism, "_ENUM_CACHE", {0: (0,)})
    monkeypatch.setattr(isomorphism, "canonical_form", counted)
    enumerate_graphs(7)
    assert calls[7] == 1044
    for n, count in enumerate([1, 1, 2, 4, 11, 34, 156, 1044]):
        assert calls.get(n, 0) <= count, n


def test_enumeration_matches_labeled_brute_force():
    for n in range(5):
        ours = {canonical_form(g)[0] for g in enumerate_graphs(n)}
        assert ours == oracles.brute_classes(n)


def test_enumeration_is_sorted_and_canonical():
    gs = enumerate_graphs(5)
    keys = [canonical_form(g)[0] for g in gs]
    assert keys == sorted(keys)
    assert all(graph_from_canonical_key(g.n, canonical_form(g)[0]) == g
               for g in gs)


def test_enumeration_cap():
    with pytest.raises(CapabilityError):
        enumerate_graphs(9)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_find_embedding_examples():
    assert find_embedding(L4, C4, EDGES_ONLY) == Embedding((0, 1, 2, 3), EDGES_ONLY)
    assert find_embedding(L4, C4, INDUCED) is None
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert find_embedding(C4, c6, INDUCED) is None
    assert find_embedding(C4, c6, EDGES_ONLY) is None


def test_find_embedding_returns_least_witness():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    e = find_embedding(triangle, g, INDUCED)
    assert e.mapping == min(oracles.brute_embeddings(triangle, g, INDUCED))
    assert e.checks(triangle, g)


def test_iter_embeddings_matches_brute_force():
    import random
    rng = random.Random(19)
    for _ in range(40):
        h = random_graph(rng, rng.randint(0, 4))
        g = random_graph(rng, rng.randint(h.n, 5))
        for mode in (EDGES_ONLY, INDUCED):
            assert (list(iter_embeddings(h, g, mode))
                    == oracles.brute_embeddings(h, g, mode))
            # onto a graph of h's size an injective map is bijective
            same = random_graph(rng, h.n)
            assert (list(iter_embeddings(h, same, mode))
                    == oracles.brute_embeddings(h, same, mode))


def test_iter_embeddings_avoid_matches_brute_force():
    import random
    rng = random.Random(23)
    for _ in range(60):
        h = random_graph(rng, rng.randint(0, 4))
        g = random_graph(rng, rng.randint(h.n, 6))
        avoid = random_graph(rng, h.n, 0.3)
        for mode in (EDGES_ONLY, INDUCED):
            want = [m for m in oracles.brute_embeddings(h, g, mode)
                    if not any(g.has_edge(m[u], m[v]) for u, v in avoid.edges())]
            assert list(iter_embeddings(h, g, mode, avoid=avoid)) == want


CATALOG_HOSTS = [("C4", None), ("L4", None), ("III", 4), ("III", 5),
                 ("III", 6), ("III", 7), ("I", None), ("II", None),
                 ("IV", 2), ("IV", 3), ("IV", 4), ("V", 1), ("V", 2),
                 ("V", 3)]


def test_iter_embeddings_yields_like_the_degree_scan():
    # the catalog hosts as patterns into every class with <= 6 vertices,
    # and the other way round (first 50 yields), in both modes, plain and
    # with the curated pairs to avoid: the same yields in the same order
    from itertools import islice
    from ugl.catalog import catalog_necessary_set
    classes = [g for n in range(7) for g in enumerate_graphs(n)]
    compared = 0
    for kind, param in CATALOG_HOSTS:
        _, host, (pairs, _) = catalog_necessary_set(kind, param)
        for mode in (EDGES_ONLY, INDUCED):
            for g in classes:
                for h, g2, avoid in ((host, g, None),
                                     (host, g, Graph(host.n, pairs)),
                                     (g, host, None)):
                    got = list(islice(iter_embeddings(h, g2, mode,
                                                      avoid=avoid), 50))
                    want = list(islice(oracles.degree_scan_iter_embeddings(
                        h, g2, mode, avoid=avoid), 50))
                    assert got == want, (kind, param, mode, g)
                    compared += bool(want)
    assert compared > 1000


def test_iter_embeddings_on_an_edgeless_graph_skips_its_vertices():
    # 300 placements into 15,000 isolated vertices: the degree scan took
    # about 2 s here
    import time
    g = Graph(15000)
    start = time.perf_counter()
    for _ in range(300):
        assert next(iter_embeddings(L4, g, EDGES_ONLY), None) is None
    assert time.perf_counter() - start < 0.5
    assert list(iter_embeddings(Graph(1), Graph(3), INDUCED)) == [
        (0,), (1,), (2,)]


def test_iter_embeddings_avoid_rejects_other_vertex_sets():
    with pytest.raises(InputError):
        list(iter_embeddings(L4, C4, EDGES_ONLY, avoid=Graph(3)))


def test_iter_embeddings_yields_like_the_recursive_form():
    # every class with <= 7 vertices onto itself (its automorphisms) and
    # as the index graph of the curated C4 and L4 placements, in both
    # modes: the stack search yields what one frame per vertex yielded
    from ugl.catalog import catalog_necessary_set
    placements = []
    for kind in ("C4", "L4"):
        _, host, (pairs, _) = catalog_necessary_set(kind)
        placements.append((host, Graph(host.n, pairs)))
    for n in range(8):
        for g in enumerate_graphs(n):
            for h, avoid in [(g, None)] + placements:
                for mode in (EDGES_ONLY, INDUCED):
                    args = (h, g, mode, avoid)
                    assert (list(iter_embeddings(*args)) == list(
                        oracles.degree_scan_iter_embeddings(*args))), args


def test_find_embedding_of_a_long_path_into_itself_is_the_identity():
    # one search level per pattern vertex: the recursive form raised
    # RecursionError from about 1,000 vertices
    n = 1500
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    for mode in (EDGES_ONLY, INDUCED):
        assert find_embedding(path, path, mode).mapping == tuple(range(n))


def test_embedding_set_up_is_linear_in_the_pattern_edges():
    # one list entry per pattern edge: one per earlier vertex would make
    # about 1.1 million here (34 MiB in INDUCED mode) and take 0.25 s
    # edges-only and 0.6 s induced
    n = 1500
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    start = time.perf_counter()
    for mode in (EDGES_ONLY, INDUCED):
        find_embedding(path, path, mode)
    assert time.perf_counter() - start < 0.15
    for mode in (EDGES_ONLY, INDUCED):
        tracemalloc.start()
        try:
            find_embedding(path, path, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, mode


def test_automorphisms():
    assert len(automorphisms(C4)) == 8
    assert len(automorphisms(L4)) == 2
    assert len(automorphisms(K4)) == 24


# ---------------------------------------------------------------------------
# maximal cliques
# ---------------------------------------------------------------------------

def test_maximal_cliques_examples():
    assert enumerate_maximal_cliques(K4) == [(0, 1, 2, 3)]
    assert enumerate_maximal_cliques(C4) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert enumerate_maximal_cliques(Graph(0)) == [()]
    assert enumerate_maximal_cliques(Graph(2)) == [(0,), (1,)]


def test_maximal_cliques_match_brute_force():
    import random
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 6))
        assert enumerate_maximal_cliques(g) == oracles.brute_maximal_cliques(g)
