import importlib.util
import random
import sys
import time
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugl.catalog import (INTERVAL, TREE, diagonal_violation, family_graph,
                         family_str, parse_family, shape_families)
from ugl.chordal import chordal_cliques, clique_spans
from ugl.errors import CapabilityError, InputError
from ugl.graphs import Graph, parse_graph
from ugl.intervals import (IntervalModel, format_interval_model,
                           parse_interval_model, realize_intervals)
from ugl.isomorphism import enumerate_graphs, is_isomorphic
from ugl.obstructions import (minimal_obstructions, parse_witness,
                              witness_checks)
from ugl.refinement import enumerate_maximal_cliques
from ugl.shapes import (ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY,
                        IRREDUCIBLE_CYCLE, ObstructionWitness,
                        find_asteroidal_triple, find_chordless_cycle,
                        format_witness, recognize)
from ugl import chordal, shapes
from oracles import (backtracking_realize_intervals, brute_diagonal,
                     brute_interval_graph, eager_asteroidal_triple,
                     enumerated_minimal_obstructions,
                     forest_comparability_classes, induced_subgraph,
                     list_realize_intervals, loop_diagonal_violation,
                     mask_chordal_cliques, pairwise_cycle_checks,
                     pairwise_model_checks, recursive_chordless_cycle,
                     row_mask_clique_spans, search_recognize)

NET = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
SUN = Graph(6, [(0, 1), (1, 2), (0, 2),
                (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])


def graphs_up_to(max_n):
    for n in range(max_n + 1):
        for g in enumerate_graphs(n):
            yield g


def bench_graphs(tmp_path_factory, seeds=range(1, 6)):
    """Every graph of the recognize rounds of the given bench seeds, as
    ``bench/gen.py`` writes them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = []
    for seed in seeds:
        outdir = tmp_path_factory.mktemp("recognize-%d" % seed)
        names = {a[1:] for req in gen.write_inputs("recognize", seed, outdir)
                 for a in req["argv"] if a.startswith("@")}
        out += [parse_graph((outdir / name).read_text(encoding="utf-8"))
                for name in sorted(names)]
    return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,param,nv,ne", [
    ("C4", None, 4, 4), ("L4", None, 4, 3),
    ("I", None, 7, 6), ("II", None, 7, 10),
    ("III", 4, 4, 4), ("III", 7, 7, 7),
    ("IV", 2, 6, 6), ("IV", 3, 7, 8), ("IV", 4, 8, 10),
    ("V", 1, 6, 9), ("V", 2, 7, 12), ("V", 3, 8, 15),
])
def test_family_sizes(kind, param, nv, ne):
    g = family_graph(kind, param)
    assert (g.n, g.edge_count()) == (nv, ne)


def test_family_identifications():
    assert is_isomorphic(family_graph("III", 4), family_graph("C4"))
    assert is_isomorphic(family_graph("IV", 2), NET)
    assert is_isomorphic(family_graph("V", 1), SUN)


def test_family_ii_cliques():
    got = enumerate_maximal_cliques(family_graph("II"))
    assert got == [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (3, 6)]


def test_family_i_is_three_arm_spider():
    g = family_graph("I")
    assert g.degree(0) == 3
    assert sorted(g.degree_sequence()) == [1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("kind,param", [
    ("C4", 4), ("L4", 1), ("I", 3), ("II", 2),
    ("III", None), ("III", 3), ("IV", None), ("IV", 1),
    ("V", None), ("V", 0), ("VI", None), ("c4", None),
])
def test_family_validation(kind, param):
    with pytest.raises(InputError):
        family_graph(kind, param)


@pytest.mark.parametrize("token", ["C4", "L4", "I", "II", "III(4)", "III(12)",
                                   "IV(2)", "V(5)"])
def test_family_token_round_trip(token):
    kind, param = parse_family(token)
    assert family_str(kind, param) == token


@pytest.mark.parametrize("token", ["", "III", "III()", "III(3)", "IV(1)",
                                   "V(0)", "C4(2)", "W(4)", "III(x)",
                                   "III(+5)", "III(\u0665)", "III(5_0)"])
def test_family_token_rejects(token):
    with pytest.raises(InputError):
        parse_family(token)


def test_shape_families_listing():
    assert shape_families(TREE, 6) == [("C4", None), ("L4", None)]
    assert shape_families(TREE, 3) == []
    assert shape_families(INTERVAL, 6) == [
        ("III", 4), ("III", 5), ("III", 6), ("IV", 2), ("V", 1)]
    assert shape_families(INTERVAL, 7) == [
        ("I", None), ("II", None),
        ("III", 4), ("III", 5), ("III", 6), ("III", 7),
        ("IV", 2), ("IV", 3), ("V", 1), ("V", 2)]


# ---------------------------------------------------------------------------
# diagonal condition
# ---------------------------------------------------------------------------

def test_diagonal_matches_oracle_small():
    for g in graphs_up_to(5):
        assert (diagonal_violation(g) is None) == brute_diagonal(g), g


def test_diagonal_violation_is_a_real_violation():
    for g in enumerate_graphs(5):
        q = diagonal_violation(g)
        if q is None:
            continue
        x0, x1, x2, x3 = q
        assert len({x0, x1, x2, x3}) == 4
        assert g.has_edge(x0, x1) and g.has_edge(x1, x2) and g.has_edge(x2, x3)
        assert not g.has_edge(x0, x2) and not g.has_edge(x1, x3)


def test_diagonal_examples():
    assert diagonal_violation(family_graph("C4")) is not None
    assert diagonal_violation(family_graph("L4")) is not None
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert diagonal_violation(k4) is None
    assert diagonal_violation(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) is None


def test_diagonal_violation_matches_the_former_loops():
    # the least L4 placement is the least quadruple of the nested loops,
    # on every class up to seven vertices and on labeled random graphs
    for g in graphs_up_to(7):
        assert diagonal_violation(g) == loop_diagonal_violation(g), g
    rng = random.Random(113)
    hits = 0
    for _ in range(600):
        g = random_gnp(rng, rng.randint(4, 20))
        q = diagonal_violation(g)
        assert q == loop_diagonal_violation(g), g
        hits += q is not None
    assert 100 < hits < 600


# ---------------------------------------------------------------------------
# interval obstructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_chordless_cycle_on_holes(k):
    assert find_chordless_cycle(family_graph("III", k)) == list(range(k))


def test_chordless_cycle_sees_through_chords():
    squared = family_graph("III", 6).with_edges([(0, 2)])
    got = find_chordless_cycle(squared)
    assert got == [0, 2, 3, 4, 5]


def test_chordless_cycle_none_on_chordal():
    for g in (NET, SUN, family_graph("I"), Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
              Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])):
        assert find_chordless_cycle(g) is None


def test_asteroidal_triples_frozen():
    assert find_asteroidal_triple(family_graph("I")) == (2, 4, 6)
    assert find_asteroidal_triple(family_graph("II")) == (1, 5, 6)
    assert find_asteroidal_triple(NET) == (3, 4, 5)
    assert find_asteroidal_triple(SUN) == (3, 4, 5)
    assert find_asteroidal_triple(family_graph("III", 6)) == (0, 2, 4)
    assert find_asteroidal_triple(Graph(7, [(0, 1), (1, 2), (1, 3), (3, 4)])) is None


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_checks():
    c4 = family_graph("C4")
    assert ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 2, 3)).checks(c4)
    assert not ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 3, 2)).checks(c4)
    assert not ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 2)).checks(c4)
    assert not ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 2, 4)).checks(c4)
    assert ObstructionWitness(ASTEROIDAL_TRIPLE, (3, 4, 5)).checks(NET)
    assert not ObstructionWitness(ASTEROIDAL_TRIPLE, (0, 4, 5)).checks(NET)
    assert ObstructionWitness(FORBIDDEN_FAMILY, (0, 1, 2, 3), ("C4", None)).checks(c4)
    assert not ObstructionWitness(FORBIDDEN_FAMILY, (0, 1, 2, 3), ("L4", None)).checks(c4)
    five = family_graph("III", 5)
    assert ObstructionWitness(FORBIDDEN_FAMILY, (0, 1, 2, 3, 4), ("III", 5)).checks(five)


def test_cycle_checks_match_the_pairwise_oracle():
    # every vertex sequence of up to 5 distinct vertices, and one past
    # the graph, on every graph of 5 or fewer vertices
    held = 0
    for g in graphs_up_to(5):
        for k in range(g.n + 2):
            for vs in permutations(range(g.n + 1), k):
                got = ObstructionWitness(IRREDUCIBLE_CYCLE, vs).checks(g)
                assert got == pairwise_cycle_checks(vs, g), (g.edges(), vs)
                held += got
    assert held == 90


def test_witness_construction_rejects():
    with pytest.raises(InputError):
        ObstructionWitness("cycle", (0, 1, 2, 3))
    with pytest.raises(InputError):
        ObstructionWitness(FORBIDDEN_FAMILY, (0, 1, 2, 3))
    with pytest.raises(InputError):
        ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 2, 3), ("C4", None))


@pytest.mark.parametrize("w,line", [
    (ObstructionWitness(IRREDUCIBLE_CYCLE, (0, 1, 2, 3)), "w irreducible-cycle 0 1 2 3\n"),
    (ObstructionWitness(ASTEROIDAL_TRIPLE, (2, 4, 6)), "w asteroidal-triple 2 4 6\n"),
    (ObstructionWitness(FORBIDDEN_FAMILY, (5, 0, 3, 1), ("L4", None)),
     "w forbidden-family L4 5 0 3 1\n"),
    (ObstructionWitness(FORBIDDEN_FAMILY, (0, 1, 2, 3, 4), ("III", 5)),
     "w forbidden-family III(5) 0 1 2 3 4\n"),
])
def test_witness_text_round_trip(w, line):
    assert format_witness(w) == line
    assert parse_witness(line) == w


@pytest.mark.parametrize("line", [
    "", "w", "w cycles 0 1", "w irreducible-cycle 0 x",
    "w forbidden-family", "w forbidden-family Q 0 1",
    "w irreducible-cycle 0 1 2 \u0663", "w irreducible-cycle +0 1 2 3",
])
def test_witness_parse_rejects(line):
    with pytest.raises(InputError):
        parse_witness(line)


# ---------------------------------------------------------------------------
# recognition against oracles
# ---------------------------------------------------------------------------

def test_recognize_tree_matches_diagonal():
    for g in graphs_up_to(5):
        w = recognize(TREE, g)
        assert (w is None) == brute_diagonal(g)
        if w is not None:
            assert w.kind == FORBIDDEN_FAMILY and w.checks(g)


def test_recognize_interval_matches_oracle_small():
    for g in graphs_up_to(4):
        assert (recognize(INTERVAL, g) is None) == brute_interval_graph(g)


@pytest.mark.parametrize("g,expect", [
    (family_graph("III", 5), False),
    (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]), False),
    (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3)]), True),
    (Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]), True),
])
def test_recognize_interval_matches_oracle_five(g, expect):
    assert brute_interval_graph(g) == expect
    assert (recognize(INTERVAL, g) is None) == expect


def test_recognize_witnesses_check_out():
    for g in graphs_up_to(5):
        for shape in (TREE, INTERVAL):
            w = recognize(shape, g)
            if w is not None:
                assert w.checks(g), (shape, g)


# ---------------------------------------------------------------------------
# agreement with the search oracles
# ---------------------------------------------------------------------------

def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_gnp(rng, n):
    p = rng.uniform(0.05, 0.6)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_interval_graph(rng, n):
    span = rng.choice([5, 20, 1000])
    ivs = []
    for _ in range(n):
        a = rng.randrange(span)
        ivs.append((a, a + rng.randint(1, max(1, span // rng.choice([2, 10])))))
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                     if max(ivs[u][0], ivs[v][0]) < min(ivs[u][1], ivs[v][1])])


def random_subtree_graph(rng, n):
    """Intersection graph of random subtrees of a random tree: chordal,
    and often not an interval graph."""
    size = rng.randint(1, 20)
    adj = [[] for _ in range(size)]
    for v in range(1, size):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    subtrees = []
    for _ in range(n):
        nodes = [rng.randrange(size)]
        for _ in range(rng.randrange(size // 2 + 1)):
            step = rng.choice(adj[rng.choice(nodes)] or nodes)
            if step not in nodes:
                nodes.append(step)
        subtrees.append(set(nodes))
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                     if subtrees[u] & subtrees[v]])


def assert_agrees_with_oracles(g):
    """Verdicts equal the lexicographic searches', and every witness
    re-verifies: a tree witness x-u-v-y is a C4 exactly when x sees y,
    and an interval non-member gets a hole, printed from its least
    vertex towards the smaller neighbor, exactly when it has one."""
    hole = find_chordless_cycle(g)
    assert (hole is None) == (recursive_chordless_cycle(g) is None), g.edges()
    assert find_asteroidal_triple(g) == eager_asteroidal_triple(g), g.edges()
    for shape in (TREE, INTERVAL):
        w = recognize(shape, g)
        assert (w is None) == (search_recognize(shape, g) is None), (
            shape, g.edges())
        if w is None:
            continue
        assert witness_checks(w, g), (shape, g.edges(), w)
        vs = w.vertices
        if shape == TREE:
            assert w.kind == FORBIDDEN_FAMILY, g.edges()
            kind = "C4" if g.has_edge(vs[0], vs[3]) else "L4"
            assert w.family == (kind, None), g.edges()
        elif hole is not None:
            assert w == ObstructionWitness(IRREDUCIBLE_CYCLE, hole), g.edges()
            assert vs[0] == min(vs) and vs[1] < vs[-1], g.edges()
        else:
            assert w.kind == ASTEROIDAL_TRIPLE, g.edges()


def test_search_agrees_with_oracles_up_to_seven():
    for g in graphs_up_to(7):
        for seed in range(3):
            assert_agrees_with_oracles(relabeled(g, seed))


def test_search_agrees_with_oracles_on_random_graphs():
    rng = random.Random(2)
    for _ in range(600):
        assert_agrees_with_oracles(random_gnp(rng, rng.randint(8, 16)))


def test_search_agrees_with_oracles_on_chordal_graphs():
    rng = random.Random(3)
    for _ in range(300):
        assert_agrees_with_oracles(random_subtree_graph(rng, rng.randint(4, 24)))


def test_asteroidal_triple_scan_builds_components_on_demand(monkeypatch):
    # a spider with three 200-vertex legs, numbered from the leg tips
    # 0, 1, 2 inward: the first triple scanned is asteroidal, so only
    # its own three vertices need their components
    legs = [(0, 1), (0, 2), (0, 3)] + [(i, i + 3) for i in range(1, 598)]
    spider = Graph(601, [(600 - u, 600 - v) for u, v in legs])
    calls = []

    def counted(g, v):
        calls.append(v)
        return avoid(g, v)

    avoid = shapes._avoid_components
    monkeypatch.setattr(shapes, "_avoid_components", counted)
    assert find_asteroidal_triple(spider) == (0, 1, 2)
    assert calls == [2, 1, 0]


def test_realize_verdict_matches_backtracking_oracle():
    cases = list(graphs_up_to(7))
    cases += [relabeled(g, seed) for g in graphs_up_to(6) for seed in range(3)]
    rng = random.Random(4)
    cases += [random_gnp(rng, rng.randint(8, 10)) for _ in range(100)]
    for g in cases:
        got = realize_intervals(g)
        old = backtracking_realize_intervals(g)
        if isinstance(old, IntervalModel):
            assert isinstance(got, IntervalModel) and got.checks(g), g.edges()
        else:
            assert got == old, g.edges()


def test_realize_models_on_random_interval_graphs():
    rng = random.Random(5)
    for _ in range(300):
        g = random_interval_graph(rng, rng.randint(1, 60))
        assert recognize(INTERVAL, g) is None
        m = realize_intervals(g)
        assert isinstance(m, IntervalModel) and m.checks(g)
        ends = sorted(e for ab in m.intervals for e in ab)
        assert ends == list(range(2 * g.n))


def test_clique_spans_under_shuffled_clique_orders():
    # a shuffled clique order rarely works as given, so this runs the
    # overlap-component placement that search orders mostly skip
    rng = random.Random(6)
    for i in range(300):
        if i % 2:
            g = random_interval_graph(rng, rng.randint(1, 40))
        else:
            g = random_subtree_graph(rng, rng.randint(1, 24))
        cliques = chordal_cliques(g.rows)[0]
        member = find_asteroidal_triple(g) is None
        for _ in range(3):
            rng.shuffle(cliques)
            spans = clique_spans(g.rows, cliques)
            assert (spans is not None) == member, g.edges()
            if spans is None:
                continue
            for u, v in combinations(range(g.n), 2):
                meet = max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])
                assert meet == g.has_edge(u, v), g.edges()


def shuffled_cliques(rounds):
    """``chordal_cliques`` with its result shuffled, the same way for the
    same rows in the same round (``rounds[0]``)."""
    search = chordal.chordal_cliques

    def cliques(rows):
        got, hole = search(rows)
        if got is not None:
            random.Random("%d %r" % (rounds[0], rows)).shuffle(got)
        return got, hole
    return cliques


def consecutive(rows, cliques):
    """Whether each vertex's cliques are consecutive in the given order
    (of ``chordal_cliques``' (lowest vertex, shifted mask) pairs)."""
    for v in range(len(rows)):
        at = [i for i, (lo, c) in enumerate(cliques) if c << lo >> v & 1]
        if at[-1] - at[0] + 1 != len(at):
            return False
    return True


def test_chordal_cliques_match_the_full_mask_oracle(tmp_path_factory):
    # the same cliques in the same order, each as (lowest vertex, mask
    # shifted down by it)
    rng = random.Random(25)
    cases = list(graphs_up_to(7)) + bench_graphs(tmp_path_factory)
    cases += [random_interval_graph(rng, rng.randint(1, 60))
              for _ in range(100)]
    cases += [random_subtree_graph(rng, rng.randint(1, 24))
              for _ in range(100)]
    chordal_graphs = 0
    for g in cases:
        got, hole = chordal_cliques(g.rows)
        want = mask_chordal_cliques(g.rows)
        if want is None:
            assert got is None and hole is not None, g.edges()
            continue
        assert hole is None, g.edges()
        chordal_graphs += 1
        assert all(c & 1 for _, c in got), g.edges()
        assert [c << lo for lo, c in got] == want, g.edges()
    assert chordal_graphs > 700


def test_clique_spans_match_the_row_mask_oracle(tmp_path_factory):
    rng = random.Random(24)
    cases = [g for g in graphs_up_to(7) if chordal_cliques(g.rows)[1] is None]
    assert len(cases) == 532
    cases += bench_graphs(tmp_path_factory)
    paths = {True: 0, False: 0}
    for g in cases:
        cliques = chordal_cliques(g.rows)[0]
        if cliques is None:
            continue
        for shuffle in range(4 if g.n <= 7 else 2):
            if shuffle:
                rng.shuffle(cliques)
            paths[consecutive(g.rows, cliques)] += 1
            assert (clique_spans(g.rows, cliques)
                    == row_mask_clique_spans(g.rows, cliques)), g.edges()
    # both the kept order and the overlap-component placement ran
    assert min(paths.values()) > 100, paths


def test_realize_matches_the_list_oracle(tmp_path_factory, monkeypatch):
    cases = list(graphs_up_to(7)) + bench_graphs(tmp_path_factory)
    rounds = [0]
    monkeypatch.setattr(chordal, "chordal_cliques", shuffled_cliques(rounds))
    models = 0
    for rounds[0] in range(3):
        for g in cases:
            got = realize_intervals(g)
            assert got == list_realize_intervals(g), g.edges()
            if isinstance(got, IntervalModel):
                # built without the constructor: it would accept it
                assert IntervalModel(g.n, got.intervals) == got
                models += 1
    assert models > 1000


def test_model_checks_match_the_pairwise_oracle():
    # every realized model of 7 or fewer vertices, and every model one
    # endpoint shift away from it, against the graph it was realized for
    checked = failed = 0
    for g in graphs_up_to(7):
        m = realize_intervals(g)
        if not isinstance(m, IntervalModel):
            continue
        assert m.checks(g) and pairwise_model_checks(m, g)
        for v in range(g.n):
            for side in (0, 1):
                for step in (-1, 1):
                    iv = [list(ab) for ab in m.intervals]
                    iv[v][side] += step
                    if iv[v][0] >= iv[v][1]:
                        continue
                    shifted = IntervalModel(g.n, iv)
                    want = pairwise_model_checks(shifted, g)
                    assert shifted.checks(g) == want, (g.edges(), iv)
                    checked += 1
                    failed += not want
    assert checked > 10000 and 0 < failed < checked


def test_interval_recognition_memory_and_checks_time():
    # the parsed 10,000-vertex path: recognition and realization use
    # lists of n ints beside the rows, each clique weighs as much as its
    # span of vertices, and the model's check is near-linear
    g = parse_graph("graph 10000\n" + "".join(
        "e %d %d\n" % (i, i + 1) for i in range(9999)))
    for call in (lambda: recognize(INTERVAL, g),
                 lambda: realize_intervals(g)):
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, peak
    assert got.intervals[:2] == ((0, 2), (1, 4))
    start = time.perf_counter()
    assert got.checks(g)
    assert time.perf_counter() - start < 0.5


def test_interval_path_does_not_recurse():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    path = Graph(1500, [(i, i + 1) for i in range(1499)])
    hole = family_graph("III", 300)
    spider = Graph(301, [(0, 1), (0, 2), (0, 3)]
                   + [(i, i + 3) for i in range(1, 298)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        assert recognize(INTERVAL, path) is None
        model = realize_intervals(path)
        cycle = recognize(INTERVAL, hole)
        triple = realize_intervals(spider)
    finally:
        sys.setrecursionlimit(limit)
    assert model.checks(path)
    assert cycle == ObstructionWitness(IRREDUCIBLE_CYCLE, range(300))
    assert triple.kind == ASTEROIDAL_TRIPLE and triple.checks(spider)


# ---------------------------------------------------------------------------
# interval models
# ---------------------------------------------------------------------------

def test_realize_agrees_with_recognize():
    for g in graphs_up_to(6):
        got = realize_intervals(g)
        if recognize(INTERVAL, g) is None:
            assert isinstance(got, IntervalModel)
            assert got.checks(g)
        else:
            assert isinstance(got, ObstructionWitness)
            assert got.checks(g)


def test_realize_distinct_endpoints():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    m = realize_intervals(g)
    assert isinstance(m, IntervalModel)
    ends = [e for ab in m.intervals for e in ab]
    assert sorted(ends) == list(range(2 * g.n))
    assert m.checks(g)


def test_realize_empty_and_tiny():
    assert realize_intervals(Graph(0, [])).intervals == ()
    assert realize_intervals(Graph(1, [])).checks(Graph(1, []))
    k2 = Graph(2, [(0, 1)])
    assert realize_intervals(k2).checks(k2)


def test_interval_model_validation():
    with pytest.raises(InputError):
        IntervalModel(2, [(0, 1)])
    with pytest.raises(InputError):
        IntervalModel(1, [(3, 3)])
    IntervalModel(2, [(0, 2), (2, 4)])


def test_interval_model_text_round_trip():
    m = realize_intervals(Graph(3, [(0, 1), (1, 2)]))
    text = format_interval_model(m)
    assert parse_interval_model(text) == IntervalModel(3, m.intervals)
    with pytest.raises(InputError):
        parse_interval_model("i 0 0 1\ni 0 2 3\n")
    with pytest.raises(InputError):
        parse_interval_model("i 1 0 1\n")
    # number tokens are an optional "-" and ASCII digits
    for text in ("i \u0660 0 1\n", "i 0 +0 1\n", "i 0 0 1_0\n"):
        with pytest.raises(InputError):
            parse_interval_model(text)
    with pytest.raises(InputError):
        parse_interval_model("j 0 0 1\n")


def test_model_checks_rejects_wrong_graph():
    p3 = Graph(3, [(0, 1), (1, 2)])
    m = realize_intervals(p3)
    assert not m.checks(Graph(3, [(0, 1)]))
    assert not m.checks(Graph(4, [(0, 1), (1, 2)]))


# ---------------------------------------------------------------------------
# minimal obstructions
# ---------------------------------------------------------------------------

def test_minimal_obstructions_tree():
    for max_n in (6, 7):
        got = minimal_obstructions(TREE, max_n)
        assert len(got) == 2
        assert any(is_isomorphic(g, family_graph("C4")) for g in got)
        assert any(is_isomorphic(g, family_graph("L4")) for g in got)


def test_minimal_obstructions_interval_six():
    got = minimal_obstructions(INTERVAL, 6)
    expected = shape_families(INTERVAL, 6)
    assert len(got) == len(expected)
    for kind, param in expected:
        fam = family_graph(kind, param)
        assert sum(is_isomorphic(g, fam) for g in got) == 1, (kind, param)


@pytest.mark.parametrize("shape", [TREE, INTERVAL])
def test_minimal_obstructions_equal_the_enumeration_route(shape):
    # the catalog lists the same graphs, in the same order, as a sweep of
    # every class for minimal non-members
    for max_n in range(8):
        assert (minimal_obstructions(shape, max_n)
                == enumerated_minimal_obstructions(shape, max_n)), max_n


def test_minimal_obstructions_cap():
    with pytest.raises(CapabilityError):
        minimal_obstructions(INTERVAL, 8)
    with pytest.raises(CapabilityError):
        forest_comparability_classes(8)


# ---------------------------------------------------------------------------
# rooted forests
# ---------------------------------------------------------------------------

def test_forest_class_counts():
    per = {n: 0 for n in range(8)}
    for g in forest_comparability_classes(7):
        per[g.n] += 1
    assert [per[n] for n in range(8)] == [1, 1, 2, 4, 9, 20, 48, 115]


def test_forest_classes_satisfy_diagonal():
    for g in forest_comparability_classes(6):
        assert diagonal_violation(g) is None
        assert recognize(TREE, g) is None


def test_forest_classes_exhaust_tree_members():
    classes = {(g.n, g) for g in forest_comparability_classes(5)}
    members = {(g.n, g) for g in graphs_up_to(5) if recognize(TREE, g) is None}
    assert classes == members


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_property_certificates_always_check(g):
    for shape in (TREE, INTERVAL):
        w = recognize(shape, g)
        if w is not None:
            assert w.checks(g)
    got = realize_intervals(g)
    if isinstance(got, IntervalModel):
        assert got.checks(g)
    else:
        assert got.checks(g)


@given(small_graphs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_property_membership_is_hereditary(g, drop):
    if g.n == 0:
        return
    v = drop % g.n
    sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
    for shape in (TREE, INTERVAL):
        if recognize(shape, g) is None:
            assert recognize(shape, sub) is None
