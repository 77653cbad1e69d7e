"""Acceptance suite: one verdict line per agreed deliverable.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest status.  Each test prints
``acceptance <label>: PASS`` with its runtime, or FAIL before raising.
"""

import random
import time
from itertools import combinations, product

from ugl.catalog import INTERVAL, TREE, diagonal_violation, family_graph
from ugl.cli import main
from ugl.covering import CoveringFamily
from ugl.distributions import (
    Trace,
    check_sop2_condition,
    graph_sequence,
    is_multiplicative_trace,
    is_pair_adequate,
    parse_trace,
)
from ugl.fulldist import (all_subsets, check_properties, conjugate,
                          distribution_from_conjugate, extension_distribution)
from ugl.graphs import INDUCED, Graph, find_embedding
from ugl.intervals import (format_interval_model, parse_interval_model,
                           realize_intervals)
from ugl.isomorphism import canonical_key, enumerate_graphs
from ugl.necessary import family_necessary_set, verify_claims
from ugl.obstructions import minimal_obstructions, parse_witness
from ugl.refinement import (find_multiplicative_refinement, format_trace,
                            is_refinement)
from ugl.shapes import format_witness, recognize
from ugl.ultragraph import (
    build,
    eta,
    eta_extension,
    format_internal_set,
    parse_internal_set,
)

from oracles import forest_comparability_classes
from test_cli import QUORUM_CEX_TRACE
from test_distributions import random_monotone, random_trace


def verdict(label, budget, fn):
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        print("acceptance %s: FAIL" % label)
        raise
    elapsed = time.monotonic() - t0
    print("acceptance %s: PASS (%.1fs)" % (label, elapsed))
    if budget is not None:
        assert elapsed < budget, "%s exceeded %ds budget" % (label, budget)


def keys_of(graphs):
    return {canonical_key(g) for g in graphs}


def test_tree_obstructions_are_the_four_cycle_and_four_path():
    def check():
        got = keys_of(minimal_obstructions(TREE, 6))
        want = keys_of([family_graph("C4"), family_graph("L4")])
        assert got == want
    verdict("tree-obstructions", 10, check)


def test_interval_obstructions_match_the_catalog_through_seven_vertices():
    def check():
        got6 = keys_of(minimal_obstructions(INTERVAL, 6))
        want6 = keys_of([family_graph("III", 4), family_graph("III", 5),
                         family_graph("III", 6), family_graph("IV", 2),
                         family_graph("V", 1)])
        assert got6 == want6
        got7 = keys_of(minimal_obstructions(INTERVAL, 7))
        want7 = want6 | keys_of([family_graph("III", 7), family_graph("IV", 3),
                                 family_graph("V", 2), family_graph("I"),
                                 family_graph("II")])
        assert got7 == want7
    verdict("interval-obstructions", 300, check)


def test_catalog_necessary_sets_verify_their_claimed_flags():
    def check():
        cases = [("C4", None, 2), ("L4", None, 2),
                 ("III", 4, 2), ("III", 5, 3), ("III", 6, 4), ("III", 7, 5),
                 ("I", None, 6), ("II", None, 4),
                 ("IV", 2, 6), ("IV", 3, 6), ("IV", 4, 7),
                 ("V", 1, 3), ("V", 2, 4), ("V", 3, 5)]
        for kind, param, size in cases:
            shape, host, ns = family_necessary_set(kind, param)
            assert len(ns.edges) == size, (kind, param)
            assert ns.flags["necessary"] and ns.flags["submin"], (kind, param)
            ok, verdicts, evidence = verify_claims(shape, host, ns)
            assert ok, (kind, param, verdicts, evidence)
        # the sets claimed as the unique minimum
        for kind, param in [("C4", None), ("L4", None),
                            ("IV", 2), ("V", 1), ("V", 2), ("V", 3)]:
            ns = family_necessary_set(kind, param)[2]
            assert ns.flags["mincard"] and ns.flags["unique"], (kind, param)
        for kind, param in [("II", None), ("IV", 3), ("IV", 4)]:
            ns = family_necessary_set(kind, param)[2]
            assert ns.flags["mincard"], (kind, param)
    verdict("catalog-necessary-sets", 120, check)


def test_tree_membership_three_way_equivalence_on_small_classes():
    def check():
        forest_keys = keys_of(forest_comparability_classes(6))
        c4 = family_graph("C4")
        l4 = family_graph("L4")
        total = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                total += 1
                a = diagonal_violation(g) is None
                b = (find_embedding(c4, g, INDUCED) is None
                     and find_embedding(l4, g, INDUCED) is None)
                c = canonical_key(g) in forest_keys
                assert a == b == c, g.edges()
        assert total == 208
    verdict("tree-three-way-equivalence", 30, check)


def test_distribution_lemma_suite_randomized():
    def check():
        rng = random.Random(99)
        for _ in range(1000):
            nb = rng.randrange(1, 5)
            ni = rng.randrange(1, 6)
            f = random_monotone(rng, nb, ni)
            assert distribution_from_conjugate(conjugate(f)) == f
            rep = check_properties(f)
            if rep.multiplicative:
                assert rep.graph_like
            if rep.graph_like:
                assert rep.multiplicative == rep.pairwise_splitting
                # singletons and pairs pin the whole distribution down
                fam = CoveringFamily.quorum(ni, 1)
                g1 = [frozenset(b for b in range(nb) if a in f.at({b}))
                      for a in range(ni)]
                g2 = [[p for p in combinations(range(nb), 2) if a in f.at(p)]
                      for a in range(ni)]
                f2 = extension_distribution(Trace(fam, nb, g1, g2))
                for d in all_subsets(nb):
                    if d:
                        assert f2.at(d) == f.at(d)
            t2 = random_trace(rng, ni, nb)
            # multiplicative trace means every index graph is complete
            complete = all(
                all((u, v) in t2.g2[a]
                    for u, v in combinations(sorted(vs), 2))
                for a, (vs, _) in enumerate(graph_sequence(t2)))
            assert is_multiplicative_trace(t2) == complete
            # refinement relation = per-index subgraph plus adequacy
            drop_v = [vs - {b for b in vs if rng.random() < 0.3}
                      for vs in t2.g1]
            t1 = Trace(t2.family, nb, drop_v,
                       [[p for p in t2.g2[a]
                         if p[0] in drop_v[a] and p[1] in drop_v[a]
                         and rng.random() < 0.8]
                        for a in range(ni)])
            assert is_refinement(t1, t2) == is_pair_adequate(t1)
            if any(t1.g1[a] != t2.g1[a] or t1.g2[a] != t2.g2[a]
                   for a in range(ni)):
                assert not is_refinement(t2, t1)
    verdict("distribution-lemma-suite", 60, check)


def index_graph_options(nb):
    out = []
    for bits in range(1 << nb):
        vs = {b for b in range(nb) if bits >> b & 1}
        ps = list(combinations(sorted(vs), 2))
        for ebits in range(1 << len(ps)):
            out.append((vs, [p for i, p in enumerate(ps) if ebits >> i & 1]))
    return out


def chain_free(es, nb):
    return recognize(TREE, Graph(nb, es)) is None


def test_chain_condition_matches_per_index_freeness():
    def check():
        # a chain violation is witnessed inside a single index, so the
        # per-index sweep is the exhaustive core of the equivalence;
        # joint indices are exhausted at width two and sampled beyond
        for nb in range(1, 6):
            fam = CoveringFamily.principal(1, [0])
            for vs, es in index_graph_options(nb):
                t = Trace(fam, nb, [vs], [es])
                assert (check_sop2_condition(t) is None) == chain_free(es, nb)
        options4 = index_graph_options(4)
        fam2 = CoveringFamily.principal(2, [0, 1])
        for (v1, e1), (v2, e2) in product(options4, repeat=2):
            t = Trace(fam2, 4, [v1, v2], [e1, e2])
            want = chain_free(e1, 4) and chain_free(e2, 4)
            assert (check_sop2_condition(t) is None) == want
        rng = random.Random(7)
        for _ in range(1500):
            ni = rng.randrange(2, 5)
            nb = rng.randrange(4, 6)
            t = random_trace(rng, ni, nb, p_edge=0.55)
            want = all(chain_free(t.g2[a], nb) for a in range(ni))
            assert (check_sop2_condition(t) is None) == want
    verdict("chain-condition-equivalence", 120, check)


def test_eta_extension_matches_refinement_at_finite_scale():
    def check():
        for nb in (1, 2, 3):
            options = index_graph_options(nb)
            for cores in (1, 2):
                fam = CoveringFamily.principal(cores, range(cores))
                for graphs in product(options, repeat=cores):
                    t = Trace(fam, nb, [vs for vs, _ in graphs],
                              [es for _, es in graphs])
                    assert (eta_extension(t) is not None) == \
                        (find_multiplicative_refinement(t) is not None)
    verdict("eta-extension-equivalence", 120, check)


def test_quorum_counterexample_has_no_refinement(tmp_path, capsys):
    def check():
        t = parse_trace(QUORUM_CEX_TRACE)
        assert is_pair_adequate(t)
        assert find_multiplicative_refinement(t) is None
        path = tmp_path / "cex.trace"
        path.write_text(QUORUM_CEX_TRACE)
        code = main(["trace-refine", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "none\n"
        # independent exhaustive sweep over clique tuples
        full = list(combinations(range(3), 2))
        per_index = []
        for a in range(3):
            cliques = []
            for size in range(4):
                for c in combinations(range(3), size):
                    if all(p in t.g2[a] for p in combinations(c, 2)):
                        cliques.append(set(c))
            per_index.append(cliques)
        fam = t.family
        for pick in product(*per_index):
            covered = all(
                fam.is_member({a for a, k in enumerate(pick) if b in k})
                for b in range(3))
            if covered:
                covered = all(
                    fam.is_member({a for a, k in enumerate(pick)
                                   if p[0] in k and p[1] in k})
                    for p in full)
            assert not covered
    verdict("quorum-counterexample", None, check)


def complete_principal_trace(rng):
    ni = rng.randrange(1, 4)
    nb = rng.randrange(1, 4)
    core = rng.sample(range(ni), rng.randrange(1, ni + 1))
    fam = CoveringFamily.principal(ni, core)
    vs = set(range(nb))
    es = list(combinations(range(nb), 2))
    return Trace(fam, nb, [vs] * ni, [es] * ni)


def test_emitted_certificates_reverify():
    def check():
        witnesses = 0
        models = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                for shape in (TREE, INTERVAL):
                    w = recognize(shape, g)
                    if w is not None:
                        assert parse_witness(format_witness(w)).checks(g)
                        witnesses += 1
                got = realize_intervals(g)
                if hasattr(got, "intervals"):
                    assert parse_interval_model(
                        format_interval_model(got)).checks(g)
                    models += 1
                else:
                    assert got.checks(g)
        assert witnesses > 30 and models > 30
        rng = random.Random(31)
        refined = 0
        for _ in range(2000):
            t = random_trace(rng, rng.randrange(1, 4), rng.randrange(1, 5))
            r = find_multiplicative_refinement(t)
            if r is not None:
                rt = parse_trace(format_trace(r))
                assert is_refinement(rt, t) and is_multiplicative_trace(rt)
                refined += 1
            if refined >= 40:
                break
        assert refined >= 40
        for _ in range(20):
            t = complete_principal_trace(rng)
            s = eta_extension(t)
            assert s is not None
            s2 = parse_internal_set(format_internal_set(s))
            rp = build(t)
            assert s2.is_clique_in(rp)
            for tup in eta(t).values():
                assert s2.contains(tup)
    verdict("certificate-reverification", None, check)
