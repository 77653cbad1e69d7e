"""Independent brute-force oracles the test suite checks the package against.

Everything here is written the slow, obviously-correct way (raw
itertools sweeps, no pruning, no shared code with the package internals
beyond the Graph value type, unless an oracle's docstring names what it
shares) so that agreement is meaningful.
"""

from itertools import combinations, permutations

from ugl.distributions import (FullDistribution, PropertyReport, Trace,
                               _clique_choices, _pair, all_subsets)
from ugl.errors import InputError
from ugl.graphs import (EDGES_ONLY, INDUCED, Graph, find_embedding,
                        graph_from_mask, iter_embeddings, pair_index,
                        pair_order)
from ugl.necessary import _complete_to_member
from ugl.shapes import (ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY, INTERVAL,
                        IRREDUCIBLE_CYCLE, IntervalModel, ObstructionWitness,
                        _avoid_components, family_graph,
                        find_asteroidal_triple, recognize)


def brute_canonical_key(g):
    """Minimum adjacency bit string by trying every permutation."""
    n = g.n
    order = pair_order(n)
    total = n * (n - 1) // 2
    best = None
    for p in permutations(range(n)):
        bits = 0
        for idx, (i, j) in enumerate(order):
            if g.has_edge(p[i], p[j]):
                bits |= 1 << (total - 1 - idx)
        if best is None or bits < best:
            best = bits
    return best if best is not None else 0


def brute_classes(n):
    """All isomorphism classes on n labeled vertices via exhaustive dedup."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        seen.add(brute_canonical_key(g))
    return seen


def brute_embeddings(h, g, mode, bijective=False):
    """All injective embeddings h -> g by filtering raw injections."""
    out = []
    if bijective and h.n != g.n:
        return out
    for chosen in permutations(range(g.n), h.n):
        ok = True
        for u, v in combinations(range(h.n), 2):
            edge = g.has_edge(chosen[u], chosen[v])
            if h.has_edge(u, v):
                if not edge:
                    ok = False
                    break
            elif mode == "induced" and edge:
                ok = False
                break
        if ok:
            out.append(tuple(chosen))
    return out


def brute_maximal_cliques(g):
    """Maximal cliques by scanning all vertex subsets."""
    cliques = []
    vertices = list(range(g.n))
    subsets = []
    for r in range(g.n + 1):
        for s in combinations(vertices, r):
            if all(g.has_edge(u, v) for u, v in combinations(s, 2)):
                subsets.append(set(s))
    for s in subsets:
        if any(s < t for t in subsets):
            continue
        cliques.append(tuple(sorted(s)))
    return sorted(cliques)


def brute_interval_graph(g):
    """Is g an interval graph?  Try every distinct-endpoint assignment.

    Any interval graph has a representation with all 2n endpoints
    distinct (nudge ties apart), so this sweep is complete.  Only
    sensible for n <= 4 or 5.
    """
    n = g.n
    if n <= 1:
        return True
    for perm in permutations(range(2 * n)):
        ivs = []
        ok = True
        for v in range(n):
            a, b = perm[2 * v], perm[2 * v + 1]
            if a > b:
                ok = False
                break
            ivs.append((a, b))
        if not ok:
            continue
        good = True
        for u, v in combinations(range(n), 2):
            meets = max(ivs[u][0], ivs[v][0]) < min(ivs[u][1], ivs[v][1])
            if meets != g.has_edge(u, v):
                good = False
                break
        if good:
            return True
    return False


def brute_diagonal(g):
    """Direct check of the path-implies-diagonal condition on quadruples."""
    for q in permutations(range(g.n), 4):
        x0, x1, x2, x3 = q
        if g.has_edge(x0, x1) and g.has_edge(x1, x2) and g.has_edge(x2, x3):
            if not g.has_edge(x0, x2) and not g.has_edge(x1, x3):
                return False
    return True


def loop_diagonal_violation(g):
    """First quadruple x0-x1-x2-x3 (a walk of three edges on distinct
    vertices) with neither diagonal x0-x2 nor x1-x3, or None.

    The package's former four nested loops, kept verbatim: ``x0`` to
    ``x3`` ascend, so the first hit is the least quadruple.
    """
    n = g.n
    for x0 in range(n):
        for x1 in range(n):
            if x1 == x0 or not g.has_edge(x0, x1):
                continue
            for x2 in range(n):
                if x2 in (x0, x1) or not g.has_edge(x1, x2):
                    continue
                if g.has_edge(x0, x2):
                    continue
                for x3 in range(n):
                    if x3 in (x0, x1, x2) or not g.has_edge(x2, x3):
                        continue
                    if not g.has_edge(x1, x3):
                        return (x0, x1, x2, x3)
    return None


def brute_pattern_violation(t, host, b_edges):
    """Least (placement, index) where the index carries every placed host
    edge and no placed ``b_edges`` pair, by sweeping every injective
    placement of the host into the formula set, or None.

    ``t`` is a trace (a pair's support is the indices whose g2 holds it)
    or a full distribution (a pair's support is its value).  Supports
    are index bitmasks.
    """
    support = {}
    for u, v in combinations(range(t.n_formulas), 2):
        if hasattr(t, "map"):
            indices = t.map[frozenset((u, v))]
        else:
            indices = [a for a in range(t.n_indices) if (u, v) in t.g2[a]]
        support[u, v] = support[v, u] = sum(1 << a for a in indices)
    h_edges = host.edges()
    everything = (1 << t.n_indices) - 1
    for x in permutations(range(t.n_formulas), host.n):
        carried = everything
        for u, v in h_edges:
            carried &= support[x[u], x[v]]
        for u, v in b_edges:
            carried &= ~support[x[u], x[v]]
        if carried:
            return x, (carried & -carried).bit_length() - 1
    return None


def classwide_constraints(h, members):
    """Used-pair sets over edge-preserving injections of h into any member.

    ``members`` is an iterable of graphs (each with at least h.n
    vertices) meant to exhaust the shape's isomorphism classes up to
    some size.  Relabeling a member relabels the injections without
    changing the pulled-back used sets, so class representatives
    suffice.  Inclusion-wise this family should match the one computed
    from same-vertex-set completions alone.
    """
    ne = h.non_edges()
    fam = set()
    for m in members:
        for phi in brute_embeddings(h, m, "edges-only"):
            used = frozenset((u, v) for u, v in ne
                             if m.has_edge(phi[u], phi[v]))
            fam.add(used)
    return fam


def brute_sandwiches(h, edges):
    """(floor, banned) pair masks over every vertex permutation psi, each
    with the first psi inducing it, sorted.

    Masks index pairs by ``pair_order``.  The floor is E(H) plus the
    psi-images of E(H), the banned set is the psi-images of ``edges``,
    and psi counts only when the two are disjoint.
    """
    bit = [[0] * h.n for _ in range(h.n)]
    for i, (u, v) in enumerate(pair_order(h.n)):
        bit[u][v] = bit[v][u] = 1 << i
    h_edges = h.edges()
    base = 0
    for u, v in h_edges:
        base |= bit[u][v]
    out = {}
    for psi in permutations(range(h.n)):
        floor = base
        for u, v in h_edges:
            floor |= bit[psi[u]][psi[v]]
        banned = 0
        for u, v in edges:
            banned |= bit[psi[u]][psi[v]]
        if not floor & banned and (floor, banned) not in out:
            out[floor, banned] = psi
    return sorted(out.items())


def sandwich_counterexample(shape, h, edges):
    """``necessity_counterexample`` as it was before it searched from one
    sandwich: the completion search on every sandwich of
    ``brute_sandwiches`` in order, returning the first completion with
    the psi of its sandwich.  It shares ``_complete_to_member`` with the
    package.
    """
    n = h.n
    idx = pair_index(n)
    memo = {}
    for (floor, banned), psi in brute_sandwiches(h, edges):
        got = _complete_to_member(shape, n, idx, floor, banned, memo)
        if got is not None:
            return graph_from_mask(n, got), psi
    return None


def brute_constraints(shape, h):
    """Used sets over every member supergraph g2 of h on V(h) and every
    edge-preserving bijection psi of h into g2, sorted by (size, pairs).

    This is the sweep ``necessity_constraints`` ran before it kept only
    the identity placements; it shares ``recognize`` and
    ``iter_embeddings`` with the package.
    """
    ne = h.non_edges()
    out = set()
    for mask in range(1 << len(ne)):
        added = [ne[i] for i in range(len(ne)) if mask >> i & 1]
        g2 = h.with_edges(added)
        if recognize(shape, g2) is not None:
            continue
        for psi in iter_embeddings(h, g2, EDGES_ONLY, bijective=True):
            used = []
            for u, v in ne:
                a, b = psi[u], psi[v]
                if g2.has_edge(a, b):
                    used.append((u, v))
            out.add(frozenset(used))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def minimize_family(family):
    """Inclusion-minimal members of a family of sets, sorted by (size, pairs)."""
    fam = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(s)))
    keep = []
    for s in fam:
        if not any(t < s for t in keep):
            keep.append(s)
    return keep


def mask_loop_constraints(shape, h):
    """Added sets of every member supergraph of h on V(h), sorted by
    (size, pairs): ``necessity_constraints`` as it was before it listed
    only the minimal ones, recognizing all 2^|non-edges| supergraphs.
    It shares ``recognize`` with the package.
    """
    ne = h.non_edges()
    out = []
    for mask in range(1 << len(ne)):
        added = [ne[i] for i in range(len(ne)) if mask >> i & 1]
        if recognize(shape, h.with_edges(added)) is None:
            out.append(frozenset(added))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_minimal_hits(shape, h):
    """All minimal necessary sets as sorted tuples, sorted by (size,
    pairs): the subset sweep ``minimal_necessary_sets`` ran before it
    branched, over the family of ``mask_loop_constraints``.
    """
    ne = h.non_edges()
    fam = minimize_family(mask_loop_constraints(shape, h))
    if any(not s for s in fam):
        return []
    hits = []
    for size in range(len(ne) + 1):
        for combo in combinations(ne, size):
            s = set(combo)
            if any(set(prev) <= s for prev in hits):
                continue
            if all(s & f for f in fam):
                hits.append(combo)
    return hits


def recursive_chordless_cycle(g, min_len=4):
    """First chordless cycle of length >= min_len as a vertex list, or None.

    The search grows induced paths whose start is their minimum vertex
    and closes them when the tail sees the start and nothing else, so the
    first hit is deterministic.
    """
    n = g.n
    rows = g.rows

    def grow(path, blocked):
        tail = path[-1]
        m = rows[tail] & ~blocked
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            back = rows[w]
            inner = False
            sees_start = len(path) >= 2 and bool(back >> path[0] & 1)
            for p in path[1:-1]:
                if back >> p & 1:
                    inner = True
                    break
            if inner:
                continue
            if sees_start:
                if len(path) + 1 >= min_len:
                    return path + [w]
                continue
            got = grow(path + [w], blocked | (1 << w))
            if got:
                return got
        return None

    for v0 in range(n):
        low = (1 << (v0 + 1)) - 1
        got = grow([v0], low | (1 << v0))
        if got:
            return got
    return None


def search_recognize(shape, g):
    """The recognizer before the polynomial tests: induced C4 and L4
    searches for ``tree`` (the C4 search also runs on chordal graphs,
    which the package skips); the recursive chordless-cycle search and
    then the asteroidal-triple scan for ``interval``.  It shares
    ``find_embedding`` and ``find_asteroidal_triple`` with the package."""
    if shape == "tree":
        for kind in ("C4", "L4"):
            emb = find_embedding(family_graph(kind), g, INDUCED)
            if emb is not None:
                return ObstructionWitness(FORBIDDEN_FAMILY, emb.mapping,
                                          (kind, None))
        return None
    cycle = recursive_chordless_cycle(g)
    if cycle is not None:
        return ObstructionWitness(IRREDUCIBLE_CYCLE, cycle)
    triple = find_asteroidal_triple(g)
    if triple is not None:
        return ObstructionWitness(ASTEROIDAL_TRIPLE, triple)
    return None


def eager_asteroidal_triple(g):
    """``find_asteroidal_triple`` as it was when it built the
    avoid-component map of every vertex before the scan.  It shares
    ``_avoid_components`` with the package."""
    n = g.n
    comps = [_avoid_components(g, v) for v in range(n)]
    for a, b, c in combinations(range(n), 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        if (comps[c][a] == comps[c][b] != -1
                and comps[b][a] == comps[b][c] != -1
                and comps[a][b] == comps[a][c] != -1):
            return (a, b, c)
    return None


def backtracking_realize_intervals(g, distinct_endpoints=False):
    """An IntervalModel for g, or an ObstructionWitness if none exists.

    Backtracks over interleavings of the 2n endpoints: at each slot the
    next unplaced left endpoint or pending right endpoint is chosen, in
    ascending vertex order.  Opening a vertex next to an active
    non-neighbor, or closing one before all its neighbors were met,
    prunes the branch.  Endpoints land on 0..2n-1, so the model is
    normalized and all endpoints are pairwise distinct in either mode.
    It shares ``recognize`` with the package for the witness.
    """
    n = g.n
    if n == 0:
        return IntervalModel(0, (), distinct_endpoints)
    rows = g.rows
    left = [None] * n
    right = [None] * n
    met = [0] * n

    def rec(pos, active):
        if pos == 2 * n:
            return True
        for v in range(n):
            bit = 1 << v
            if left[v] is None:
                if active & ~rows[v]:
                    continue
                left[v] = pos
                met[v] |= active
                m = active
                while m:
                    u = (m & -m).bit_length() - 1
                    met[u] |= bit
                    m &= m - 1
                if rec(pos + 1, active | bit):
                    return True
                m = active
                while m:
                    u = (m & -m).bit_length() - 1
                    met[u] &= ~bit
                    m &= m - 1
                met[v] = 0
                left[v] = None
            elif right[v] is None and active & bit:
                if met[v] != rows[v]:
                    continue
                right[v] = pos
                if rec(pos + 1, active & ~bit):
                    return True
                right[v] = None
        return False

    if rec(0, 0):
        return IntervalModel(n, [(left[v], right[v]) for v in range(n)],
                             distinct_endpoints)
    witness = recognize(INTERVAL, g)
    assert witness is not None, "realization failed on an interval graph"
    return witness


def all_subsets_from_conjugate(levels):
    """The package's former ``distribution_from_conjugate``: every set
    present at level n is checked against all its subsets at every
    level below (3^n per index), and the first missing one is reported
    as (index, set, m)."""
    if not levels or not levels[0]:
        raise InputError("levels must cover at least one index")
    n_formulas = len(levels) - 1
    n_indices = len(levels[0])
    if any(len(lv) != n_indices for lv in levels):
        raise InputError("levels must agree on the index count")
    for n, lv in enumerate(levels):
        for a in range(n_indices):
            for d in lv[a]:
                if len(d) != n:
                    raise InputError(
                        "level %d holds a size-%d set at index %d" % (n, len(d), a))
                for m in range(n):
                    for sub in combinations(sorted(d), m):
                        if frozenset(sub) not in levels[m][a]:
                            raise InputError(
                                "levels not hereditary at index %d: %r present "
                                "but %r missing at level %d"
                                % (a, sorted(d), sorted(sub), m))
    mapping = {}
    for d in all_subsets(n_formulas):
        mapping[d] = frozenset(
            a for a in range(n_indices) if d in levels[len(d)][a])
    return FullDistribution(n_formulas, n_indices, mapping)


def pairwise_check_properties(f, instance=None):
    """``check_properties`` as it was, deciding multiplicativity over
    every pair (d, e) of formula sets: 4^n unions.

    Property verdicts for a full distribution.

    monotone: growing the formula set shrinks the value.  graph_like:
    sets of size >= 2 are pinned down by their pairs.  multiplicative:
    values of unions are intersections of values.  pairwise_splitting:
    pair values are intersections of singleton values.  refines_los
    (only with an instance): every index in a value sees the formula
    set as a clique of its instance graph.  The first witness of each
    failure lands in the report's witnesses dict.
    """
    subs = all_subsets(f.n_formulas)
    wit = {}
    monotone = True
    for d in subs:
        for x in range(f.n_formulas):
            if x in d:
                continue
            if not f.map[d | {x}] <= f.map[d]:
                monotone = False
                wit["monotone"] = (d, d | {x})
                break
        if not monotone:
            break
    graph_like = True
    for d in subs:
        if len(d) < 2:
            continue
        meet = None
        for p in combinations(sorted(d), 2):
            v = f.map[frozenset(p)]
            meet = v if meet is None else meet & v
        if f.map[d] != meet:
            graph_like = False
            wit["graph_like"] = d
            break
    multiplicative = True
    for d in subs:
        for e in subs:
            if f.map[d | e] != f.map[d] & f.map[e]:
                multiplicative = False
                wit["multiplicative"] = (d, e)
                break
        if not multiplicative:
            break
    pairwise_splitting = True
    for u, v in combinations(range(f.n_formulas), 2):
        if (f.map[frozenset((u, v))]
                != f.map[frozenset((u,))] & f.map[frozenset((v,))]):
            pairwise_splitting = False
            wit["pairwise_splitting"] = (u, v)
            break
    refines = None
    if instance is not None:
        refines = True
        for d in subs:
            for a in sorted(f.map[d]):
                if not instance.is_clique(a, d):
                    refines = False
                    wit["refines_los"] = (d, a)
                    break
            if refines is False:
                break
    return PropertyReport(monotone, graph_like, multiplicative,
                          pairwise_splitting, refines, wit)


def recursive_multiplicative_refinement(t):
    """``find_multiplicative_refinement`` as it was, recursing once per
    index.

    A per-index clique sub-trace covering all formulas and pairs, or None.

    Backtracks over maximal-clique choices in index order, cliques in
    ascending order, so the first solution is the lexicographically
    least; after each choice every formula and pair is checked for a
    still-reachable family member (known support plus all undecided
    indices).  None means the exhaustive search proved no assignment
    covers everything.
    """
    n = t.n_indices
    nb = t.n_formulas
    choices = [_clique_choices(t, a) for a in range(n)]
    formulas = list(range(nb))
    pairs = list(combinations(range(nb), 2))
    fam = t.family
    assigned = []

    def feasible():
        rest = frozenset(range(len(assigned), n))
        for b in formulas:
            support = frozenset(a for a, k in enumerate(assigned) if b in k)
            if not fam.is_member(support | rest):
                return False
        for p in pairs:
            support = frozenset(a for a, k in enumerate(assigned)
                                if p[0] in k and p[1] in k)
            if not fam.is_member(support | rest):
                return False
        return True

    def search():
        if len(assigned) == n:
            return True
        for clique in choices[len(assigned)]:
            assigned.append(set(clique))
            if feasible() and search():
                return True
            assigned.pop()
        return False

    if not search():
        return None
    g1 = [frozenset(k) for k in assigned]
    g2 = [frozenset(_pair(u, v) for u, v in combinations(sorted(k), 2))
          for k in assigned]
    return Trace(t.family, nb, g1, g2, t.instance)
