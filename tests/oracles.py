"""Independent brute-force oracles the test suite checks the package against.

Everything here is written the slow, obviously-correct way (raw
itertools sweeps, no pruning, no shared code with the package internals
beyond the Graph value type, unless an oracle's docstring or section
names what it shares) so that agreement is meaningful.
"""

from itertools import combinations, permutations

from ugl import _bits, chordal
from ugl.catalog import INTERVAL, family_graph
from ugl.completions import _check_pairs, _minimal_hits, _Spend
from ugl.distributions import Trace
from ugl.embeddings import iter_embeddings
from ugl.errors import CapabilityError, ConsistencyError, InputError
from ugl.fulldist import FullDistribution, PropertyReport, all_subsets
from ugl.graphs import EDGES_ONLY, INDUCED, Graph, find_embedding
from ugl.intervals import IntervalModel
from ugl.isomorphism import (canonical_key, enumerate_graphs,
                             graph_from_canonical_key)
from ugl.necessary import necessity_constraints
from ugl.obstructions import OBSTRUCTION_CAP
from ugl.shapes import (ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY,
                        IRREDUCIBLE_CYCLE, ObstructionWitness,
                        _avoid_components, find_asteroidal_triple, recognize)


def pair_order(n):
    """Pairs (i, j), i < j, in column order: (0,1),(0,2),(1,2),(0,3),..."""
    return [(i, j) for j in range(n) for i in range(j)]


def graph_from_mask(n, mask):
    """The graph whose edges are the pairs of a mask over pair_order(n)."""
    return Graph(n, [p for i, p in enumerate(pair_order(n)) if mask >> i & 1])


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


def brute_embeddings(h, g, mode):
    """All injective embeddings h -> g by filtering raw injections."""
    out = []
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


def degree_scan_iter_embeddings(h, g, mode, avoid=None):
    """``embeddings.iter_embeddings`` as it was before its set-up bucketed the
    vertices by degree (one ``degree`` call per vertex of g and one scan
    of every vertex per host vertex) and before its search ran on an
    explicit stack: one generator frame per pattern vertex, so a pattern
    of about 1,000 vertices exceeds the recursion limit.  Shares the
    Graph type only."""
    if h.n > g.n:
        return
    if h.n == 0:
        yield ()
        return
    hrows, grows = h.rows, g.rows
    forbid = h.complement().rows if mode == INDUCED else (0,) * h.n
    if avoid is not None:
        forbid = [f | a for f, a in zip(forbid, avoid.rows)]
    gdeg = [g.degree(v) for v in range(g.n)]
    allowed = []
    for v in range(h.n):
        need_in, need_out = h.degree(v), bin(forbid[v]).count("1")
        allowed.append(sum(1 << c for c in range(g.n) if gdeg[c] >= need_in
                           and g.n - 1 - gdeg[c] >= need_out))
    adj_before = [[i for i in range(k) if hrows[k] >> i & 1] for k in range(h.n)]
    forbid_before = [[i for i in range(k) if forbid[k] >> i & 1]
                     for k in range(h.n)]
    mapping = [0] * h.n

    def rec(k, used):
        if k == h.n:
            yield tuple(mapping)
            return
        cands = allowed[k] & ~used
        for i in adj_before[k]:
            cands &= grows[mapping[i]]
        for i in forbid_before[k]:
            cands &= ~grows[mapping[i]]
        while cands:
            low = cands & -cands
            mapping[k] = low.bit_length() - 1
            yield from rec(k + 1, used | low)
            cands ^= low

    yield from rec(0, 0)


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


def recursive_maximal_cliques(g, within=None):
    """``enumerate_maximal_cliques`` as it was, recursing once per clique
    vertex: Bron-Kerbosch with a pivot of most candidate neighbors."""
    rows = g.rows
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot = -1
        best = -1
        m = px
        while m:
            v = (m & -m).bit_length() - 1
            score = (p & rows[v]).bit_count()
            if score > best:
                best, pivot = score, v
            m &= m - 1
        ext = p & ~rows[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            expand(r | bit, p & rows[v], x & rows[v])
            p &= ~bit
            x |= bit
            ext &= ext - 1

    expand(0, (1 << g.n) - 1 if within is None else within, 0)
    return sorted(tuple(v for v in range(g.n) if r >> v & 1) for r in out)


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
        if hasattr(t, "masks"):
            indices = t.at((u, v))
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


_TREE_PATTERN_NON_EDGES = {"C4": ((0, 2), (1, 3)), "L4": ((0, 2), (0, 3), (1, 3))}


def all_pairs_branch_bits(n, idx, mask, banned, witness):
    """The branching pairs of a witness as positions of ``idx``, a map
    from every pair of ``pair_order(n)``: those neither in ``mask`` nor
    in ``banned`` that are a chord of a chordless cycle, incident to an
    asteroidal triple, or a missing pair of an induced 4-cycle or 4-path.
    """
    def pos(a, b):
        return idx[(a, b) if a < b else (b, a)]

    vs = witness.vertices
    if witness.kind == FORBIDDEN_FAMILY:
        pattern = _TREE_PATTERN_NON_EDGES[witness.family[0]]
        cands = {pos(vs[u], vs[v]) for u, v in pattern}
    elif witness.kind == IRREDUCIBLE_CYCLE:
        k = len(vs)
        cands = {pos(vs[i], vs[j])
                 for i in range(k) for j in range(i + 2, k - (i == 0))}
    else:
        cands = {pos(x, y) for x in vs for y in range(n) if y != x}
    free = ~(mask | banned)
    return sorted(p for p in cands if free >> p & 1)


def recursive_complete_to_member(shape, n, idx, floor, banned, memo):
    """Mask over ``pair_order(n)`` of a shape member g with floor <= g <=
    ~banned, or None: the recursive depth-first completion search
    ``necessary`` ran while its masks spanned every pair, children in
    ascending order, recognition memoized in ``memo``.
    """
    dead = set()

    def search(mask):
        if mask in dead:
            return None
        if mask not in memo:
            memo[mask] = recognize(shape, graph_from_mask(n, mask))
        w = memo[mask]
        if w is None:
            return mask
        for p in all_pairs_branch_bits(n, idx, mask, banned, w):
            got = search(mask | (1 << p))
            if got is not None:
                return got
        dead.add(mask)
        return None

    return search(floor)


def recursive_counterexample(shape, h, edges):
    """``necessity_counterexample`` as it was while its masks spanned
    every pair: the least psi(B) over the automorphisms of h, in
    ascending order, then ``recursive_complete_to_member`` from E(H).
    It shares ``iter_embeddings`` and ``recognize`` with the package.
    """
    n = h.n
    idx = {p: i for i, p in enumerate(pair_order(n))}
    banned = psi = None
    for phi in iter_embeddings(h, h, INDUCED):
        mask = 0
        for u, v in edges:
            a, b = phi[u], phi[v]
            mask |= 1 << idx[(a, b) if a < b else (b, a)]
        if banned is None or mask < banned:
            banned, psi = mask, phi
    floor = sum(1 << idx[e] for e in h.edges())
    got = recursive_complete_to_member(shape, n, idx, floor, banned, {})
    if got is None:
        return None
    return graph_from_mask(n, got), psi


def sandwich_counterexample(shape, h, edges):
    """``necessity_counterexample`` as it was before it searched from one
    sandwich: the completion search on every sandwich of
    ``brute_sandwiches`` in order, returning the first completion with
    the psi of its sandwich.  It runs ``recursive_complete_to_member``.
    """
    n = h.n
    idx = {p: i for i, p in enumerate(pair_order(n))}
    memo = {}
    for (floor, banned), psi in brute_sandwiches(h, edges):
        got = recursive_complete_to_member(shape, n, idx, floor, banned, memo)
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
        for psi in iter_embeddings(h, g2, EDGES_ONLY):
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


def enumerated_minimal_obstructions(shape, max_n):
    """The package's former ``minimal_obstructions``: every class with at
    most ``max_n`` vertices, in enumeration order, that the shape rejects
    while accepting each of its one-vertex-deleted subgraphs."""
    out = []
    for n in range(0, max_n + 1):
        for g in enumerate_graphs(n):
            if recognize(shape, g) is None:
                continue
            subs = (induced_subgraph(g, [u for u in range(n) if u != v])
                    for v in range(n))
            if all(recognize(shape, sub) is None for sub in subs):
                out.append(g)
    return out


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


def backtracking_realize_intervals(g):
    """An IntervalModel for g, or an ObstructionWitness if none exists.

    Backtracks over interleavings of the 2n endpoints: at each slot the
    next unplaced left endpoint or pending right endpoint is chosen, in
    ascending vertex order.  Opening a vertex next to an active
    non-neighbor, or closing one before all its neighbors were met,
    prunes the branch.  Endpoints land on 0..2n-1, so the model is
    normalized and all endpoints are pairwise distinct.  It shares
    ``recognize`` with the package for the witness.
    """
    n = g.n
    if n == 0:
        return IntervalModel(0, ())
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
        return IntervalModel(n, [(left[v], right[v]) for v in range(n)])
    witness = recognize(INTERVAL, g)
    assert witness is not None, "realization failed on an interval graph"
    return witness


def mask_chordal_cliques(rows):
    """``chordal.chordal_cliques`` as it was when it kept each clique as
    a full-width vertex bitmask: maximum cardinality search, the same
    cliques in the same order.  It shares ``_bits`` with the package.
    """
    n = len(rows)
    weight = [0] * n
    last = [-1] * n
    buckets = [(1 << n) - 1]
    top = 0
    numbered = 0
    order = []
    maximal = [True] * n
    clique = [0] * n
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        seen = rows[v] & numbered
        p = last[v]
        if p >= 0:
            if seen & ~rows[p] & ~(1 << p):
                return None
            if weight[v] == weight[p] + 1:
                maximal[p] = False
        clique[v] = seen | low
        order.append(v)
        numbered |= low
        for u in _bits(rows[v] & ~numbered):
            k = weight[u]
            buckets[k] ^= 1 << u
            if k + 1 == len(buckets):
                buckets.append(0)
            buckets[k + 1] |= 1 << u
            weight[u] = k + 1
            last[u] = v
        if top + 1 < len(buckets) and buckets[top + 1]:
            top += 1
    return [clique[v] for v in order if maximal[v]]


def row_mask_clique_spans(rows, cliques):
    """``chordal.clique_spans`` as it was when it built every vertex's
    row of clique positions as a bitmask before anything else: the
    consecutive-ones test by overlap components, keeping the given
    clique order when every row is already consecutive in it.  It reads
    the cliques as ``chordal_cliques`` returns them, (lowest vertex,
    shifted mask) pairs, and shares ``_bits`` with the package.
    """
    n = len(rows)
    k = len(cliques)
    row = [0] * n
    for i, (lo, c) in enumerate(cliques):
        for v in _bits(c << lo):
            row[v] |= 1 << i
    if all(not (r + (r & -r)) & r for r in row):
        # the search order of the cliques already works, as it mostly
        # does on small graphs
        return [((r & -r).bit_length() - 1, r.bit_length() - 1) for r in row]
    # classes of cliques in a doubly linked list; ends[0] is the head of
    # the component being built, ends[1] its tail
    cls, nxt, prv, where = [], [], [], [0] * k
    ends = [0, 0]

    def link(mask, left, right):
        c = len(cls)
        cls.append(mask)
        prv.append(left)
        nxt.append(right)
        if left < 0:
            ends[0] = c
        else:
            nxt[left] = c
        if right < 0:
            ends[1] = c
        else:
            prv[right] = c
        for i in _bits(mask):
            where[i] = c

    def split(c, r, before):
        """Move the r-part of class c to a new class beside it."""
        part = cls[c] & r
        if part != cls[c]:
            cls[c] ^= part
            if before:
                link(part, prv[c], c)
            else:
                link(part, c, nxt[c])

    def add(r, union):
        """Place row r, which overlaps a placed row; False if it cannot."""
        touched = {where[i] for i in _bits(r & union)}
        first = next(iter(touched))
        while prv[first] in touched:
            first = prv[first]
        run = [first]
        while nxt[run[-1]] in touched:
            run.append(nxt[run[-1]])
        if len(run) != len(touched) or any(cls[c] & ~r for c in run[1:-1]):
            return False
        first, last = run[0], run[-1]
        new = r & ~union
        right = left = False
        if new:
            right = last == ends[1] and (first == last or not cls[last] & ~r)
            left = not right and first == ends[0] and (
                first == last or not cls[first] & ~r)
            if not (right or left):
                return False
        if first != last:
            split(first, r, False)
            split(last, r, True)
        elif right or left:
            split(first, r, left)
        if right:
            link(new, ends[1], -1)
        elif left:
            link(new, -1, ends[0])
        return True

    components = []
    placed = set()
    for v in range(n):
        if row[v] in placed:
            continue
        placed.add(row[v])
        link(row[v], -1, -1)
        union = row[v]
        stack = [v]
        while stack:
            u = stack.pop()
            r = row[u]
            for w in _bits(rows[u]):
                s = row[w]
                if s in placed or not (s & ~r and r & ~s):
                    continue
                if not add(s, union):
                    return None
                placed.add(s)
                union |= s
                stack.append(w)
        order = [ends[0]]
        while nxt[order[-1]] >= 0:
            order.append(nxt[order[-1]])
        components.append((-union.bit_count(), len(order), order))
    components.sort(key=lambda comp: comp[:2])
    chain = [[] for _ in range(k)]
    for cid, (_, _, order) in enumerate(components):
        for pos, c in enumerate(order):
            for i in _bits(cls[c]):
                chain[i].append((cid, pos))
    at = [0] * k
    for pos, i in enumerate(sorted(range(k), key=chain.__getitem__)):
        at[i] = pos
    spans = []
    for v in range(n):
        ps = [at[i] for i in _bits(row[v])]
        if max(ps) - min(ps) + 1 != len(ps):
            return None
        spans.append((min(ps), max(ps)))
    return spans


def list_realize_intervals(g):
    """``realize_intervals`` as it was when it listed each clique
    position's opening and closing vertices and built the model through
    the checking constructor.  It shares ``chordal_cliques`` and, for a
    non-member's witness, ``recognize`` with the package (read through
    their modules, so a test that replaces the one replaces both), and
    orders the cliques with ``row_mask_clique_spans``.
    """
    cliques = chordal.chordal_cliques(g.rows)
    spans = None if cliques is None else row_mask_clique_spans(g.rows, cliques)
    if spans is None:
        return recognize(INTERVAL, g)
    n = g.n
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for v, (first, last) in enumerate(spans):
        opens[first].append(v)
        closes[last].append(v)
    left = [0] * n
    right = [0] * n
    pos = 0
    for p in range(n):
        for v in opens[p]:
            left[v] = pos
            pos += 1
        for v in closes[p]:
            right[v] = pos
            pos += 1
    return IntervalModel(n, list(zip(left, right)))


def pairwise_model_checks(m, g):
    """``IntervalModel.checks`` by testing every pair of vertices."""
    if m.n != g.n:
        return False
    iv = m.intervals
    for u, v in combinations(range(g.n), 2):
        meets = max(iv[u][0], iv[v][0]) < min(iv[u][1], iv[v][1])
        if meets != g.has_edge(u, v):
            return False
    return True


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


def frozenset_extension(t):
    """The package's former ``extension_distribution``, on frozensets: the
    level maps of the trace built set by set (``graphlike_extension`` as
    it was), then each formula set's value read off its level, as a dict
    from formula frozensets to index frozensets."""
    levels = []
    for n in range(t.n_formulas + 1):
        per = []
        for a in range(t.n_indices):
            good = []
            for c in combinations(sorted(t.g1[a]), n):
                if all((u, v) in t.g2[a] for u, v in combinations(c, 2)):
                    good.append(frozenset(c))
            per.append(frozenset(good))
        levels.append(tuple(per))
    return {d: frozenset(a for a in range(t.n_indices)
                         if d in levels[len(d)][a])
            for d in all_subsets(t.n_formulas)}


def frozenset_check_properties(f, instance=None, pairwise=False):
    """``check_properties`` as it was, on frozensets: formula sets and
    values are frozensets, read from ``f.map`` or from ``f`` itself when
    it is such a dict.  Multiplicativity is decided by one meet per
    formula set, from the set without its least formula, or, with
    ``pairwise``, over every pair (d, e) of formula sets: 4^n unions.

    monotone: growing the formula set shrinks the value.  graph_like:
    sets of size >= 2 are pinned down by their pairs.  multiplicative:
    values of unions are intersections of values.  pairwise_splitting:
    pair values are intersections of singleton values.  refines_los
    (only with an instance): every index in a value sees the formula
    set as a clique of its instance graph.  The first witness of each
    failure lands in the report's witnesses dict.
    """
    fmap = f if isinstance(f, dict) else f.map
    n_formulas = len(fmap).bit_length() - 1
    subs = all_subsets(n_formulas)
    wit = {}
    monotone = True
    for d in subs:
        for x in range(n_formulas):
            if x in d:
                continue
            if not fmap[d | {x}] <= fmap[d]:
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
            v = fmap[frozenset(p)]
            meet = v if meet is None else meet & v
        if fmap[d] != meet:
            graph_like = False
            wit["graph_like"] = d
            break
    if pairwise:
        multiplicative = all(fmap[d | e] == fmap[d] & fmap[e]
                             for d in subs for e in subs)
    else:
        value = [fmap[frozenset(b for b in range(n_formulas) if mask >> b & 1)]
                 for mask in range(1 << n_formulas)]
        meet = [value[0]] * (1 << n_formulas)
        multiplicative = True
        for mask in range(1, 1 << n_formulas):
            low = mask & -mask
            meet[mask] = meet[mask ^ low] & value[low]
            if meet[mask] != value[mask]:
                multiplicative = False
                break
    if not multiplicative:
        wit["multiplicative"] = next(
            (d, e) for d in subs for e in subs
            if fmap[d | e] != fmap[d] & fmap[e])
    pairwise_splitting = True
    for u, v in combinations(range(n_formulas), 2):
        if (fmap[frozenset((u, v))]
                != fmap[frozenset((u,))] & fmap[frozenset((v,))]):
            pairwise_splitting = False
            wit["pairwise_splitting"] = (u, v)
            break
    refines = None
    if instance is not None:
        refines = True
        for d in subs:
            for a in sorted(fmap[d]):
                if not instance.is_clique(a, d):
                    refines = False
                    wit["refines_los"] = (d, a)
                    break
            if refines is False:
                break
    return PropertyReport(monotone, graph_like, multiplicative,
                          pairwise_splitting, refines, wit)


def pairwise_check_properties(f, instance=None):
    """``check_properties`` as it was before its multiplicative verdict
    took one meet per formula set: every pair (d, e) of formula sets is
    tried, 4^n unions."""
    return frozenset_check_properties(f, instance, pairwise=True)


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
    choices = [frozenset_clique_choices(t, a) for a in range(n)]
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
    g2 = [frozenset(combinations(sorted(k), 2)) for k in assigned]
    return Trace(t.family, nb, g1, g2, t.instance)


# ---------------------------------------------------------------------------
# traces on frozensets: the package's routines as they were before traces
# kept their graphs as bitmask rows.  Each reads the frozenset views
# ``g1``/``g2`` of the trace once.
# ---------------------------------------------------------------------------

def frozenset_graph_sequence(t):
    """Per-index (vertex tuple, Graph) pairs; edges are the g2 pairs."""
    g1, g2 = t.g1, t.g2
    return [(tuple(sorted(g1[a])), Graph(t.n_formulas, sorted(g2[a])))
            for a in range(t.n_indices)]


def frozenset_is_multiplicative_trace(t):
    """True iff every index with vertices carries a complete graph."""
    g1, g2 = t.g1, t.g2
    return all((u, v) in g2[a] for a in range(t.n_indices)
               for u, v in combinations(sorted(g1[a]), 2))


def frozenset_adequacy_report(t):
    """Formulas and pairs whose supports (index frozensets) miss the
    family, each sorted."""
    g1, g2 = t.g1, t.g2
    idx = range(t.n_indices)
    bad_b = [b for b in range(t.n_formulas) if not t.family.is_member(
        frozenset(a for a in idx if b in g1[a]))]
    bad_p = [p for p in combinations(range(t.n_formulas), 2)
             if not t.family.is_member(frozenset(a for a in idx if p in g2[a]))]
    return bad_b, bad_p


def frozenset_clique_choices(t, alpha):
    """Maximal cliques of the graph at alpha, as sorted vertex tuples: the
    brute-force cliques of the subgraph induced on g1, relabelled."""
    vs = sorted(t.g1[alpha])
    pos = {v: i for i, v in enumerate(vs)}
    sub = Graph(len(vs), [(pos[u], pos[v]) for u, v in t.g2[alpha]])
    return sorted(tuple(vs[i] for i in c) for c in brute_maximal_cliques(sub))


def frozenset_multiplicative_refinement(t):
    """``find_multiplicative_refinement`` on frozensets: the same
    iterative backtracking, cliques as vertex sets, supports as index
    frozensets rebuilt at every node."""
    n = t.n_indices
    nb = t.n_formulas
    choices = [frozenset_clique_choices(t, a) for a in range(n)]
    pairs = sorted(set().union(*t.g2))
    uncovered = len(pairs) < nb * (nb - 1) // 2
    fam = t.family
    assigned = []

    def feasible():
        rest = frozenset(range(len(assigned), n))
        if uncovered and not fam.is_member(rest):
            return False
        for b in range(nb):
            support = frozenset(a for a, k in enumerate(assigned) if b in k)
            if not fam.is_member(support | rest):
                return False
        for p in pairs:
            support = frozenset(a for a, k in enumerate(assigned)
                                if p[0] in k and p[1] in k)
            if not fam.is_member(support | rest):
                return False
        return True

    tried = [0] * n
    while len(assigned) < n:
        a = len(assigned)
        if tried[a] == len(choices[a]):
            if not assigned:
                return None
            assigned.pop()
            continue
        assigned.append(set(choices[a][tried[a]]))
        tried[a] += 1
        if not feasible():
            assigned.pop()
        elif a + 1 < n:
            tried[a + 1] = 0
    g1 = [frozenset(k) for k in assigned]
    g2 = [frozenset(combinations(sorted(k), 2)) for k in assigned]
    return Trace(t.family, nb, g1, g2, t.instance)


def frozenset_grow_clique(t, alpha, seed):
    """The seed grown by each further g1 vertex, ascending, adjacent to
    all of the clique so far."""
    g1, g2 = t.g1[alpha], t.g2[alpha]
    clique = set(seed)
    for v in sorted(g1):
        if v not in clique and all(tuple(sorted((u, v))) in g2
                                   for u in clique):
            clique.add(v)
    return frozenset(clique)


def frozenset_conjugate(f):
    """Level maps of a full distribution from its frozenset ``map``:
    level n sends each index to the size-n formula sets whose value
    contains it, in ``all_subsets`` order."""
    fmap = f.map
    levels = [[[] for _ in range(f.n_indices)]
              for _ in range(f.n_formulas + 1)]
    for d in all_subsets(f.n_formulas):
        for a in fmap[d]:
            levels[len(d)][a].append(d)
    return [tuple(map(frozenset, lv)) for lv in levels]


# ---------------------------------------------------------------------------
# covering families on frozensets: ``CoveringFamily`` as it was before
# index sets were masks, and the product edge count as a pair loop
# ---------------------------------------------------------------------------

def _frozen_indices(vals, bound, what):
    out = frozenset(vals)
    for v in out:
        if not isinstance(v, int) or not 0 <= v < bound:
            raise InputError("%s element %r out of range 0..%d" % (what, v, bound - 1))
    return out


class FrozensetCoveringFamily:
    """Upward closed family of nonempty subsets of a finite index set; the
    generator and the explicit members are frozensets, and every candidate
    set is checked and frozen on each call."""

    def __init__(self, index_count, kind, param):
        if index_count < 1:
            raise InputError("index set must be nonempty")
        if kind == "quorum":
            if not isinstance(param, int) or not 1 <= param <= index_count:
                raise InputError("quorum threshold must lie in 1..%d" % index_count)
        elif kind == "principal":
            param = _frozen_indices(param, index_count, "principal generator")
            if not param:
                raise InputError("principal generator must be nonempty")
        elif kind == "explicit":
            members = [_frozen_indices(m, index_count, "explicit member")
                       for m in param]
            if not members:
                raise InputError("explicit family needs at least one member")
            for m in members:
                if not m:
                    raise InputError("explicit member must be nonempty")
            for a, b in combinations(members, 2):
                if a <= b or b <= a:
                    raise InputError(
                        "explicit members must be incomparable minimal sets")
            param = tuple(sorted(members, key=sorted))
        else:
            raise InputError("unknown family kind %r" % kind)
        self.index_count, self.kind, self.param = index_count, kind, param

    def __eq__(self, other):
        return (isinstance(other, FrozensetCoveringFamily)
                and (self.index_count, self.kind, self.param)
                == (other.index_count, other.kind, other.param))

    def __repr__(self):
        if self.kind == "quorum":
            detail = "k=%d" % self.param
        elif self.kind == "principal":
            detail = "J=%r" % sorted(self.param)
        else:
            detail = "members=%r" % [sorted(m) for m in self.param]
        return "CoveringFamily(%d, %s, %s)" % (self.index_count, self.kind, detail)

    def is_member(self, s):
        s = _frozen_indices(s, self.index_count, "candidate set")
        if self.kind == "quorum":
            return len(s) >= self.param
        if self.kind == "principal":
            return self.param <= s
        return any(m <= s for m in self.param)

    def minimal_members(self):
        if self.kind == "quorum":
            return [frozenset(c) for c in
                    combinations(range(self.index_count), self.param)]
        if self.kind == "principal":
            return [self.param]
        return sorted(self.param, key=sorted)

    def restrict(self, ess):
        ess = _frozen_indices(ess, self.index_count, "restriction range")
        if not self.is_member(ess):
            raise ConsistencyError("restriction range is not a family member")
        order = sorted(ess)
        renum = {a: i for i, a in enumerate(order)}
        outside = self.index_count - len(order)
        if self.kind == "quorum":
            k = self.param - outside
            if k <= 0:
                raise ConsistencyError(
                    "restriction admits the empty set (quorum met outside)")
            return FrozensetCoveringFamily(len(order), "quorum", k)
        if self.kind == "principal":
            return FrozensetCoveringFamily(
                len(order), "principal", [renum[a] for a in self.param])
        cut = {frozenset(renum[a] for a in m & ess) for m in self.param}
        if frozenset() in cut:
            raise ConsistencyError(
                "restriction admits the empty set (member disjoint from range)")
        keep = [m for m in cut if not any(o < m for o in cut)]
        return FrozensetCoveringFamily(len(order), "explicit", keep)


def loop_edge_count(rp):
    """The edges of a reduced product, counted over every vertex pair."""
    return sum(1 for a, b in combinations(rp.vertices(), 2)
               if rp.has_edge(a, b))


# ---------------------------------------------------------------------------
# second routes that left the package, moved unchanged: the necessity
# decision against the explicit constraint family, the flags read off the
# minimal sets, induced subgraphs, and the comparability graphs of every
# rooted forest.  They share what their imports name: the package's
# constraint sweep, its minimal hitting sets and its canonical keys.
# ---------------------------------------------------------------------------

def necessary_by_enumeration(shape, h, edges):
    """Necessity decided against the explicit constraint family."""
    _check_pairs(h, edges)
    b = set(edges)
    return all(b & s for s in necessity_constraints(shape, h))


def compute_flags(shape, h, edges):
    """The full flag vector for a candidate set, read off the minimal sets.

    A set is necessary when it contains a minimal necessary set, and
    subset-minimal when it is one.
    """
    _check_pairs(h, edges)
    b = tuple(sorted(edges))
    mins = _minimal_hits(shape, h, _Spend())
    smallest = min((len(s) for s in mins), default=0)
    mincard = b in mins and len(b) == smallest
    return {"necessary": any(set(s) <= set(b) for s in mins),
            "submin": b in mins, "mincard": mincard,
            "unique": mincard and sum(len(s) == smallest for s in mins) == 1}


def induced_subgraph(g, vertices):
    """Induced subgraph on ``vertices``, relabeled 0.. in ascending order.

    Out-of-range or repeated vertices are input errors.
    """
    vs = sorted(vertices)
    if len(set(vs)) != len(vs):
        raise InputError("repeated vertex in induced subgraph selection")
    for v in vs:
        if not (0 <= v < g.n):
            raise InputError("vertex %r out of range" % (v,))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in combinations(vs, 2) if g.has_edge(u, v)]
    return Graph(len(vs), edges)


def _rooted_trees(max_size):
    """Rooted trees as canonical nested tuples, per size; a tree is the
    sorted tuple of its child subtrees."""
    trees = {1: [()]}
    sizes = {(): 1}
    for s in range(2, max_size + 1):
        found = set()

        def fill(remaining, pool_index, chosen, pool):
            if remaining == 0:
                found.add(tuple(sorted(chosen)))
                return
            for i in range(pool_index, len(pool)):
                t = pool[i]
                if sizes[t] <= remaining:
                    fill(remaining - sizes[t], i, chosen + [t], pool)

        pool = [t for size in range(1, s) for t in trees[size]]
        fill(s - 1, 0, [], pool)
        trees[s] = sorted(found)
        for t in trees[s]:
            sizes[t] = s
    return trees, sizes


def _forest_graph(forest, sizes):
    """Comparability graph of a forest (ancestor pairs are edges)."""
    total = sum(sizes[t] for t in forest)
    edges = []
    next_id = 0

    def walk(tree, ancestors):
        nonlocal next_id
        me = next_id
        next_id += 1
        edges.extend((a, me) for a in ancestors)
        for child in tree:
            walk(child, ancestors + [me])

    for tree in forest:
        walk(tree, [])
    return Graph(total, edges)


def forest_comparability_classes(max_n):
    """Canonical forms of comparability graphs of all rooted forests with
    at most ``max_n`` nodes, sorted.  Bounded to max_n <= 7."""
    if max_n > OBSTRUCTION_CAP:
        raise CapabilityError("forest enumeration bounded to n <= %d" % OBSTRUCTION_CAP)
    trees, sizes = _rooted_trees(max_n) if max_n >= 1 else ({}, {})
    pool = [t for s in range(1, max_n + 1) for t in trees[s]]
    forests = []

    def fill(remaining, pool_index, chosen):
        forests.append(list(chosen))
        for i in range(pool_index, len(pool)):
            t = pool[i]
            if sizes[t] <= remaining:
                fill(remaining - sizes[t], i, chosen + [t])

    fill(max_n, 0, [])
    keys = {canonical_key(_forest_graph(f, sizes)) for f in forests}
    return [graph_from_canonical_key(n, key) for n, key in sorted(keys)]
