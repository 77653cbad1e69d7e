"""Isomorphism classes of small graphs: canonical forms, automorphisms,
isomorphism tests and one-per-class enumeration.

The canonical form of a graph is the minimum, over all vertex
permutations, of the upper-triangle adjacency bit string read column by
column: placing vertices one at a time, each new vertex appends its
adjacency bits to the already-placed ones.  Reading the string as an
integer with the earliest bit most significant makes lexicographic
comparison plain integer comparison, and lets a branch-and-bound search
prune any partial placement whose prefix already exceeds the best known
string; the search also follows only the least adjacency blocks and
prunes by the automorphisms it meets (McKay 1981).

Enumeration for n is by extension: every class on n vertices arises
from a class on n-1 vertices by attaching one vertex with some
neighborhood.  Each parent tries one mask per orbit of its automorphism
group; a child is kept only when its new vertex has the largest
(degree, neighbour degree sum) pair, which some vertex of every class
has, so the sweep stays exhaustive (canonical deletion, McKay 1998).
Kept children are deduplicated by an isomorphism test (an induced
embedding between graphs of one size) within buckets of equal
invariants, and the canonical form runs once per class, for its key.

Enumeration is capped at n <= 8.  Only ``obstructions`` runs this
module, for canonical keys; ``graphs`` serves its names, so they stay
importable from there.
"""

from itertools import combinations

from .embeddings import iter_embeddings
from .errors import CapabilityError, InputError
from .graphs import INDUCED, Graph

ENUMERATION_CAP = 8


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



# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonical_form(g):
    """Minimum adjacency bit string and a permutation achieving it.

    Returns ``(key, perm)`` where ``perm[pos]`` is the original vertex
    placed at position ``pos``.  Bounded to n <= 8 like enumeration; the
    search places vertices one at a time and prunes three ways, none of
    which can hide the least string or change which permutation reaches
    it first:

    * only the unplaced vertices whose adjacency block to the placed
      ones is least are tried, since any other block makes every
      completion larger;
    * a prefix larger than the best complete string is cut;
    * two complete placements with the best string differ by an
      automorphism fixing their common prefix.  On meeting one the
      search leaves that subtree, which mirrors one already searched,
      and it skips any later candidate that an automorphism met so far,
      fixing the current prefix, maps onto a candidate already tried.
    """
    n = g.n
    if n > ENUMERATION_CAP:
        raise CapabilityError("canonical form bounded to n <= %d" % ENUMERATION_CAP)
    if n <= 1:
        return 0, tuple(range(n))
    rows = g.rows
    total = n * (n - 1) // 2
    hint = sorted(range(n), key=lambda v: (g.degree(v), v))
    best_key = None
    best_perm = None
    perm = [0] * n
    found = []

    def rec(pos, used, prefix, nbits, blocks):
        """Search below ``perm[:pos]``, where ``blocks[v]`` holds v's
        adjacency bits to ``perm[:pos]``; return the depth to resume at."""
        nonlocal best_key, best_perm
        if pos == n:
            if best_key is None or prefix < best_key:
                best_key = prefix
                best_perm = tuple(perm)
            elif prefix == best_key:
                gamma = [0] * n
                for a, b in zip(best_perm, perm):
                    gamma[a] = b
                found.append(gamma)
                return next(i for i in range(n) if perm[i] != best_perm[i])
            return n
        least = min(blocks[v] for v in hint if not used >> v & 1)
        np = (prefix << pos) | least
        nb = nbits + pos
        if best_key is not None and np > (best_key >> (total - nb)):
            return n
        tried = 0
        known = 0
        for v in hint:
            bit = 1 << v
            if used & bit or blocks[v] != least:
                continue
            if tried and found:
                if known != len(found):
                    known = len(found)
                    orbits = _stabilizer_orbits(n, found, perm[:pos])
                if orbits[v] & tried:
                    continue
            tried |= bit
            perm[pos] = v
            back = rec(pos + 1, used | bit, np, nb,
                       [b << 1 | (r >> v & 1) for b, r in zip(blocks, rows)])
            if back < pos:
                return back
        return n

    rec(0, 0, 0, 0, [0] * n)
    return best_key, best_perm


def _stabilizer_orbits(n, gammas, prefix):
    """Per vertex, the bitmask of its orbit under the group generated by
    the ``gammas`` that fix every vertex of ``prefix``."""
    orbit = [1 << v for v in range(n)]
    for gm in gammas:
        if any(gm[v] != v for v in prefix):
            continue
        for v in range(n):
            w = gm[v]
            if not orbit[v] >> w & 1:
                merged = orbit[v] | orbit[w]
                m = merged
                while m:
                    low = m & -m
                    orbit[low.bit_length() - 1] = merged
                    m ^= low
    return orbit


def canonical_key(g):
    return (g.n, canonical_form(g)[0])


def canonical_graph(g):
    """The canonical representative of g's isomorphism class."""
    key, _ = canonical_form(g)
    return graph_from_canonical_key(g.n, key)


def graph_from_canonical_key(n, key):
    """The graph whose adjacency bit string, read column by column
    ((0,1), (0,2), (1,2), (0,3), ...), is ``key``."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return Graph(n, [p for k, p in enumerate(reversed(pairs)) if key >> k & 1])


# ---------------------------------------------------------------------------
# isomorphism tests
# ---------------------------------------------------------------------------

def is_isomorphic(a, b):
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    for _ in iter_embeddings(a, b, INDUCED):
        return True
    return False


def automorphisms(g):
    """All automorphisms of g as mapping tuples, ascending."""
    return list(iter_embeddings(g, g, INDUCED))


# ---------------------------------------------------------------------------
# one-per-class enumeration
# ---------------------------------------------------------------------------

_ENUM_CACHE = {0: (0,)}


def _extend_keys(n, parent_keys):
    """Canonical keys of all n-vertex classes reachable from the parents.

    Masks in one orbit of the parent's automorphisms attach isomorphic
    children, so each parent tries only the least mask of each orbit.
    A child is kept only if its new vertex has the largest invariant
    pair: every class arises by attaching such a vertex to some parent,
    so no class is lost.  Kept children are bucketed by their sorted
    invariant pairs and tested for isomorphism against the bucket's
    classes; the canonical form runs once per class.
    """
    buckets = {}
    for pk in parent_keys:
        parent = graph_from_canonical_key(n - 1, pk)
        auts = automorphisms(parent)
        seen = set()
        for mask in range(1 << (n - 1)):
            if mask in seen:
                continue
            seen.update(sum(1 << sigma[v] for v in range(n - 1)
                            if mask >> v & 1) for sigma in auts)
            child = Graph._from_rows(n, [r | (mask >> v & 1) << (n - 1)
                                         for v, r in enumerate(parent.rows)]
                                     + [mask])
            inv = _vertex_invariants(child)
            if inv[n - 1] < max(inv):
                continue
            reps = buckets.setdefault(tuple(sorted(inv)), [])
            if not any(is_isomorphic(child, r) for r in reps):
                reps.append(child)
    return {canonical_form(g)[0] for reps in buckets.values() for g in reps}


def _vertex_invariants(g):
    """Per vertex (degree, neighbour degree sum); isomorphisms keep them."""
    deg = [r.bit_count() for r in g.rows]
    out = []
    for v, r in enumerate(g.rows):
        total = 0
        while r:
            low = r & -r
            total += deg[low.bit_length() - 1]
            r ^= low
        out.append((deg[v], total))
    return out


def enumerate_graphs(n):
    """One representative per isomorphism class on n vertices, sorted by
    canonical key.  Bounded to n <= 8.
    """
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > ENUMERATION_CAP:
        raise CapabilityError("enumeration bounded to n <= %d" % ENUMERATION_CAP)
    for k in range(1, n + 1):
        if k not in _ENUM_CACHE:
            _ENUM_CACHE[k] = tuple(sorted(_extend_keys(k, _ENUM_CACHE[k - 1])))
    return [graph_from_canonical_key(n, key) for key in _ENUM_CACHE[n]]
