"""Finite simple graphs and the combinatorial kernel built on them.

Everything downstream (shape recognizers, obstruction catalogs, necessary
sets, reduced products) works over graphs on vertex set 0..n-1 stored as
per-vertex adjacency bitmasks.  This module owns:

* the ``Graph`` value type and its text format,
* induced subgraphs,
* injective embeddings (edges-only and induced modes, optionally with
  pairs that must map to non-edges) with deterministic, lexicographically
  least witnesses,
* one-per-isomorphism-class enumeration via canonical forms,
* maximal clique enumeration (Bron-Kerbosch with pivoting),
* isomorphism tests.

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
Kept children are deduplicated by a bijective embedding test within
buckets of equal invariants, and the canonical form runs once per
class, for its key.

Enumeration is capped at n <= 8.

All objects here are immutable, and every operation is a pure function.
"""

from itertools import combinations

from .errors import CapabilityError, InputError

ENUMERATION_CAP = 8
GRAPH_VERTEX_CAP = 10000


class Graph:
    """An immutable simple graph on vertices 0..n-1.

    Adjacency is a tuple of n bitmasks; bit v of ``rows[u]`` says u ~ v.
    Construction normalizes edge direction and ignores duplicates; loops
    and out-of-range endpoints are input errors.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, edges=()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            if u == v:
                raise InputError("loop at vertex %d" % u)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(cls, n, rows):
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # default slot-based pickling would setattr on restore
        return (Graph._from_rows, (self.n, self.rows))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, self.edges())

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def degree(self, v):
        return bin(self.rows[v]).count("1")

    def degree_sequence(self):
        return tuple(sorted(self.degree(v) for v in range(self.n)))

    def edge_count(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                out.append((u, v))
                m &= m - 1
        return out

    def non_edges(self):
        """Sorted list of unordered non-adjacent distinct pairs."""
        return [(u, v) for u, v in combinations(range(self.n), 2)
                if not self.has_edge(u, v)]

    def with_edges(self, extra):
        """New graph with ``extra`` pairs added as edges."""
        rows = list(self.rows)
        for u, v in extra:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError("bad extra edge (%r, %r)" % (u, v))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._from_rows(self.n, rows)

    def complement(self):
        full = (1 << self.n) - 1
        rows = [full & ~self.rows[v] & ~(1 << v) for v in range(self.n)]
        return Graph._from_rows(self.n, rows)


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
# text format
# ---------------------------------------------------------------------------

def parse_graph(text):
    """Parse the graph text format.

    One ``graph <n>`` header, then ``e <u> <v>`` lines with 0-based
    endpoints, u != v.  Duplicate edges, including reversed duplicates,
    are rejected.  Lines starting with ``#`` and blank lines are ignored.
    A header above ``GRAPH_VERTEX_CAP`` vertices is a capability error,
    raised before anything is allocated for the graph.
    """
    n = None
    rows = None
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "graph":
            if n is not None:
                raise InputError("duplicate graph header")
            if len(parts) != 2:
                raise InputError("malformed graph header: %r" % raw.strip())
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError("malformed vertex count: %r" % parts[1])
            if n < 0:
                raise InputError("negative vertex count")
            if n > GRAPH_VERTEX_CAP:
                raise CapabilityError("graphs bounded to %d vertices"
                                      % GRAPH_VERTEX_CAP)
            rows = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise InputError("edge before graph header")
            if len(parts) != 3:
                raise InputError("malformed edge line: %r" % raw.strip())
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError("malformed edge line: %r" % raw.strip())
            if u == v:
                raise InputError("loop at vertex %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge (%d, %d) out of range" % (u, v))
            if rows[u] >> v & 1:
                raise InputError("duplicate edge (%d, %d)" % (u, v))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            raise InputError("unknown directive %r in graph file" % parts[0])
    if n is None:
        raise InputError("missing graph header")
    return Graph._from_rows(n, rows)


def format_graph(g):
    lines = ["graph %d" % g.n]
    lines.extend("e %d %d" % e for e in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pair indexing (shared by canonical forms and the necessity machinery)
# ---------------------------------------------------------------------------

_PAIR_ORDER = {}


def pair_order(n):
    """Pairs (i, j), i < j, in column order: (0,1),(0,2),(1,2),(0,3),..."""
    if n not in _PAIR_ORDER:
        _PAIR_ORDER[n] = [(i, j) for j in range(n) for i in range(j)]
    return _PAIR_ORDER[n]


def pair_index(n):
    """Map pair -> position in pair_order(n)."""
    return {p: i for i, p in enumerate(pair_order(n))}


def edges_mask(g, index=None):
    """Edge set of g as a bitmask over pair_order positions."""
    index = index or pair_index(g.n)
    m = 0
    for e in g.edges():
        m |= 1 << index[e]
    return m


def graph_from_mask(n, mask):
    order = pair_order(n)
    edges = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        edges.append(order[i])
        mask &= mask - 1
    return Graph(n, edges)


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
    total = n * (n - 1) // 2
    edges = []
    for idx, (i, j) in enumerate(pair_order(n)):
        if key >> (total - 1 - idx) & 1:
            edges.append((i, j))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

EDGES_ONLY = "edges-only"
INDUCED = "induced"


class Embedding:
    """An injective vertex map witnessing h -> g in the given mode."""

    __slots__ = ("mapping", "mode")

    def __init__(self, mapping, mode):
        if mode not in (EDGES_ONLY, INDUCED):
            raise InputError("unknown embedding mode %r" % mode)
        object.__setattr__(self, "mapping", tuple(mapping))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Embedding is immutable")

    def __eq__(self, other):
        return (isinstance(other, Embedding)
                and self.mapping == other.mapping and self.mode == other.mode)

    def __hash__(self):
        return hash((self.mapping, self.mode))

    def __repr__(self):
        return "Embedding(%r, %r)" % (self.mapping, self.mode)

    def checks(self, h, g):
        """Re-verify this embedding from scratch."""
        m = self.mapping
        if len(m) != h.n or len(set(m)) != h.n:
            return False
        if any(not 0 <= v < g.n for v in m):
            return False
        for u, v in combinations(range(h.n), 2):
            if h.has_edge(u, v):
                if not g.has_edge(m[u], m[v]):
                    return False
            elif self.mode == INDUCED and g.has_edge(m[u], m[v]):
                return False
        return True


def iter_embeddings(h, g, mode, bijective=False, avoid=None):
    """Yield injective embeddings h -> g as mapping tuples, ascending.

    Every edge of h maps to an edge of g.  In ``INDUCED`` mode every
    non-edge of h maps to a non-edge of g as well.  ``avoid``, a graph
    on h's vertices, names further pairs whose images must be non-edges
    of g; both kinds of pairs fold into one forbidden row per vertex.

    Vertices of h are mapped in index order and candidates are tried in
    ascending order, so the yield order is lexicographic by mapped
    sequence and the first result is the least witness.
    """
    if mode not in (EDGES_ONLY, INDUCED):
        raise InputError("unknown embedding mode %r" % mode)
    if avoid is not None and avoid.n != h.n:
        raise InputError("avoid graph must share the pattern's vertices")
    if bijective and h.n != g.n:
        return
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
    # an image needs a neighbour per h-neighbour and a non-neighbour per
    # forbidden partner
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


def find_embedding(h, g, mode):
    """Lexicographically least embedding h -> g in ``mode``, or None."""
    for m in iter_embeddings(h, g, mode):
        return Embedding(m, mode)
    return None


def is_isomorphic(a, b):
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    for _ in iter_embeddings(a, b, INDUCED, bijective=True):
        return True
    return False


def automorphisms(g):
    """All automorphisms of g as mapping tuples, ascending."""
    return list(iter_embeddings(g, g, INDUCED, bijective=True))


# ---------------------------------------------------------------------------
# maximal cliques
# ---------------------------------------------------------------------------

def enumerate_maximal_cliques(g):
    """All maximal cliques as sorted vertex tuples, in sorted order."""
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
            score = bin(p & rows[v]).count("1")
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

    expand(0, (1 << g.n) - 1, 0)
    cliques = []
    for r in out:
        vs = []
        while r:
            vs.append((r & -r).bit_length() - 1)
            r &= r - 1
        cliques.append(tuple(vs))
    cliques.sort()
    return cliques


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
    deg = [bin(r).count("1") for r in g.rows]
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
