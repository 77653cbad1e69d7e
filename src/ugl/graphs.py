"""Finite simple graphs and the combinatorial kernel built on them.

Everything downstream (shape recognizers, obstruction catalogs, necessary
sets, reduced products) works over graphs on vertex set 0..n-1 stored as
per-vertex adjacency bitmasks; the index sets of ``distributions``
(covering families, supports) are bitmasks too.  This module owns:

* the ``Graph`` value type and its text format,
* injective embeddings (edges-only and induced modes, optionally with
  pairs that must map to non-edges) with deterministic, lexicographically
  least witnesses.

Induced subgraphs, canonical forms, isomorphism tests and one-per-class
enumeration live in ``isomorphism``, which only the obstruction catalog
runs; pair masks live in ``necessary`` and maximal clique enumeration
in ``refinement``, their one users.  The five of their names that the
bench times or reads here stay importable from here, each executing its
module on first use; the rest are imported from their homes.

All objects here are immutable, and every operation is a pure function.
"""

from itertools import combinations, compress

from .errors import CapabilityError, InputError

GRAPH_VERTEX_CAP = 10000

# Nothing in the package reads these names here: they stay for the
# bench, whose TRACED table times canonical_form, automorphisms,
# enumerate_graphs and enumerate_maximal_cliques here and whose checker
# reads canonical_key.
_MOVED = {**dict.fromkeys(("canonical_key", "enumerate_graphs",
                           "canonical_form", "automorphisms"), "isomorphism"),
          "enumerate_maximal_cliques": "refinement"}


def __getattr__(name):
    """A name that moved to a module of its own (the call form of ``from
    .<home> import <name>``), executing it on first use."""
    if name not in _MOVED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(__import__(_MOVED[name], globals(), None, (name,), 1), name)


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
    # an image needs a neighbour per h-neighbour and a non-neighbour per
    # forbidden partner.  The vertices of g are bucketed by degree, and
    # only the non-isolated ones are visited one by one, so an edgeless g
    # costs no step per vertex.
    by_degree = {0: (1 << g.n) - 1}
    for c in compress(range(g.n), grows):
        by_degree[0] ^= 1 << c
        d = grows[c].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << c
    allowed = [sum(m for d, m in by_degree.items()
                   if r.bit_count() <= d < g.n - f.bit_count())
               for r, f in zip(hrows, forbid)]
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
