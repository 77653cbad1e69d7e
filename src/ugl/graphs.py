"""Finite simple graphs and the combinatorial kernel built on them.

Everything downstream (shape recognizers, obstruction catalogs, necessary
sets, reduced products) works over graphs on vertex set 0..n-1 stored as
per-vertex adjacency bitmasks; the index sets of ``distributions``
(covering families, supports) are bitmasks too, and every module reads
both with the package's ``_bits`` and ``_edges``.  This module owns the
``Graph`` value type, its text format, the two embedding modes
(edges-only and induced) and ``find_embedding``, the lexicographically
least embedding, which the bench times here and the tests use; no
module of the package calls it.  The ``Embedding`` value and the search
behind it live in ``embeddings``, which the catalog's placements,
``necessary``, ``isomorphism`` and ``obstructions`` run: no recognize
or realize request compiles it.

Induced subgraphs, canonical forms, isomorphism tests and one-per-class
enumeration live in ``isomorphism``, which only the obstruction catalog
runs; pair masks live in ``completions`` and maximal clique
enumeration in ``refinement``, their one users.  ``_MOVED`` serves the
five of their names that the bench times or reads here.

Graphs and embeddings are immutable values (``ugl._Value``: frozen
fields, equality and hashing by field, copy and pickle), and every
operation is a pure function.
"""

from itertools import combinations

from . import _Value, _edges, _forward, _freeze, embeddings
from .errors import CapabilityError, InputError, content_lines, parse_number

GRAPH_VERTEX_CAP = 10000

# Nothing in the package reads these names here: they stay for the
# bench, whose TRACED table times canonical_form, automorphisms,
# enumerate_graphs and enumerate_maximal_cliques here and whose checker
# reads canonical_key.
_MOVED = {**dict.fromkeys(("canonical_key", "enumerate_graphs",
                           "canonical_form", "automorphisms"), "isomorphism"),
          "enumerate_maximal_cliques": "refinement"}


__getattr__ = _forward(__name__, _MOVED)


class Graph(_Value):
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
        _freeze(self, n, tuple(rows))

    @classmethod
    def _from_rows(cls, n, rows):
        return _freeze(cls, n, tuple(rows))

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, self.edges())

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def degree(self, v):
        return self.rows[v].bit_count()

    def degree_sequence(self):
        return tuple(sorted(self.degree(v) for v in range(self.n)))

    def edge_count(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        return _edges(self.rows)

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
    for line in content_lines(text):
        parts = line.split()
        if parts[0] == "graph":
            if n is not None:
                raise InputError("duplicate graph header")
            if len(parts) != 2:
                raise InputError("malformed graph header: %r" % line)
            n = parse_number(parts[1])
            if n is None:
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
                raise InputError("malformed edge line: %r" % line)
            u, v = parse_number(parts[1]), parse_number(parts[2])
            if u is None or v is None:
                raise InputError("malformed edge line: %r" % line)
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

# the embedding modes, read by ``embeddings`` and every caller
EDGES_ONLY = "edges-only"
INDUCED = "induced"


def find_embedding(h, g, mode):
    """Lexicographically least embedding h -> g in ``mode``, or None.
    No module of the package calls this: the bench traces it here, and
    the tests' lexicographic witness searches run it."""
    for m in embeddings.iter_embeddings(h, g, mode):
        return embeddings.Embedding(m, mode)
    return None
