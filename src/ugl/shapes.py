"""Graph shapes: recognizers and their certificates.

Two hereditary graph classes ("shapes") are supported:

* ``tree``: comparability graphs of rooted forests, equivalently the
  graphs satisfying Wolk's diagonal condition (every path x0-x1-x2-x3
  has a chord x0-x2 or x1-x3), equivalently the graphs with no induced
  4-cycle and no induced 4-path.  ``recognize`` decides membership by
  a nested-neighborhood test and names the induced 4-cycle or 4-path
  at a non-member's first unnested edge; the tests check it against
  the diagonal condition (``catalog.diagonal_violation``) and against
  the comparability graphs of the rooted forests they enumerate.
* ``interval``: intersection graphs of open intervals on the line.  A
  graph is a member iff it has no chordless cycle of length >= 4 and no
  asteroidal triple (Lekkerkerker-Boland); non-membership certificates
  are a chordless cycle or an asteroidal triple, and membership
  certificates are explicit interval models read off an order of the
  maximal cliques in which each vertex's cliques are consecutive
  (Gilmore-Hoffman).

Recognition is polynomial and iterative for both shapes: ``tree`` by a
nested-neighborhood test on each edge, ``interval`` by a chordality test
(maximum cardinality search) and a consecutive-ones test on the maximal
cliques.  The tree witness and the chordless cycle are read off the
point where the test fails, in O(m) bitmask work; only a chordal
interval non-member runs a separate search, for the first asteroidal
triple in lexicographic order.  So a witness depends on how membership
was decided, and the tests check each against ``witness_checks`` and
the verdicts against the lexicographic searches of ``tests/oracles.py``.

The maximal cliques of a chordal graph and their consecutive order live
in ``chordal``, which a tree recognition never runs, and the
obstruction families in ``catalog``, which only a tree non-member's
witness text needs here.  The interval models and realization live in
``intervals``, the minimal obstructions and the witness parser in
``obstructions``; no recognition runs either.
``_MOVED`` serves nine of their names here: the three that cli's
realize and obstructions run through here, where the bench times them,
and six that the bench reads.  Like these rows, the covering families of
``distributions`` are bitmasks.
"""

from itertools import combinations

# cli registers catalog and chordal unexecuted, so each executes where
# it is first used: catalog where a family is named, chordal where an
# interval test runs
from . import (INTERVAL, TREE, _bits, _forward, _Value, _freeze, catalog,
               check_shape, chordal, obstructions)
from .errors import InputError

# cli's realize and obstructions run their names through here, where
# bench/child.py TRACED times them; bench/check.py and bench/gen.py read
# the parsers and the catalog names.
_MOVED = {
    **dict.fromkeys(("format_interval_model", "parse_interval_model",
                     "realize_intervals"), "intervals"),
    **dict.fromkeys(("parse_witness", "minimal_obstructions"), "obstructions"),
    **dict.fromkeys(("family_graph", "family_str", "parse_family",
                     "shape_families"), "catalog"),
}


__getattr__ = _forward(__name__, _MOVED)


# ---------------------------------------------------------------------------
# interval obstructions: chordless cycles and asteroidal triples
# ---------------------------------------------------------------------------

def find_chordless_cycle(g):
    """The chordless cycle of length >= 4 that ``chordal.chordal_cliques``
    reads off the failed elimination test, as a vertex list, or None for
    a chordal graph.  No request runs this: recognition reads the same
    cycle off the same search, and the bench traces this name."""
    return chordal.chordal_cliques(g.rows)[1]


def _avoid_components(g, v):
    """Component id of each vertex in g minus the closed neighborhood of v
    (-1 inside the neighborhood)."""
    n = g.n
    comp = [-1] * n
    banned = g.rows[v] | (1 << v)
    cid = 0
    for s in range(n):
        if comp[s] != -1 or banned >> s & 1:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            u = stack.pop()
            m = g.rows[u] & ~banned
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
        cid += 1
    return comp


def find_asteroidal_triple(g):
    """First asteroidal triple (a, b, c) in lexicographic order, or None.

    The avoid-components of a vertex are built when the scan first needs
    them, so a triple among the first vertices costs a few searches, not
    one per vertex."""
    n = g.n
    rows = g.rows
    comps = [None] * n

    def comp(v):
        if comps[v] is None:
            comps[v] = _avoid_components(g, v)
        return comps[v]

    for a, b, c in combinations(range(n), 3):
        if (rows[a] >> b | (rows[a] | rows[b]) >> c) & 1:
            continue
        cc = comps[c] or comp(c)  # a built list is never empty
        if (cc[a] == cc[b] != -1
                and comp(b)[a] == comp(b)[c] != -1
                and comp(a)[b] == comp(a)[c] != -1):
            return (a, b, c)
    return None


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

IRREDUCIBLE_CYCLE = "irreducible-cycle"
ASTEROIDAL_TRIPLE = "asteroidal-triple"
FORBIDDEN_FAMILY = "forbidden-family"
WITNESS_KINDS = (IRREDUCIBLE_CYCLE, ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY)


class ObstructionWitness(_Value):
    """A checkable certificate of non-membership."""

    __slots__ = ("kind", "vertices", "family")

    def __init__(self, kind, vertices, family=None):
        if kind not in WITNESS_KINDS:
            raise InputError("unknown witness kind %r" % kind)
        if kind == FORBIDDEN_FAMILY:
            if family is None:
                raise InputError("forbidden-family witness needs a family")
            catalog.family_graph(*family)
        elif family is not None:
            raise InputError("%s witness takes no family" % kind)
        _freeze(self, kind, tuple(vertices), family)

    def __repr__(self):
        return "ObstructionWitness(%r, %r, %r)" % (self.kind, self.vertices, self.family)

    def checks(self, g):
        """Re-verify this certificate against g from scratch.  No request
        runs this, so the check lives in ``obstructions``."""
        return obstructions.witness_checks(self, g)


def format_witness(w):
    parts = ["w", w.kind]
    if w.kind == FORBIDDEN_FAMILY:
        parts.append(catalog.family_str(*w.family))
    parts.extend(str(v) for v in w.vertices)
    return " ".join(parts) + "\n"


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def _unnested_path(g):
    """The first edge uv (u < v, ascending) with N[u] not within N[v] and
    N[v] not within N[u] (closed neighborhoods), as the path x-u-v-y
    with x the least vertex of N[u] - N[v] and y that of N[v] - N[u]; or
    None if every edge's neighborhoods are nested.  O(m) bitmask tests.

    x-u-v-y is an induced C4 if xy is an edge and an induced L4
    otherwise, and the middle edge of either has neither neighborhood
    inside the other, so None means g has neither.
    """
    rows = g.rows
    closed = [r | 1 << v for v, r in enumerate(rows)]
    for u in range(g.n):
        cu = closed[u]
        for v in _bits(rows[u] >> (u + 1) << (u + 1)):
            both = cu & closed[v]
            if both != cu and both != closed[v]:
                x = cu ^ both
                y = closed[v] ^ both
                return ((x & -x).bit_length() - 1, u, v,
                        (y & -y).bit_length() - 1)
    return None


def _interval_certificate(g):
    """(spans, None) for an interval graph, with each vertex's span of
    clique positions (``chordal.clique_spans``), or (None, witness)
    otherwise.

    A non-chordal graph gets the chordless cycle that the chordality
    search reads off its failure, and a chordal non-member
    ``find_asteroidal_triple``'s triple.  Near-linear up to the triple
    search, which runs only on chordal non-members.
    """
    cliques, hole = chordal.chordal_cliques(g.rows)
    if hole is not None:
        return None, ObstructionWitness(IRREDUCIBLE_CYCLE, hole)
    spans = chordal.clique_spans(g.rows, cliques)
    if spans is not None:
        return spans, None
    triple = find_asteroidal_triple(g)
    assert triple is not None, "no asteroidal triple in a chordal non-member"
    return None, ObstructionWitness(ASTEROIDAL_TRIPLE, triple)


def recognize(shape, g):
    """None for members, otherwise a deterministic ObstructionWitness.

    ``tree``: members pass the nested-neighborhood test; a non-member
    gets the induced C4 or L4 x-u-v-y at its first unnested edge
    (``_unnested_path``).  ``interval``: see ``_interval_certificate``.
    """
    check_shape(shape)
    if shape == TREE:
        path = _unnested_path(g)
        if path is None:
            return None
        kind = "C4" if g.rows[path[0]] >> path[3] & 1 else "L4"
        return _freeze(ObstructionWitness, FORBIDDEN_FAMILY, path, (kind, None))
    return _interval_certificate(g)[1]
