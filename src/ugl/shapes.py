"""Graph shapes: recognizers and their certificates.

Two hereditary graph classes ("shapes") are supported:

* ``tree``: comparability graphs of rooted forests, equivalently the
  graphs satisfying Wolk's diagonal condition (every path x0-x1-x2-x3
  has a chord x0-x2 or x1-x3), equivalently the graphs with no induced
  4-cycle and no induced 4-path.  ``recognize`` decides membership by
  a nested-neighborhood test and names a non-member's induced 4-cycle
  or 4-path; the tests check it against the diagonal condition
  (``catalog.diagonal_violation``) and against the comparability
  graphs of the rooted forests they enumerate.
* ``interval``: intersection graphs of open intervals on the line.  A
  graph is a member iff it has no chordless cycle of length >= 4 and no
  asteroidal triple (Lekkerkerker-Boland); non-membership certificates
  are a chordless cycle or an asteroidal triple, and membership
  certificates are explicit interval models read off an order of the
  maximal cliques in which each vertex's cliques are consecutive
  (Gilmore-Hoffman).

Recognition is polynomial and iterative for both shapes: ``tree`` by a
nested-neighborhood test on each edge, ``interval`` by a chordality test
(maximum cardinality search), a consecutive-ones test on the maximal
cliques, and the witness searches only on non-members.  Witnesses do not
depend on how membership was decided: each is the first one in the
fixed order of its search.

The maximal cliques of a chordal graph and their consecutive order live
in ``chordal``, which a tree member's recognition never runs, and the
obstruction families in ``catalog``, which only a tree non-member's
witness needs here.  The interval models and realization live in
``intervals``, the minimal obstructions and the witness parser in
``obstructions``; no recognition runs either.
``_MOVED`` serves nine of their names here: the three that cli's
realize and obstructions run through here, where the bench times them,
and six that the bench reads.  Like these rows, the covering families of
``distributions`` are bitmasks.
"""

from itertools import combinations

# cli registers catalog and chordal unexecuted, so each executes where
# it is first used: catalog where a family graph is built, chordal where
# an interval test or a tree non-member's chordality test runs
from . import (INTERVAL, TREE, _bits, _forward, _Value, _freeze, catalog,
               check_shape, chordal, obstructions)
from .errors import InputError
from .graphs import INDUCED, find_embedding

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

def _reaches(rows, start, allowed, target):
    """Whether a path from ``start`` through ``allowed`` vertices reaches a
    vertex of ``target`` (both bitmasks): a breadth-first search that
    expands each vertex once."""
    seen = frontier = rows[start] & allowed
    while frontier:
        if frontier & target:
            return True
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return False


def find_chordless_cycle(g):
    """First chordless cycle of length >= 4 as a vertex list, or None.

    The order is that of a depth-first search over induced paths: the
    start v0 ascending, each path's start is its least vertex, a path
    grows by its tail's neighbors in ascending order, and it closes when
    the new vertex sees v0 and no inner path vertex.

    The search descends into a vertex w only when the path extended by w
    can still close into a hole: some vertex above v0, off the path and
    outside the neighborhoods of the inner path vertices is reachable
    from w through such vertices and sees v0.  A shortest such route is
    induced, so it closes the path into a hole, and every hole below the
    path is such a route; so exactly the subtrees that hold no hole are
    pruned, and the first hit is the one the unpruned search finds.  For
    the two-vertex path [v0, w] the common neighbors of v0 and w are
    excluded too (they would close a triangle), and the edge w-v0 is not
    a route.  A path that can close always has a next vertex that closes
    it or can itself close, so the search never backtracks below the
    first step: O(m + n * d) reachability tests for maximum degree d,
    each O(n) bitmask operations, and no recursion.
    """
    n = g.n
    rows = g.rows
    for v0 in range(n):
        above = ((1 << n) - 1) & ~((1 << (v0 + 1)) - 1)
        target = rows[v0]
        for w in _bits(target & above):
            if _reaches(rows, w, above & ~(1 << w) & ~(target & rows[w]), target):
                break
        else:
            continue
        path = [v0, w]
        free = above & ~(1 << w)
        inner = 0
        while True:
            tail = path[-1]
            grown = inner | rows[tail]
            for x in _bits(rows[tail] & free & ~inner):
                if target >> x & 1:
                    if len(path) >= 3:
                        return path + [x]
                    continue
                if _reaches(rows, x, free & ~(1 << x) & ~grown, target):
                    break
            else:
                raise AssertionError("a closable path has no next vertex")
            path.append(x)
            free &= ~(1 << x)
            inner = grown
    return None


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

def _nested_neighborhoods(g):
    """Whether every edge uv has N[u] within N[v] or N[v] within N[u]
    (closed neighborhoods): O(m) bitmask tests.

    This holds iff g has no induced C4 or L4: x in N[u] - N[v] and y in
    N[v] - N[u] make x-u-v-y one of the two, and the middle edge of
    either has neither neighborhood inside the other.
    """
    rows = g.rows
    closed = [r | 1 << v for v, r in enumerate(rows)]
    for u in range(g.n):
        cu = closed[u]
        for v in _bits(rows[u] >> (u + 1) << (u + 1)):
            both = cu & closed[v]
            if both != cu and both != closed[v]:
                return False
    return True


def _interval_certificate(g):
    """(spans, None) for an interval graph, with each vertex's span of
    clique positions (``chordal.clique_spans``), or (None, witness)
    otherwise.

    A non-chordal graph gets ``find_chordless_cycle``'s cycle and a
    chordal non-member ``find_asteroidal_triple``'s triple: the witness
    that running the two searches in that order gives.  Near-linear up
    to the witness searches, which run only on non-members.
    """
    cliques = chordal.chordal_cliques(g.rows)
    if cliques is None:
        cycle = find_chordless_cycle(g)
        assert cycle is not None, "no chordless cycle in a non-chordal graph"
        return None, ObstructionWitness(IRREDUCIBLE_CYCLE, cycle)
    spans = chordal.clique_spans(g.rows, cliques)
    if spans is not None:
        return spans, None
    triple = find_asteroidal_triple(g)
    assert triple is not None, "no asteroidal triple in a chordal non-member"
    return None, ObstructionWitness(ASTEROIDAL_TRIPLE, triple)


def recognize(shape, g):
    """None for members, otherwise a deterministic ObstructionWitness.

    ``tree``: members pass the nested-neighborhood test; a non-member
    gets the first induced C4, else the first induced L4; a chordal
    non-member has no induced C4 and goes straight to the L4 search.
    ``interval``: see ``_interval_certificate``.
    """
    check_shape(shape)
    if shape == TREE:
        if _nested_neighborhoods(g):
            return None
        is_chordal = chordal.chordal_cliques(g.rows) is not None
        for kind in ("L4",) if is_chordal else ("C4", "L4"):
            emb = find_embedding(catalog.family_graph(kind), g, INDUCED)
            if emb is not None:
                return ObstructionWitness(FORBIDDEN_FAMILY, emb.mapping, (kind, None))
        raise AssertionError("no induced C4 or L4 beside unnested neighborhoods")
    return _interval_certificate(g)[1]
