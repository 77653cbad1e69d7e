"""Graph shapes: recognizers and their certificates.

Two hereditary graph classes ("shapes") are supported:

* ``tree``: comparability graphs of rooted forests, equivalently the
  graphs satisfying Wolk's diagonal condition (every path x0-x1-x2-x3
  has a chord x0-x2 or x1-x3), equivalently the graphs with no induced
  4-cycle and no induced 4-path.  The three characterizations are
  implemented independently and tested against each other.
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

The interval models and realization live in ``intervals``; the minimal
obstructions, the rooted forests and the witness parser in
``obstructions``.  No recognition request runs either, so each executes
only when one of its names is first used here.  Six of their names stay
importable from here: the four that cli's realize and obstructions run
through here, where the bench times them, and the two parsers that the
bench checker reads.  The shape names, the obstruction families and the
diagonal condition live in ``catalog``; the ones the bench reads here
are re-exported.  Like these rows, the covering families of
``distributions`` are bitmasks.
"""

from itertools import combinations

from . import _Value, _freeze
# the catalog names the bench reads are re-exported from here
from .catalog import (INTERVAL, TREE, check_shape, family_graph,  # noqa: F401
                      family_str, parse_family, shape_families)
from .errors import InputError
from .graphs import INDUCED, find_embedding

# cli's realize and obstructions run their names through here, where
# bench/child.py TRACED times them; bench/check.py reads the parsers.
_MOVED = {
    **dict.fromkeys(("IntervalModel", "format_interval_model",
                     "parse_interval_model", "realize_intervals"),
                    "intervals"),
    **dict.fromkeys(("parse_witness", "minimal_obstructions"), "obstructions"),
}


def __getattr__(name):
    """A name that moved to a module of its own (the call form of ``from
    .<home> import <name>``), executing it on first use."""
    if name not in _MOVED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(__import__(_MOVED[name], globals(), None, (name,), 1), name)


# ---------------------------------------------------------------------------
# interval obstructions: chordless cycles and asteroidal triples
# ---------------------------------------------------------------------------

def _bits(mask):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


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
            family_graph(*family)
        elif family is not None:
            raise InputError("%s witness takes no family" % kind)
        _freeze(self, kind, tuple(vertices), family)

    def __repr__(self):
        return "ObstructionWitness(%r, %r, %r)" % (self.kind, self.vertices, self.family)

    def checks(self, g):
        """Re-verify this certificate against g from scratch.  No request
        runs this, so the check lives in ``obstructions``."""
        from .obstructions import witness_checks

        return witness_checks(self, g)


def format_witness(w):
    parts = ["w", w.kind]
    if w.kind == FORBIDDEN_FAMILY:
        parts.append(family_str(*w.family))
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


def _chordal_cliques(rows):
    """The maximal cliques of a chordal graph as vertex bitmasks, or None
    if the graph is not chordal.

    Maximum cardinality search numbers next an unnumbered vertex with the
    most numbered neighbors (the least such vertex).  The graph is chordal
    iff the reverse numbering is a perfect elimination ordering (Tarjan &
    Yannakakis 1984), that is iff each vertex's numbered neighbors E(v)
    lie in N(p) + p for the last numbered of them, p.  Then the sets
    E(v) + v include every maximal clique, and E(p) + p is not maximal
    iff E(v) = E(p) + p for some v with that p (Blair & Peyton 1993).
    O(n + m) bitmask operations.
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


def _clique_spans(rows, cliques):
    """Order the maximal cliques so that the cliques holding each vertex
    are consecutive, and return each vertex's (first, last) position in
    that order; None if no such order exists, that is if the chordal
    graph is not an interval graph (Gilmore & Hoffman 1964).

    This is the consecutive-ones test by overlap components (Fulkerson &
    Gross 1965).  A vertex's row is the set of cliques holding it; two
    rows overlap if they meet and neither contains the other.  Inside a
    component of the overlap relation, rows are added along overlaps and
    each addition has one placement up to reversal, so the component's
    order of classes (cliques in the same rows) is forced.  Rows of
    different components are disjoint or nested, so each component's
    cliques lie inside one class of every larger component they meet;
    sorting each clique by its (component, class position) chain from
    the largest component inward nests the components.  Each vertex's
    span is checked for consecutiveness before it is returned; when
    every row is already consecutive in the given clique order, that
    order is kept.
    O(n + m) operations on clique bitmasks, plus one sort.
    """
    n = len(rows)
    k = len(cliques)
    row = [0] * n
    for i, c in enumerate(cliques):
        for v in _bits(c):
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


def _interval_certificate(g):
    """(spans, None) for an interval graph, with each vertex's span of
    clique positions (``_clique_spans``), or (None, witness) otherwise.

    A non-chordal graph gets ``find_chordless_cycle``'s cycle and a
    chordal non-member ``find_asteroidal_triple``'s triple: the witness
    that running the two searches in that order gives.  Near-linear up
    to the witness searches, which run only on non-members.
    """
    cliques = _chordal_cliques(g.rows)
    if cliques is None:
        cycle = find_chordless_cycle(g)
        assert cycle is not None, "no chordless cycle in a non-chordal graph"
        return None, ObstructionWitness(IRREDUCIBLE_CYCLE, cycle)
    spans = _clique_spans(g.rows, cliques)
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
        chordal = _chordal_cliques(g.rows) is not None
        for kind in ("L4",) if chordal else ("C4", "L4"):
            emb = find_embedding(family_graph(kind), g, INDUCED)
            if emb is not None:
                return ObstructionWitness(FORBIDDEN_FAMILY, emb.mapping, (kind, None))
        raise AssertionError("no induced C4 or L4 beside unnested neighborhoods")
    return _interval_certificate(g)[1]
