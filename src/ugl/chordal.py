"""The interval kernels of ``shapes``: the maximal cliques of a chordal
graph, or a chordless cycle of a non-chordal one (maximum cardinality
search), and an order of the cliques in which each vertex's cliques are
consecutive (Gilmore-Hoffman).

Interval recognition and realization run both; a tree recognition runs
neither, so these live apart from the recognizers.  Both work on
adjacency rows (``Graph.rows``) and on cliques kept as (lowest vertex,
bitmask shifted down by it), so a clique weighs as much as the span of
its vertices, not as the graph.  Where the search order of the cliques
leaves some vertex's cliques apart, the consecutive-ones placement in
``consecutive`` reorders them; only such inputs compile it.
"""

from . import _bits, consecutive


def chordal_cliques(rows):
    """(cliques, None) with the maximal cliques of a chordal graph, or
    (None, hole) with a chordless cycle of length >= 4 of a non-chordal
    one.  A clique is a pair (lo, mask): lo is its lowest vertex, and
    vertex lo + i lies in it iff bit i of mask is set.  The hole starts
    at its least vertex and goes on to the smaller of that vertex's two
    neighbors on it.

    Maximum cardinality search numbers next an unnumbered vertex with the
    most numbered neighbors (the least such vertex).  The graph is chordal
    iff the reverse numbering is a perfect elimination ordering (Tarjan &
    Yannakakis 1984), that is iff each vertex's numbered neighbors E(v)
    lie in N(p) + p for the last numbered of them, p.  Then the sets
    E(v) + v include every maximal clique, and E(p) + p is not maximal
    iff E(v) = E(p) + p for some v with that p (Blair & Peyton 1993).
    Where the test fails at v, the least x of E(v) outside N(p) + p, a
    shortest x-p path through vertices numbered before v and outside
    N[v], and v close the hole (``_hole``).  O(n + m) bitmask
    operations.
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
            if bad := seen & ~rows[p] & ~(1 << p):
                return None, _hole(rows, v, (bad & -bad).bit_length() - 1, p,
                                   numbered & ~rows[v])
            if weight[v] == weight[p] + 1:
                maximal[p] = False
        c = seen | low
        lo = (c & -c).bit_length() - 1
        clique[v] = (lo, c >> lo)
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
    return [clique[v] for v in order if maximal[v]], None


def _hole(rows, v, x, p, inner):
    """The cycle v, x, ..., p closed by a shortest x-p path whose inner
    vertices lie in ``inner`` (a mask outside N[v]), from its least
    vertex towards the smaller of that vertex's neighbors on it.

    x and p are non-adjacent neighbors of v, so the path has an inner
    vertex, and being shortest and avoiding N[v] it has no chord, nor
    does the cycle.  A breadth-first search keeps its layers as masks
    and walks back from p through the least vertex of each layer that
    sees the step after it."""
    layers = [1 << x]
    seen = 1 << x
    while not layers[-1] >> p & 1:
        grown = 0
        for u in _bits(layers[-1]):
            grown |= rows[u]
        frontier = grown & (inner | 1 << p) & ~seen
        if not frontier:  # the search would loop; under -O too
            raise AssertionError("no path joins the failed vertex's neighbors")
        layers.append(frontier)
        seen |= frontier
    cycle = [v, p]
    for layer in reversed(layers[:-1]):
        step = layer & rows[cycle[-1]]
        cycle.append((step & -step).bit_length() - 1)
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[-1] < cycle[1]:
        cycle[1:] = cycle[:0:-1]
    return cycle


def clique_spans(rows, cliques):
    """Order the maximal cliques (``chordal_cliques``' pairs) so that the
    cliques holding each vertex are consecutive, and return each
    vertex's (first, last) position in that order; None if no such order
    exists, that is if the chordal graph is not an interval graph
    (Gilmore & Hoffman 1964).

    When each vertex's cliques are already consecutive in the given
    order, as they mostly are, one pass over the cliques keeps that
    order: O(n + m) steps and two lists of n ints.  Otherwise
    ``consecutive.overlap_spans`` places them by overlap components.
    """
    n = len(rows)
    first = [-1] * n
    last = [-1] * n
    gap = False
    for i, (lo, c) in enumerate(cliques):
        for v in _bits(c):
            v += lo
            if first[v] < 0:
                first[v] = i
            elif last[v] != i - 1:
                gap = True
            last[v] = i
    if not gap:
        return list(zip(first, last))
    return consecutive.overlap_spans(rows, cliques)
