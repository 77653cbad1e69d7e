"""The interval kernels of ``shapes``: the maximal cliques of a chordal
graph (maximum cardinality search) and an order of them in which each
vertex's cliques are consecutive (Gilmore-Hoffman).

Interval recognition and realization run both, and a tree recognition
only its non-members' chordality test, so these live apart from the
recognizers: a tree member's request never compiles them.  Both work on
adjacency rows (``Graph.rows``) and clique bitmasks.
"""

from . import _bits


def chordal_cliques(rows):
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


def clique_spans(rows, cliques):
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
    span is checked for consecutiveness before it is returned.  When
    each vertex's cliques are already consecutive in the given order, as
    they mostly are, one pass over the cliques keeps that order: O(n + m)
    steps and two lists of n ints.  Otherwise the placement takes O(n +
    m) operations on k-bit rows, plus one sort.
    """
    n = len(rows)
    k = len(cliques)
    first = [-1] * n
    last = [-1] * n
    gap = False
    for i, c in enumerate(cliques):
        for v in _bits(c):
            if first[v] < 0:
                first[v] = i
            elif last[v] != i - 1:
                gap = True
            last[v] = i
    if not gap:
        return list(zip(first, last))
    row = [0] * n
    for i, c in enumerate(cliques):
        for v in _bits(c):
            row[v] |= 1 << i
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
