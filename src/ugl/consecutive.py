"""The consecutive-ones placement of ``chordal.clique_spans``: an order
of the maximal cliques in which each vertex's cliques are consecutive,
found by overlap components (Fulkerson & Gross 1965).

``clique_spans`` runs it only when the search order of the cliques
leaves some vertex's cliques apart, so the other interval and realize
requests never compile it.
"""

from . import _bits


def overlap_spans(rows, cliques):
    """Each vertex's (first, last) position in an order of the cliques
    (``chordal.chordal_cliques``' pairs) that holds every vertex's
    cliques consecutively, or None if there is none.

    A vertex's row is the set of cliques holding it; two rows overlap if
    they meet and neither contains the other.  Inside a component of the
    overlap relation, rows are added along overlaps and each addition
    has one placement up to reversal, so the component's order of
    classes (cliques in the same rows) is forced.  Rows of different
    components are disjoint or nested, so each component's cliques lie
    inside one class of every larger component they meet; sorting each
    clique by its (component, class position) chain from the largest
    component inward nests the components.  Each vertex's span is
    checked for consecutiveness before it is returned.  O(n + m)
    operations on k-bit rows, plus one sort.
    """
    n = len(rows)
    k = len(cliques)
    row = [0] * n
    for i, (lo, c) in enumerate(cliques):
        for v in _bits(c):
            row[v + lo] |= 1 << i
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
