"""Injective embeddings between graphs: the ``Embedding`` value and the
search that yields every embedding in lexicographic order.

Edges-only and induced modes, optionally with pairs that must map to
non-edges.  ``graphs.find_embedding`` takes the first, least witness
from here; the tree non-member's witness, the catalog placements, the
automorphism scans of ``necessary`` and ``isomorphism`` (embeddings
onto a graph of the pattern's size, so bijections) and the obstruction
re-verification run this module, and no interval or realize request,
nor a tree member's recognition, compiles it.
"""

from itertools import combinations, compress

from . import _Value, _bits, _freeze
from .errors import InputError
from .graphs import EDGES_ONLY, INDUCED


class Embedding(_Value):
    """An injective vertex map witnessing h -> g in the given mode."""

    __slots__ = ("mapping", "mode")

    def __init__(self, mapping, mode):
        if mode not in (EDGES_ONLY, INDUCED):
            raise InputError("unknown embedding mode %r" % mode)
        _freeze(self, tuple(mapping), mode)

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


def iter_embeddings(h, g, mode, avoid=None):
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
    if h.n > g.n:
        return
    if h.n == 0:
        yield ()
        return
    hrows, grows = h.rows, g.rows
    induced = mode == INDUCED
    avoided = (0,) * h.n if avoid is None else avoid.rows
    forbid = ([f | a for f, a in zip(h.complement().rows, avoided)]
              if induced else avoided)
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
    # the earlier neighbours and avoided partners of each vertex, one
    # entry per edge.  In INDUCED mode an image must also miss the images
    # of the earlier non-neighbours: a popped candidate, adjacent to the
    # images of its earlier neighbours, must be adjacent to no other
    # image of an earlier vertex.
    adj_before, avoid_before = ([list(_bits(r & (1 << k) - 1))
                                 for k, r in enumerate(rows)]
                                for rows in (hrows, avoided))
    # depth-first on an explicit stack: level k holds the candidates of
    # pattern vertex k not yet tried, and used the images of levels < k
    mapping = [0] * h.n
    level = [allowed[0]] + [0] * (h.n - 1)
    last = h.n - 1
    k = used = 0
    while True:
        cands = level[k]
        if cands:
            low = cands & -cands
            level[k] = cands ^ low
            mapping[k] = low.bit_length() - 1
            if induced and ((grows[mapping[k]] & used).bit_count()
                            != len(adj_before[k])):
                continue
            if k == last:
                yield tuple(mapping)
                continue
            used |= low
            k += 1
            cands = allowed[k] & ~used
            for i in adj_before[k]:
                cands &= grows[mapping[i]]
            for i in avoid_before[k]:
                cands &= ~grows[mapping[i]]
            level[k] = cands
        elif k:
            k -= 1
            used ^= 1 << mapping[k]
        else:
            return
