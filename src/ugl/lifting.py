"""Maps between reduced products lifted from per-index vertex maps, and
the trace a clique transversal induces with its comparison map.

A ``LiftedMap`` acts coordinatewise on product tuples and carries
internal sets to internal sets, by image and by preimage; like every
value it compares by its fields.  ``clique_transversal_trace`` builds,
from a complete transversal of a principal trace, the trace whose
reduced product maps onto the transversal through a ``LiftedMap``; the
transversal's core coordinates are checked as vertices, and as pairwise
adjacent, by the trace's own ``ReducedProduct``.
"""

from itertools import combinations

from . import _Value, _bits, _freeze, ultragraph as ug
from .covering import _has
from .distributions import Trace
from .errors import InputError


class LiftedMap(_Value):
    """Coordinatewise map between reduced products.

    Acts through per-index vertex maps on the source core; target core
    indices outside the source core get a fixed least vertex.  The maps
    are kept as (vertex, image) items in ``core`` order (``maps``) and
    the fixed vertices as (index, vertex) items (``fills``); the views
    ``theta`` and ``fill`` build their dicts on each access.
    """

    __slots__ = ("source", "target", "maps", "fills")

    def __init__(self, source, target, theta):
        src = set(source.core)
        if not src <= set(target.core):
            raise InputError("source core must sit inside the target core")
        if set(theta) != src:
            raise InputError("need one vertex map per source core index")
        theta = {alpha: dict(theta[alpha]) for alpha in source.core}
        for alpha in source.core:
            for v in _bits(source.trace.g1_masks[alpha]):
                if v not in theta[alpha]:
                    raise InputError(
                        "map at index %d undefined on vertex %d" % (alpha, v))
            for v, w in theta[alpha].items():
                if not _has(target.trace.g1_masks[alpha], w):
                    raise InputError(
                        "map at index %d sends %d outside the target" % (alpha, v))
        fill = {}
        for alpha in target.core:
            if alpha not in src:
                part = _bits(target.trace.g1_masks[alpha])
                if not part:
                    raise InputError(
                        "target index %d has no vertex to fill with" % alpha)
                fill[alpha] = part[0]
        _freeze(self, source, target,
                tuple(tuple(theta[alpha].items()) for alpha in source.core),
                tuple(fill.items()))

    theta = property(lambda self: {alpha: dict(m) for alpha, m
                                   in zip(self.source.core, self.maps)})
    fill = property(lambda self: dict(self.fills))

    def apply(self, tup):
        tup = self.source.check_vertex(tup)
        image = dict(self.fills)
        for alpha, v, m in zip(self.source.core, tup, self.maps):
            image[alpha] = dict(m)[v]
        return self.target.check_vertex(
            tuple(image[alpha] for alpha in self.target.core))

    def image_of(self, s):
        """Image of an internal set; again internal, componentwise."""
        if s.core != self.source.core:
            raise InputError("internal set core does not match the source")
        theta = self.theta
        parts = {alpha: frozenset((v,)) for alpha, v in self.fills}
        for alpha, part in zip(s.core, s.part_sets):
            parts[alpha] = frozenset(theta[alpha][v] for v in part)
        return ug.InternalSet(self.target.core, parts)

    def preimage_of(self, s):
        """Preimage of an internal set; internal over the source core."""
        if s.core != self.target.core:
            raise InputError("internal set core does not match the target")
        given, theta = s.parts, self.theta
        for alpha, v in self.fills:
            if v not in given[alpha]:
                return ug.InternalSet(
                    self.source.core,
                    {a: frozenset() for a in self.source.core})
        parts = {}
        for alpha in self.source.core:
            parts[alpha] = frozenset(
                v for v in _bits(self.source.trace.g1_masks[alpha])
                if theta[alpha][v] in given[alpha])
        return ug.InternalSet(self.source.core, parts)


def clique_transversal_trace(t, transversal):
    """Trace induced by a complete transversal, with its comparison map.

    The transversal assigns each formula a full tuple over all indices;
    on the core every value must be a vertex there and the tuples must
    be pairwise adjacent-or-equal coordinatewise.  The new trace puts
    formula beta at index alpha when the transversal value is a vertex
    there, with edges wherever values are adjacent or equal.  Returned
    alongside is the per-core-index vertex map sending each new-trace
    formula to its transversal value, which lifts to a map of reduced
    products carrying the constant tuple of beta to h_beta.
    """
    rp = ug.build(t)
    nb = t.n_formulas
    h = {}
    for b in range(nb):
        if b not in transversal:
            raise InputError("transversal missing formula %d" % b)
        tup = tuple(transversal[b])
        if len(tup) != t.n_indices:
            raise InputError(
                "transversal for formula %d must cover every index" % b)
        h[b] = tup
    on_core = [rp.check_vertex(h[b][alpha] for alpha in rp.core)
               for b in range(nb)]
    for b, c in combinations(range(nb), 2):
        if not rp.loop_adjacent(on_core[b], on_core[c]):
            raise InputError("transversal images of formulas %d and %d are "
                             "not adjacent" % (b, c))
    l1 = []
    l2 = []
    for alpha in range(t.n_indices):
        vs = [b for b in range(nb) if _has(t.g1_masks[alpha], h[b][alpha])]
        es = set()
        for b, c in combinations(vs, 2):
            x, y = h[b][alpha], h[c][alpha]
            if x == y or t.g2_rows[alpha][x] >> y & 1:
                es.add((b, c))
        l1.append(vs)
        l2.append(es)
    new = Trace(t.family, nb, l1, l2)
    theta = {alpha: {b: h[b][alpha] for b in l1[alpha]} for alpha in rp.core}
    return new, theta
