"""Finite reduced-product graphs over principal covering families.

A trace whose family is principal with generator J induces a product
graph: vertices are tuples picking one g1(alpha) vertex for each alpha
in J, and two tuples are adjacent when they are coordinatewise
adjacent at every alpha in J.  Over a one-element J this is just the
per-index graph; larger J multiply the vertex counts.  So a
``ReducedProduct`` keeps only the trace, the core J and the vertex
count (the product of the vertex counts at J), reads its vertices and
edges from the trace's masks and rows, is materialized only below a
size cap, and prints a count past 4,300 digits as ``symbolic``.  One
check, shared by ``build`` and the eta functions, reads J from the
family.

Internal sets are products of per-index subsets.  An internal set is
an internal clique when every component induces a clique; on tuples
this corresponds to the quotient reading where two tuples sharing a
coordinate count as adjacent there (a loop at every vertex).  The
constant-tuple embedding eta sends each formula to the tuple that
repeats it; its image extends to an internal clique exactly when it is
complete, and then the clique takes every formula at every core index.
That happens exactly when the trace has a multiplicative refinement,
which is the finite shadow of the compactness argument this module
exists to exercise.  ``extend_to_internal_clique`` grows any complete
set of product vertices; no request runs it.

Non-principal families are refused: without a single generating core
the componentwise reading of edges is not sound.  Maps between reduced
products lifted from per-index vertex maps, and the traces that clique
transversals induce, live in ``lifting``; no request runs them.
"""

from itertools import combinations, product
from math import prod

from . import _Value, _bits, _freeze, graphs
from .covering import PRINCIPAL, _has, _is_clique, _mask
from .distributions import Trace
from .errors import (CapabilityError, ConsistencyError, InputError,
                     content_lines, parse_number)

MATERIALIZE_CAP = 10 ** 6
# str() of an int refuses more than 4,300 digits under Python's default
# limit
DECIMAL_CAP = 10 ** 4300


def format_count(n):
    """n in decimal, or ``symbolic`` from 4,301 digits on."""
    return "%d" % n if n < DECIMAL_CAP else "symbolic"


class ReducedProduct(_Value):
    """Product graph of the per-index graphs over the principal core."""

    __slots__ = ("trace", "core", "size")

    def __init__(self, trace, core, size):
        _freeze(self, trace, core, size)

    def __repr__(self):
        return "ReducedProduct(core=%r, size=%s)" % (
            list(self.core), format_count(self.size))

    def check_vertex(self, tup):
        tup = tuple(tup)
        if len(tup) != len(self.core):
            raise InputError("vertex tuple must have one entry per core index")
        for x, alpha in zip(tup, self.core):
            if not _has(self.trace.g1_masks[alpha], x):
                raise InputError(
                    "coordinate %r not a vertex at index %d" % (x, alpha))
        return tup

    def has_edge(self, tu, tv):
        """Strict product adjacency: an edge at every core coordinate
        (so the tuples differ at each, as no vertex has a loop)."""
        return self._adjacent(tu, tv, False)

    def loop_adjacent(self, tu, tv):
        """Quotient adjacency: per coordinate, equal or an edge."""
        return self._adjacent(tu, tv, True)

    def _adjacent(self, tu, tv, loops):
        tu = self.check_vertex(tu)
        tv = self.check_vertex(tv)
        rows = self.trace.g2_rows
        return all(loops and x == y or rows[alpha][x] >> y & 1
                   for x, y, alpha in zip(tu, tv, self.core))

    def vertices(self):
        """All tuples in lexicographic order; capped."""
        if self.size > MATERIALIZE_CAP:
            raise CapabilityError(
                "product with %s vertices exceeds the materialization cap"
                % format_count(self.size))
        return list(product(*(_bits(self.trace.g1_masks[alpha])
                              for alpha in self.core)))

    def to_graph(self):
        """The materialized product as (Graph, vertex order); capped."""
        vs = self.vertices()
        pos = {v: i for i, v in enumerate(vs)}
        edges = []
        for tu, tv in combinations(vs, 2):
            if self.has_edge(tu, tv):
                edges.append((pos[tu], pos[tv]))
        return graphs.Graph(len(vs), edges), vs

    def edge_count(self):
        """The number of edges.  Two tuples adjacent at every core index
        differ there, and the core is nonempty, so the ordered adjacent
        pairs number the product of the per-index ordered edge counts."""
        return prod(sum(r.bit_count() for r in self.trace.g2_rows[alpha])
                    for alpha in self.core) // 2

    def induces_clique(self, tuples, loops=False):
        """Whether the tuples are pairwise adjacent (strictly, or in the
        quotient reading when loops is set)."""
        ts = [self.check_vertex(t) for t in tuples]
        return all(self._adjacent(a, b, loops)
                   for a, b in combinations(ts, 2) if a != b)


def format_product_vertex(tup):
    return "(" + ",".join(str(x) for x in tup) + ")"


def _core(t):
    """The generator of a trace's principal family, ascending."""
    if not isinstance(t, Trace):
        raise InputError("build expects a Trace")
    if t.family.kind != PRINCIPAL:
        raise CapabilityError(
            "reduced products need a principal family; got %s" % t.family.kind)
    return tuple(_bits(t.family.param))


def build(t):
    """The reduced product of a principal trace.

    The core is the family generator; an index with no vertices there
    makes the product empty.
    """
    core = _core(t)
    return ReducedProduct(
        t, core, prod(t.g1_masks[alpha].bit_count() for alpha in core))


def eta(t):
    """The constant-tuple embedding of the formula set.

    Every formula must be a vertex at every core index; the first
    missing (formula, index) pair is a consistency error.  Returns a
    dict formula -> product vertex; distinct formulas give tuples
    differing everywhere, so the map is injective.
    """
    core = _core(t)
    for b in range(t.n_formulas):
        for alpha in core:
            if not t.g1_masks[alpha] >> b & 1:
                raise ConsistencyError(
                    "formula %d missing from index %d of the core" % (b, alpha))
    return {b: (b,) * len(core) for b in range(t.n_formulas)}


def eta_clique_witness(t):
    """First (beta, gamma, alpha) where the eta image misses an edge,
    or None when the image induces a complete subgraph."""
    eta(t)
    core = _core(t)
    for b, c in combinations(range(t.n_formulas), 2):
        for alpha in core:
            if not t.g2_rows[alpha][b] >> c & 1:
                return b, c, alpha
    return None


class InternalSet(_Value):
    """Product of per-core-index vertex subsets, kept as frozensets in
    ``core`` order (``part_sets``); the view ``parts`` builds the
    index -> part dict on each access."""

    __slots__ = ("core", "part_sets")

    def __init__(self, core, parts):
        core = tuple(core)
        if len(set(core)) != len(core):
            raise InputError("core indices must be distinct")
        if set(parts) != set(core):
            raise InputError("internal set needs one part per core index")
        _freeze(self, core, tuple(frozenset(parts[alpha]) for alpha in core))

    parts = property(lambda self: dict(zip(self.core, self.part_sets)))

    def __repr__(self):
        return "InternalSet(%s)" % ", ".join(
            "%d:%r" % (a, sorted(p)) for a, p in zip(self.core, self.part_sets))

    def count(self):
        size = 1
        for part in self.part_sets:
            size *= len(part)
        return size

    def contains(self, tup):
        tup = tuple(tup)
        if len(tup) != len(self.core):
            return False
        return all(x in part for x, part in zip(tup, self.part_sets))

    def tuples(self):
        if self.count() > MATERIALIZE_CAP:
            raise CapabilityError("internal set too large to enumerate")
        return [tup for tup in
                product(*(tuple(sorted(part)) for part in self.part_sets))]

    def is_clique_in(self, rp):
        """Internal-clique test: every component induces a clique.

        Equivalent to pairwise quotient adjacency of the denoted
        tuples, where shared coordinates count as adjacent.
        """
        if self.core != rp.core:
            raise InputError("internal set core does not match the product")
        for alpha, part in zip(self.core, self.part_sets):
            if not all(_has(rp.trace.g1_masks[alpha], x) for x in part):
                raise InputError(
                    "part at index %d leaves the vertex set" % alpha)
            if not _is_clique(_mask(part), rp.trace.g2_rows[alpha]):
                return False
        return True


def format_internal_set(s):
    lines = []
    for alpha, part in zip(s.core, s.part_sets):
        toks = " ".join(str(x) for x in sorted(part))
        lines.append("K %d :%s" % (alpha, (" " + toks) if toks else ""))
    return "\n".join(lines) + "\n"


def parse_internal_set(text):
    core = []
    parts = {}
    for line in content_lines(text):
        toks = line.split()
        if toks[0] != "K" or len(toks) < 3 or toks[2] != ":":
            raise InputError("malformed internal-set line %r" % line)
        alpha = parse_number(toks[1])
        vs = [parse_number(x) for x in toks[3:]]
        if alpha is None or None in vs:
            raise InputError("malformed number in %r" % line)
        if alpha in parts:
            raise InputError("duplicate internal-set line for index %d" % alpha)
        core.append(alpha)
        parts[alpha] = vs
    if not core:
        raise InputError("internal set needs at least one K line")
    return InternalSet(core, parts)


def extend_to_internal_clique(rp, target):
    """Grow a complete set of product vertices into an internal clique.

    The target must be pairwise adjacent in the quotient reading (equal
    coordinates allowed); each projection is then a per-index clique
    and is extended to the lexicographically least maximal clique
    containing it.  A target that is not complete is an input error:
    no internal clique can hold it, since the denotation of an internal
    clique is pairwise quotient-adjacent.
    """
    ts = [rp.check_vertex(x) for x in target]
    for a, b in combinations(ts, 2):
        if a != b and not rp.loop_adjacent(a, b):
            raise InputError(
                "target tuples %s and %s are not adjacent"
                % (format_product_vertex(a), format_product_vertex(b)))
    parts = {}
    for i, alpha in enumerate(rp.core):
        proj = {x[i] for x in ts}
        parts[alpha] = _grow_clique(rp.trace, alpha, proj)
    return InternalSet(rp.core, parts)


def _grow_clique(t, alpha, seed):
    rows = t.g2_rows[alpha]
    clique = sum(1 << v for v in set(seed))
    for v in _bits(t.g1_masks[alpha] & ~clique):
        if not clique & ~rows[v]:
            clique |= 1 << v
    return frozenset(_bits(clique))


def eta_extension(t):
    """Internal clique around the eta image, or None.

    None covers both failure modes: a formula missing somewhere on the
    core, and an eta image that is not complete.  Succeeds exactly when
    the trace has a multiplicative refinement.  A complete image puts
    every formula at every core index, where each pair is an edge, so
    the one internal clique around it takes all the formulas at each.
    """
    try:
        if eta_clique_witness(t) is not None:
            return None
    except ConsistencyError:
        return None
    core = _core(t)
    return InternalSet(core, dict.fromkeys(core, range(t.n_formulas)))
