"""Finite reduced-product graphs over principal covering families.

A trace whose family is principal with generator J induces a product
graph: vertices are tuples picking one g1(alpha) vertex for each alpha
in J, and two tuples are adjacent when they are coordinatewise
adjacent at every alpha in J.  Over a one-element J this is just the
per-index graph; larger J multiply the vertex counts, so the product
is materialized only below a size cap and everything else works on
componentwise data.

Internal sets are products of per-index subsets.  An internal set is
an internal clique when every component induces a clique; on tuples
this corresponds to the quotient reading where two tuples sharing a
coordinate count as adjacent there (a loop at every vertex).  The
constant-tuple embedding eta sends each formula to the tuple that
repeats it; its image extends to an internal clique exactly when the
trace has a multiplicative refinement, which is the finite shadow of
the compactness argument this module exists to exercise.

Non-principal families are refused: without a single generating core
the componentwise reading of edges is not sound.
"""

from itertools import combinations, product

from .errors import CapabilityError, ConsistencyError, InputError
from .distributions import PRINCIPAL, Trace, _bits, _freeze, _has

MATERIALIZE_CAP = 10 ** 6


class ReducedProduct:
    """Product graph of the per-index graphs over the principal core."""

    __slots__ = ("trace", "core", "parts", "size")

    def __init__(self, trace, core, parts, size):
        _freeze(self, trace, core, parts, size)

    def __setattr__(self, name, value):
        raise AttributeError("ReducedProduct is immutable")

    def __repr__(self):
        return "ReducedProduct(core=%r, size=%d)" % (list(self.core), self.size)

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
        """Strict product adjacency: an edge at every core coordinate."""
        tu = self.check_vertex(tu)
        tv = self.check_vertex(tv)
        if tu == tv:
            return False
        for x, y, alpha in zip(tu, tv, self.core):
            if not self.trace.g2_rows[alpha][x] >> y & 1:
                return False
        return True

    def loop_adjacent(self, tu, tv):
        """Quotient adjacency: per coordinate, equal or an edge."""
        tu = self.check_vertex(tu)
        tv = self.check_vertex(tv)
        for x, y, alpha in zip(tu, tv, self.core):
            if x != y and not self.trace.g2_rows[alpha][x] >> y & 1:
                return False
        return True

    def vertices(self):
        """All tuples in lexicographic order; capped."""
        if self.size > MATERIALIZE_CAP:
            raise CapabilityError(
                "product with %d vertices exceeds the materialization cap"
                % self.size)
        return [tup for tup in product(*self.parts)]

    def to_graph(self):
        """The materialized product as (Graph, vertex order); capped."""
        # the only graph code here, so that the ultragraph command
        # compiles none
        from .graphs import Graph

        vs = self.vertices()
        pos = {v: i for i, v in enumerate(vs)}
        edges = []
        for tu, tv in combinations(vs, 2):
            if self.has_edge(tu, tv):
                edges.append((pos[tu], pos[tv]))
        return Graph(len(vs), edges), vs

    def edge_count(self):
        """The number of edges.  Two tuples adjacent at every core index
        differ there, and the core is nonempty, so the ordered adjacent
        pairs number the product of the per-index ordered edge counts."""
        count = 1
        for alpha in self.core:
            count *= sum(r.bit_count() for r in self.trace.g2_rows[alpha])
        return count // 2

    def induces_clique(self, tuples, loops=False):
        """Whether the tuples are pairwise adjacent (strictly, or in the
        quotient reading when loops is set)."""
        ts = [self.check_vertex(t) for t in tuples]
        test = self.loop_adjacent if loops else self.has_edge
        return all(test(a, b) for a, b in combinations(ts, 2) if a != b)


def format_product_vertex(tup):
    return "(" + ",".join(str(x) for x in tup) + ")"


def build(t):
    """The reduced product of a principal trace.

    The core is the family generator; an index with no vertices there
    makes the product empty.
    """
    if not isinstance(t, Trace):
        raise InputError("build expects a Trace")
    if t.family.kind != PRINCIPAL:
        raise CapabilityError(
            "reduced products need a principal family; got %s" % t.family.kind)
    core = tuple(_bits(t.family.param))
    parts = [tuple(_bits(t.g1_masks[alpha])) for alpha in core]
    size = 1
    for p in parts:
        size *= len(p)
    return ReducedProduct(t, core, parts, size)


def eta(t):
    """The constant-tuple embedding of the formula set.

    Every formula must be a vertex at every core index; the first
    missing (formula, index) pair is a consistency error.  Returns a
    dict formula -> product vertex; distinct formulas give tuples
    differing everywhere, so the map is injective.
    """
    rp = build(t)
    out = {}
    for b in range(t.n_formulas):
        for alpha in rp.core:
            if not t.g1_masks[alpha] >> b & 1:
                raise ConsistencyError(
                    "formula %d missing from index %d of the core" % (b, alpha))
        out[b] = tuple(b for _ in rp.core)
    return out


def eta_clique_witness(t):
    """First (beta, gamma, alpha) where the eta image misses an edge,
    or None when the image induces a complete subgraph."""
    rp = build(t)
    etamap = eta(t)
    for b, c in combinations(sorted(etamap), 2):
        for alpha in rp.core:
            if not t.g2_rows[alpha][b] >> c & 1:
                return b, c, alpha
    return None


class InternalSet:
    """Product of per-core-index vertex subsets."""

    __slots__ = ("core", "parts")

    def __init__(self, core, parts):
        core = tuple(core)
        if len(set(core)) != len(core):
            raise InputError("core indices must be distinct")
        parts = {alpha: frozenset(parts[alpha]) for alpha in core}
        if set(parts) != set(core):
            raise InputError("internal set needs one part per core index")
        _freeze(self, core, parts)

    def __setattr__(self, name, value):
        raise AttributeError("InternalSet is immutable")

    def __eq__(self, other):
        return (isinstance(other, InternalSet)
                and self.core == other.core and self.parts == other.parts)

    def __repr__(self):
        return "InternalSet(%s)" % ", ".join(
            "%d:%r" % (a, sorted(self.parts[a])) for a in self.core)

    def count(self):
        size = 1
        for alpha in self.core:
            size *= len(self.parts[alpha])
        return size

    def contains(self, tup):
        tup = tuple(tup)
        if len(tup) != len(self.core):
            return False
        return all(x in self.parts[alpha]
                   for x, alpha in zip(tup, self.core))

    def tuples(self):
        if self.count() > MATERIALIZE_CAP:
            raise CapabilityError("internal set too large to enumerate")
        return [tup for tup in
                product(*(tuple(sorted(self.parts[a])) for a in self.core))]

    def is_clique_in(self, rp):
        """Internal-clique test: every component induces a clique.

        Equivalent to pairwise quotient adjacency of the denoted
        tuples, where shared coordinates count as adjacent.
        """
        if self.core != rp.core:
            raise InputError("internal set core does not match the product")
        for alpha in self.core:
            part = self.parts[alpha]
            if not all(_has(rp.trace.g1_masks[alpha], x) for x in part):
                raise InputError(
                    "part at index %d leaves the vertex set" % alpha)
            rows = rp.trace.g2_rows[alpha]
            for u, v in combinations(sorted(part), 2):
                if not rows[u] >> v & 1:
                    return False
        return True


def format_internal_set(s):
    lines = []
    for alpha in s.core:
        toks = " ".join(str(x) for x in sorted(s.parts[alpha]))
        lines.append("K %d :%s" % (alpha, (" " + toks) if toks else ""))
    return "\n".join(lines) + "\n"


def parse_internal_set(text):
    core = []
    parts = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] != "K" or len(toks) < 3 or toks[2] != ":":
            raise InputError("malformed internal-set line %r" % line)
        try:
            alpha = int(toks[1])
            vs = [int(x) for x in toks[3:]]
        except ValueError:
            raise InputError("malformed number in %r" % line)
        if alpha in parts:
            raise InputError("duplicate internal-set line for index %d" % alpha)
        core.append(alpha)
        parts[alpha] = vs
    if not core:
        raise InputError("internal set needs at least one K line")
    return InternalSet(core, parts)


def extend_to_internal_clique(rp, target, require_complete=True):
    """Grow a complete set of product vertices into an internal clique.

    The target must be pairwise adjacent in the quotient reading (equal
    coordinates allowed); each projection is then a per-index clique
    and is extended to the lexicographically least maximal clique
    containing it.  A target that is not complete either raises (the
    default) or yields None: no internal clique can hold it, since the
    denotation of an internal clique is pairwise quotient-adjacent.
    """
    ts = [rp.check_vertex(x) for x in target]
    for a, b in combinations(ts, 2):
        if a != b and not rp.loop_adjacent(a, b):
            if require_complete:
                raise InputError(
                    "target tuples %s and %s are not adjacent"
                    % (format_product_vertex(a), format_product_vertex(b)))
            return None
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
    the trace has a multiplicative refinement.
    """
    try:
        etamap = eta(t)
    except ConsistencyError:
        return None
    rp = build(t)
    return extend_to_internal_clique(rp, list(etamap.values()),
                                     require_complete=False)


class LiftedMap:
    """Coordinatewise map between reduced products.

    Acts through per-index vertex maps on the source core; target core
    indices outside the source core get a fixed least vertex.
    """

    __slots__ = ("source", "target", "theta", "fill")

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
        _freeze(self, source, target, theta, fill)

    def __setattr__(self, name, value):
        raise AttributeError("LiftedMap is immutable")

    def apply(self, tup):
        tup = self.source.check_vertex(tup)
        by_index = dict(zip(self.source.core, tup))
        out = []
        for alpha in self.target.core:
            if alpha in by_index:
                out.append(self.theta[alpha][by_index[alpha]])
            else:
                out.append(self.fill[alpha])
        return self.target.check_vertex(tuple(out))

    def image_of(self, s):
        """Image of an internal set; again internal, componentwise."""
        if s.core != self.source.core:
            raise InputError("internal set core does not match the source")
        parts = {}
        for alpha in self.target.core:
            if alpha in s.parts:
                parts[alpha] = frozenset(
                    self.theta[alpha][v] for v in s.parts[alpha])
            else:
                parts[alpha] = frozenset((self.fill[alpha],))
        return InternalSet(self.target.core, parts)

    def preimage_of(self, s):
        """Preimage of an internal set; internal over the source core."""
        if s.core != self.target.core:
            raise InputError("internal set core does not match the target")
        for alpha, v in self.fill.items():
            if v not in s.parts[alpha]:
                return InternalSet(
                    self.source.core,
                    {a: frozenset() for a in self.source.core})
        parts = {}
        for alpha in self.source.core:
            parts[alpha] = frozenset(
                v for v in _bits(self.source.trace.g1_masks[alpha])
                if self.theta[alpha][v] in s.parts[alpha])
        return InternalSet(self.source.core, parts)


def lift_map(source, target, theta):
    return LiftedMap(source, target, theta)


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
    if t.family.kind != PRINCIPAL:
        raise CapabilityError("transversal traces need a principal family")
    core = tuple(_bits(t.family.param))
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
    for b in range(nb):
        for alpha in core:
            if not _has(t.g1_masks[alpha], h[b][alpha]):
                raise InputError(
                    "transversal value for formula %d at index %d is not a "
                    "vertex" % (b, alpha))
    for b, c in combinations(range(nb), 2):
        for alpha in core:
            x, y = h[b][alpha], h[c][alpha]
            if x != y and not t.g2_rows[alpha][x] >> y & 1:
                raise InputError(
                    "transversal images of formulas %d and %d are not "
                    "adjacent at index %d" % (b, c, alpha))
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
    theta = {alpha: {b: h[b][alpha] for b in l1[alpha]} for alpha in core}
    return new, theta
