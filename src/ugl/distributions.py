"""Covering families and traces over finite index sets, and the trace
conditions.

The data here lives over two finite sets: an index set I = {0..nI-1}
and a formula set B = {0..nB-1}.  A *covering family* is an upward
closed collection of nonempty subsets of I (quorum, principal, or an
explicit list of minimal members).  A *trace* assigns to each index a
graph on formula vertices: g1(alpha) is the vertex set, g2(alpha) the
edge set.  Every consumer reads them in one representation, a vertex
mask and n_formulas adjacency rows (``Graph.rows``) per index, which the
parser fills directly; ``g1`` and ``g2`` build frozensets on each use.
A trace is multiplicative precisely when every nonempty per-index graph
is complete.  The chain condition and the catalog inclusions are
placement searches on the per-index graphs.

Traces serialize to a line format (``indices``, ``formulas``,
``family``, ``g1``, ``g2``, optional ``k1``/``k2``).  Structural
violations (an edge outside g1, an instance not dominating the trace)
are load errors; pair-adequacy is deliberately only reported, since a
stored trace may be meaningful before any adequacy repair.

Index sets are masks too: family generators and members, supports and
the refinement search's state.  Two halves that no condition check runs
live in modules of their own: the refinement search, Łoś instances,
restriction and the trace writer in ``refinement``; full distributions,
level maps and the property checks in ``fulldist``.  ``_MOVED`` serves
the five of their names that the bench reads here.
"""

from itertools import combinations

from . import (INTERVAL, _Value, _forward, _freeze, catalog, check_shape,
               graphs, refinement)
from .errors import (CapabilityError, ConsistencyError, InputError,
                     parse_number)

# Kept for the bench, which reads these names here (bench/check.py,
# bench/child.py); trace-refine runs its two through here for the spans.
_MOVED = {
    **dict.fromkeys(("find_multiplicative_refinement", "is_refinement",
                     "format_trace"), "refinement"),
    **dict.fromkeys(("extension_distribution", "check_properties"),
                    "fulldist"),
}


__getattr__ = _forward(__name__, _MOVED)


FORMULA_CAP = 12
# Trace headers above these are refused when read.  On an otherwise empty
# trace at the index cap `trace-condition --sop2 --shape tree` takes about
# 19 s; at the formula cap 100 empty indices take 0.3 s there and 0.2 s
# in `trace-refine`.
TRACE_INDEX_CAP = 2900000
TRACE_FORMULA_CAP = 15000

QUORUM = "quorum"
PRINCIPAL = "principal"
EXPLICIT = "explicit"


def _mask(bits):
    """The mask of a collection of nonnegative ints, built in time linear
    in its size and largest element, not one OR at a time."""
    buf = bytearray(max(bits, default=-1) // 8 + 1)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def _checked_mask(vals, bound, what):
    """The mask of an iterable of ints in range(bound), read whole into a
    frozenset first: a fault names the first bad element in set order."""
    vals = frozenset(vals)
    for v in vals:
        if not isinstance(v, int) or not 0 <= v < bound:
            raise InputError("%s element %r out of range 0..%d" % (what, v, bound - 1))
    return _mask(vals)


class CoveringFamily(_Value):
    """Upward closed family of nonempty subsets of a finite index set.

    ``param`` is the quorum threshold, the generator mask (principal) or
    the minimal member masks in ``_bits`` order (explicit).  The public
    methods take index iterables and test their masks with
    ``is_member_mask``."""

    __slots__ = ("index_count", "kind", "param")

    def __init__(self, index_count, kind, param):
        if index_count < 1:
            raise InputError("index set must be nonempty")
        if kind == QUORUM:
            if not isinstance(param, int) or not 1 <= param <= index_count:
                raise InputError("quorum threshold must lie in 1..%d" % index_count)
        elif kind == PRINCIPAL:
            param = _checked_mask(param, index_count, "principal generator")
            if not param:
                raise InputError("principal generator must be nonempty")
        elif kind == EXPLICIT:
            members = [_checked_mask(m, index_count, "explicit member")
                       for m in param]
            if not members:
                raise InputError("explicit family needs at least one member")
            if 0 in members:
                raise InputError("explicit member must be nonempty")
            for a, b in combinations(members, 2):
                if not a & ~b or not b & ~a:
                    raise InputError(
                        "explicit members must be incomparable minimal sets")
            param = tuple(sorted(members, key=_bits))
        else:
            raise InputError("unknown family kind %r" % kind)
        _freeze(self, index_count, kind, param)

    quorum = classmethod(lambda cls, index_count, k: cls(index_count, QUORUM, k))
    principal = classmethod(lambda cls, index_count, generator: cls(
        index_count, PRINCIPAL, generator))
    explicit = classmethod(lambda cls, index_count, members: cls(
        index_count, EXPLICIT, members))

    def __repr__(self):
        if self.kind == QUORUM:
            detail = "k=%d" % self.param
        elif self.kind == PRINCIPAL:
            detail = "J=%r" % _bits(self.param)
        else:
            detail = "members=%r" % list(map(_bits, self.param))
        return "CoveringFamily(%d, %s, %s)" % (self.index_count, self.kind, detail)

    def is_member_mask(self, m):
        """Whether the index mask m is a member."""
        if self.kind == QUORUM:
            return m.bit_count() >= self.param
        if self.kind == PRINCIPAL:
            return not self.param & ~m
        return any(not g & ~m for g in self.param)

    def is_member(self, s):
        return self.is_member_mask(
            _checked_mask(s, self.index_count, "candidate set"))

    def minimal_members(self):
        """The minimal members, sorted; quorum families enumerate them."""
        if self.kind == QUORUM:
            return [frozenset(c) for c in
                    combinations(range(self.index_count), self.param)]
        members = (self.param,) if self.kind == PRINCIPAL else self.param
        return [frozenset(_bits(m)) for m in members]

    def restrict(self, ess):
        """The family {A ∩ ess : A a member} renumbered along sorted(ess).
        ess must be a member, and a cut admitting the empty set is not a
        covering family; each is a consistency error."""
        ess = _checked_mask(ess, self.index_count, "restriction range")
        if not self.is_member_mask(ess):
            raise ConsistencyError("restriction range is not a family member")
        order = _bits(ess)
        if self.kind == QUORUM:
            k = self.param - (self.index_count - len(order))
            if k <= 0:
                raise ConsistencyError(
                    "restriction admits the empty set (quorum met outside)")
            return CoveringFamily.quorum(len(order), k)
        renum = {a: i for i, a in enumerate(order)}
        cut = {_mask([renum[a] for a in _bits(m & ess)])
               for m in ((self.param,) if self.kind == PRINCIPAL else self.param)}
        if 0 in cut:
            raise ConsistencyError(
                "restriction admits the empty set (member disjoint from range)")
        keep = [m for m in cut if not any(o != m and not o & ~m for o in cut)]
        return _freeze(CoveringFamily, len(order), self.kind,
                       keep[0] if self.kind == PRINCIPAL
                       else tuple(sorted(keep, key=_bits)))


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _edges(rows):
    """The pairs (u, v), u < v, of adjacency rows, ascending."""
    return [(u, u + 1 + i) for u, r in enumerate(rows) for i in _bits(r >> u + 1)]


def _has(mask, x):
    """Whether x is a vertex of the vertex mask; vertices are ints."""
    return isinstance(x, int) and x >= 0 and bool(mask >> x & 1)


class _Rows(tuple):
    """Per-index adjacency rows (``Graph.rows`` format) already checked,
    which ``_graphs`` takes as they are; a trace stores its g2 so."""

    __slots__ = ()


def _graphs(n_formulas, vertex_sets, pair_lists, v, p):
    """Per index, the vertex mask of a vertex iterable and the adjacency
    rows of a pair list (``v`` and ``p`` name them in errors); rows given
    as ``_Rows`` pass through.  Every pair must lie inside the vertex set
    of its index."""
    if n_formulas < 0:
        raise InputError("formula count must be nonnegative")
    masks = tuple(_checked_mask(s, n_formulas, v + " entry") for s in vertex_sets)
    out = pair_lists
    if not isinstance(out, _Rows):
        empty = (0,) * n_formulas
        out = []
        for pairs in pair_lists:
            rows = [0] * n_formulas
            for x, y in pairs:
                if x == y or not (0 <= x < n_formulas and 0 <= y < n_formulas):
                    raise InputError("%s pair (%r, %r) %s" % (
                        p, x, y, "is degenerate" if x == y else "out of range"))
                rows[x] |= 1 << y
                rows[y] |= 1 << x
            out.append(tuple(rows) if any(rows) else empty)
        out = _Rows(out)
    for alpha, (m, rs) in enumerate(zip(masks, out)):
        if any(r & ~m for r in rs):
            x, y = next(e for e in _edges(rs) if not m >> e[0] & m >> e[1] & 1)
            raise InputError("%s pair (%d, %d) outside %s at index %d"
                             % (p, x, y, v, alpha))
    return masks, out


class Trace(_Value):
    """Per-index formula graphs under a covering family.

    Each index keeps a vertex mask (``g1_masks``) and n_formulas adjacency
    rows (``g2_rows``); the views ``g1`` and ``g2`` build the frozensets
    of vertices and of pairs (u, v), u < v, on each access.  The
    constructor takes vertex iterables and pair lists, and enforces
    structure: edges lie inside their vertex sets, and a present instance
    dominates the trace pointwise.  Pair-adequacy is only reported.
    """

    __slots__ = ("family", "n_formulas", "g1_masks", "g2_rows", "instance")

    def __init__(self, family, n_formulas, g1, g2, instance=None):
        if not isinstance(family, CoveringFamily):
            raise InputError("family must be a CoveringFamily")
        n = family.index_count
        g1, g2 = _graphs(n_formulas, g1, g2, "g1", "g2")
        if len(g1) != n or len(g2) != n:
            raise InputError("g1/g2 must assign every index exactly once")
        if instance is not None:
            if not isinstance(instance, refinement.LosInstance):
                raise InputError("instance must be a LosInstance")
            if instance.n_indices != n or instance.n_formulas != n_formulas:
                raise InputError("instance dimensions do not match the trace")
            for alpha, (m, k) in enumerate(zip(g1, instance.k1_masks)):
                if m & ~k:
                    raise InputError(
                        "g1 exceeds the instance k1 at index %d" % alpha)
                if any(r & ~q for r, q in zip(g2[alpha], instance.k2_rows[alpha])):
                    raise InputError(
                        "g2 exceeds the instance k2 at index %d" % alpha)
        _freeze(self, family, n_formulas, g1, g2, instance)

    n_indices = property(lambda self: self.family.index_count)
    g1 = property(lambda self: tuple(frozenset(_bits(m)) for m in self.g1_masks))
    g2 = property(lambda self: tuple(frozenset(_edges(rs)) for rs in self.g2_rows))

    def __repr__(self):
        return "Trace(%d formulas, %d indices, %s)" % (
            self.n_formulas, self.n_indices, self.family.kind)


def singleton_support(t, beta):
    """Indices whose vertex set contains the formula."""
    return frozenset(a for a, m in enumerate(t.g1_masks) if _has(m, beta))


def pair_support(t, pair):
    """Indices whose edge set contains the pair."""
    u, v = sorted(pair)
    return frozenset(a for a, (m, rs) in enumerate(zip(t.g1_masks, t.g2_rows))
                     if _has(m, u) and _has(rs[u], v))


def adequacy_report(t):
    """(bad_formulas, bad_pairs), each sorted: the formulas and pairs
    whose supports, as index masks, miss the family; a pair in no g2 has
    the empty support.  Both are empty iff the trace is pair-adequate."""
    member = t.family.is_member_mask
    masks, rows = t.g1_masks, t.g2_rows
    listed = set().union(*map(_edges, set(rows)))
    return ([b for b in range(t.n_formulas) if not member(
                _mask([a for a, m in enumerate(masks) if m >> b & 1]))],
            [p for p in combinations(range(t.n_formulas), 2) if not member(
                _mask([a for a, rs in enumerate(rows) if rs[p[0]] >> p[1] & 1])
                if p in listed else 0)])


def is_pair_adequate(t):
    return not any(adequacy_report(t))


# ---------------------------------------------------------------------------
# graph sequences
# ---------------------------------------------------------------------------

def graph_sequence(t):
    """Per-index (vertex tuple, Graph) pairs; the graphs carry the g2 rows."""
    return [(tuple(_bits(m)), graphs.Graph._from_rows(t.n_formulas, rs))
            for m, rs in zip(t.g1_masks, t.g2_rows)]


def is_multiplicative_trace(t):
    """True iff every index with vertices carries a complete graph."""
    return all(rs[b] | 1 << b == m for m, rs in zip(t.g1_masks, t.g2_rows)
               for b in _bits(m))


# ---------------------------------------------------------------------------
# distribution-level conditions
# ---------------------------------------------------------------------------

def _index_graphs(source):
    """One graph on the formulas per index: a pair is an edge at alpha
    when alpha lies in its g2 support (trace) or its value (full
    distribution)."""
    Graph = graphs.Graph
    if isinstance(source, Trace):
        return [Graph._from_rows(source.n_formulas, rs)
                for rs in source.g2_rows]
    edges = [[] for _ in range(source.n_indices)]
    for u, v in combinations(range(source.n_formulas), 2):
        for a in _bits(source.masks[1 << u | 1 << v]):
            edges[a].append((u, v))
    return [Graph(source.n_formulas, e) for e in edges]


def check_sop2_condition(source):
    """First violating (quadruple, index) of the chain condition, or None.

    For distinct formulas x0..x3, every index carrying the three chain
    pairs {x0,x1}, {x1,x2}, {x2,x3} must carry a diagonal {x0,x2} or
    {x1,x3}.  Accepts a full distribution or a trace.  A violation at an
    index is a placement of the catalog's ``L4`` host (the path 0-1-2-3,
    curated pairs 0-2 and 1-3) into its index graph, so the witness is
    the least ``L4`` placement: the least quadruple over all indices,
    then the least index carrying it.
    """
    return catalog.least_placement("L4", None, _index_graphs(source))


def check_necessary_conditions(t, shape):
    """First violation of the catalog inclusions, or None.

    For every catalog family of the shape with at most n_formulas
    vertices and every injective placement of its vertices into the
    formula set, the indices carrying all placed host edges must be
    covered by the placed necessary-set pairs.  A violation comes back
    as (family token, placement, index): the first family in catalog
    order that has one, then its ``least_placement`` over the index
    graphs.  The ``interval`` hosts grow with the formula count and the
    search is exponential in the host size, so that shape is bounded to
    FORMULA_CAP formulas; the ``tree`` hosts have four vertices, a
    polynomial search.  Accepts a trace or a full distribution.
    """
    check_shape(shape)
    if shape == INTERVAL and t.n_formulas > FORMULA_CAP:
        raise CapabilityError(
            "trace conditions bounded to %d formulas" % FORMULA_CAP)
    index_graphs = _index_graphs(t)
    for kind, param in catalog.shape_families(shape, t.n_formulas):
        found = catalog.least_placement(kind, param, index_graphs)
        if found is not None:
            return (catalog.family_str(kind, param),) + found
    return None


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_trace(text):
    """Parse the trace line format; structural violations are errors.

    Headers above ``TRACE_INDEX_CAP`` or ``TRACE_FORMULA_CAP`` are
    capability errors, raised before anything is allocated.  Each row
    goes into its vertex mask or adjacency rows as it is parsed, the
    instance rows first, so the first fault in that order is reported.
    """
    header = {}
    fam_decl = None
    members = []
    rows = {"g1": {}, "g2": {}, "k1": {}, "k2": {}}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 3)
        head = parts[0]
        if head in rows:
            if len(parts) < 3 or parts[2] != ":":
                raise InputError("malformed %s line %r" % (head, line))
            alpha = _parse_int(parts[1], line)
            if alpha in rows[head]:
                raise InputError("duplicate %s line for index %d" % (head, alpha))
            rows[head][alpha] = parts[3] if len(parts) > 3 else ""
            continue
        parts = line.split()
        if head in ("indices", "formulas"):
            if head in header or len(parts) != 2:
                raise InputError("malformed %s line %r" % (head, line))
            header[head] = _parse_int(parts[1], line)
            cap = TRACE_INDEX_CAP if head == "indices" else TRACE_FORMULA_CAP
            if header[head] > cap:
                raise CapabilityError("traces bounded to %d %s" % (cap, head))
        elif head == "family":
            if fam_decl is not None or len(parts) < 2:
                raise InputError("malformed family line %r" % line)
            fam_decl = parts[1:]
        elif head == "member":
            members.append([_parse_int(tok, line) for tok in parts[1:]])
        else:
            raise InputError("unknown directive %r in trace" % head)
    if len(header) < 2 or fam_decl is None:
        raise InputError("trace needs indices, formulas, and family lines")
    n_indices, n_formulas = header["indices"], header["formulas"]
    family = _build_family(n_indices, fam_decl, members)
    g1, g2, k1, k2 = (_collect_rows(rows[k], n_indices, k[1] == "2")
                      for k in ("g1", "g2", "k1", "k2"))
    instance = None
    if rows["k1"] or rows["k2"]:
        instance = refinement.LosInstance(n_formulas, k1, k2)
    return Trace(family, n_formulas, g1, g2, instance)


def _parse_int(tok, line):
    n = parse_number(tok)
    if n is None:
        raise InputError("malformed number %r in %r" % (tok, line))
    return n


def _build_family(n_indices, decl, members):
    kind = decl[0]
    if kind == "quorum":
        if len(decl) != 2 or members:
            raise InputError("malformed quorum family declaration")
        return CoveringFamily.quorum(n_indices, _parse_int(decl[1], "family"))
    if kind == "principal":
        if members:
            raise InputError("member lines only belong to explicit families")
        return CoveringFamily.principal(
            n_indices, [_parse_int(tok, "family") for tok in decl[1:]])
    if kind == "explicit":
        if len(decl) != 1:
            raise InputError("malformed explicit family declaration")
        return CoveringFamily.explicit(n_indices, members)
    raise InputError("unknown family kind %r" % kind)


def _collect_rows(got, n_indices, pairs):
    """Per index, an iterator over the parsed entries of its row."""
    for alpha in got:
        if not 0 <= alpha < n_indices:
            raise InputError("row index %d out of range" % alpha)
    for alpha in range(n_indices):
        yield _parse_row(got.get(alpha, ""), pairs)


def _parse_row(text, pairs):
    for tok in text.split():
        if not pairs:
            yield _parse_int(tok, tok)
            continue
        a, sep, b = tok.partition("-")
        if not sep:
            raise InputError("malformed pair token %r" % tok)
        yield _parse_int(a, tok), _parse_int(b, tok)
