"""Traces over covering families, and the trace conditions.

The data here lives over two finite sets: an index set I = {0..nI-1} and
a formula set B = {0..nB-1}, under a covering family of subsets of I
(``covering``).  A *trace* assigns to each index a graph on formula
vertices: g1(alpha) is the vertex set, g2(alpha) the edge set.  Every
consumer reads them in one representation, a vertex mask and n_formulas
adjacency rows (``Graph.rows``) per index, which the parser fills
directly; ``g1`` and ``g2`` build frozensets on each use.  A trace is
multiplicative precisely when every nonempty per-index graph is
complete.  The chain condition and the catalog inclusions are placement
searches on the per-index graphs.

Traces serialize to a line format (``indices``, ``formulas``,
``family``, ``g1``, ``g2``, optional ``k1``/``k2``).  Structural
violations (an edge outside g1, an instance not dominating the trace)
are load errors; pair-adequacy is deliberately only reported, since a
stored trace may be meaningful before any adequacy repair.

Index sets are masks too: family generators and members, supports and
the refinement search's state.  Three parts live in modules of their
own: covering families, the per-index mask helpers and the family
declaration's reader in ``covering``; the refinement search, Łoś
instances, restriction and the trace writer in ``refinement``; full
distributions, level maps and the property checks in ``fulldist``.
``_MOVED`` serves the five names of the last two that the bench reads
here.
"""

from itertools import chain, combinations

from . import (INTERVAL, _Value, _forward, _freeze, catalog, check_shape,
               graphs, refinement)
from .covering import (CoveringFamily, _bits, _build_family, _edges, _graphs,
                       _has, _mask, _parse_int)
from .errors import CapabilityError, InputError, content_lines

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
    return tuple(map(list, _misses(t)))


def is_pair_adequate(t):
    return next(chain(*_misses(t)), None) is None


def _misses(t):
    """The formulas, then the pairs, whose supports miss the family, as
    two lazy ascending iterators; supports are read once per distinct
    (g1 mask, g2 rows) index graph, and each is tested once."""
    shared = {}
    for a, key in enumerate(zip(t.g1_masks, t.g2_rows)):
        shared.setdefault(key, []).append(a)
    support = {}
    for (vertices, rows), at in shared.items():
        m = _mask(at)
        for x in chain(_bits(vertices), _edges(rows)):
            support[x] = support.get(x, 0) | m
    missed = {s for s in {0, *support.values()}
              if not t.family.is_member_mask(s)}
    return ((b for b in range(t.n_formulas) if support.get(b, 0) in missed),
            (p for p in combinations(range(t.n_formulas), 2)
             if support.get(p, 0) in missed))


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
    for line in content_lines(text):
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
