"""Covering families on index masks, the per-index mask helpers that
traces and Łoś instances are built with, and the trace format's family
declaration.

A *covering family* is an upward closed collection of nonempty subsets
of an index set I = {0..nI-1}: quorum, principal, or an explicit list
of minimal members.  Index sets are masks.  Per index, a vertex set is
a mask and an edge set is adjacency rows (``Graph.rows``), read with the
package's ``_bits`` and ``_edges``.  ``_graphs`` checks and builds both
from vertex iterables and pair lists, ``_is_clique`` is the one clique
test of a mask against rows, and code that already holds checked masks
and rows builds its value with ``_freeze``.
"""

from itertools import combinations

from . import _Value, _bits, _edges, _freeze
from .errors import ConsistencyError, InputError, parse_number

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


def _has(mask, x):
    """Whether x is a vertex of the vertex mask; vertices are ints."""
    return isinstance(x, int) and x >= 0 and bool(mask >> x & 1)


def _is_clique(mask, rows):
    """Whether the vertices of mask are pairwise edges of the rows."""
    return all(mask & ~rows[b] == 1 << b for b in _bits(mask))


def _graphs(n_formulas, vertex_sets, pair_lists, v, p):
    """Per index, the vertex mask of a vertex iterable and the adjacency
    rows of a pair list (``v`` and ``p`` name them in errors).  Every
    pair must lie inside the vertex set of its index."""
    if n_formulas < 0:
        raise InputError("formula count must be nonnegative")
    masks = tuple(_checked_mask(s, n_formulas, v + " entry") for s in vertex_sets)
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
    for alpha, (m, rs) in enumerate(zip(masks, out)):
        if any(r & ~m for r in rs):
            x, y = next(e for e in _edges(rs) if not m >> e[0] & m >> e[1] & 1)
            raise InputError("%s pair (%d, %d) outside %s at index %d"
                             % (p, x, y, v, alpha))
    return masks, tuple(out)
