"""Pair masks over the non-edges of one host, the check of candidate
pairs, the work spend of a request, and the completion machinery of
``necessary``: the witness pairs a completion search branches on, the
sweep of the minimal member supergraphs, and the minimal hitting sets
of what it finds.

A mask has bit k for the k-th host non-edge in column order (0,1),
(0,2), (1,2), (0,3), ...  Recognition goes through ``shapes`` and the
budget is ``necessary.WORK_BUDGET``.
"""

from . import _bits, check_shape, necessary, shapes
from .errors import CapabilityError, InputError


# ---------------------------------------------------------------------------
# pair masks: sets of host non-edges as bits, in column order
# ---------------------------------------------------------------------------

def _non_edges(h):
    """The host's non-edges (i, j), i < j, in column order, and the bit
    of each, keyed by (i, j) and by (j, i)."""
    ne = [(i, j) for j, row in enumerate(h.rows)
          for i in _bits(~row & (1 << j) - 1)]
    idx = {}
    for k, (i, j) in enumerate(ne):
        idx[i, j] = idx[j, i] = k
    return ne, idx


def _check_pairs(h, edges):
    for u, v in edges:
        if not (0 <= u < v < h.n):
            raise InputError("pair (%d, %d) out of range" % (u, v))
        if h.has_edge(u, v):
            raise InputError("pair (%d, %d) is an edge of the host" % (u, v))


def _pairs(ne, mask):
    """The pairs of a mask over the non-edges ne, by ascending bit."""
    return [ne[k] for k in _bits(mask)]


class _Spend:
    """The units of work one request has spent against
    ``necessary.WORK_BUDGET``, read there on each charge."""

    units = 0

    def charge(self, units):
        self.units += units
        if self.units > necessary.WORK_BUDGET:
            raise CapabilityError(
                "necessary-set enumeration bounded to %d units of work"
                % necessary.WORK_BUDGET)


# ---------------------------------------------------------------------------
# branching on witness pairs
# ---------------------------------------------------------------------------

_TREE_PATTERN_NON_EDGES = {"C4": ((0, 2), (1, 3)), "L4": ((0, 2), (0, 3), (1, 3))}


def _branch_bits(n, idx, mask, banned, witness):
    """Pair positions whose addition can destroy the witness.

    A chordless cycle survives any addition except a chord; an
    asteroidal triple survives any addition not incident to it (the
    triple stays independent and the connecting paths only gain edges);
    an induced 4-cycle or 4-path survives unless one of its missing
    pairs is filled.  So every member above ``mask`` avoiding ``banned``
    contains one of the returned pairs.  A host edge has no position in
    ``idx``, as it is always present.
    """
    vs = witness.vertices
    if witness.kind == shapes.FORBIDDEN_FAMILY:
        pattern = _TREE_PATTERN_NON_EDGES[witness.family[0]]
        pairs = [(vs[u], vs[v]) for u, v in pattern]
    elif witness.kind == shapes.IRREDUCIBLE_CYCLE:
        k = len(vs)
        pairs = [(vs[i], vs[j])
                 for i in range(k) for j in range(i + 2, k - (i == 0))]
    else:
        pairs = [(x, y) for x in vs for y in range(n) if y != x]
    cands = {idx.get(p, -1) for p in pairs}
    free = ~(mask | banned)
    return sorted(p for p in cands if p >= 0 and free >> p & 1)


# ---------------------------------------------------------------------------
# enumeration route
# ---------------------------------------------------------------------------

def _minimal_completions(shape, h, spend):
    """The host non-edges, and the masks of the pairs added by the
    inclusion-minimal member supergraphs of h.

    A level-order sweep by the number of added pairs, from E(H).  A
    member is recorded; a non-member branches on the ``_branch_bits``
    of its witness, because every member above it fills one of them
    (Cai 1996).  So each minimal completion S is reached through masks
    below S, which are non-members by minimality.  A mask above a
    recorded member is skipped, and in level order the recorded members
    are exactly the minimal ones.
    """
    check_shape(shape)
    spend.charge(h.n * (h.n - 1) // 2 - h.edge_count())
    ne, idx = _non_edges(h)
    found, level = [], {0}
    while level:
        wider, members = set(), []
        for mask in level:
            if any(m & mask == m for m in found):
                continue
            w = shapes.recognize(shape, h.with_edges(_pairs(ne, mask)))
            if w is None:
                members.append(mask)
                continue
            before = len(wider)
            wider.update(mask | 1 << p
                         for p in _branch_bits(h.n, idx, mask, 0, w))
            spend.charge(len(wider) - before)
        found += members
        level = wider
    return ne, found


def _sorted_pairs(ne, masks):
    """Pair masks as tuples of pairs, sorted by (size, pairs)."""
    return sorted((tuple(sorted(_pairs(ne, m))) for m in masks),
                  key=lambda s: (len(s), s))


def _minimal_hits(shape, h, spend):
    """All minimal hitting sets of the minimal completions, sorted.

    Minimal-transversal branching (Murakami & Uno 2014) on the pairs of
    the first completion the current choice misses; the child taking the
    i-th such pair may not take a later one, so each choice is visited
    once.  A choice is pruned once one of its pairs has no private
    completion (one the choice meets only there), as no wider choice is
    then minimal.  Each choice carries the completions it misses or
    meets once; one met twice is neither missed nor private again.  Each
    node is charged the completions it carries.
    """
    ne, family = _minimal_completions(shape, h, spend)
    hits = []
    stack = [(0, -1, family)]
    while stack:
        chosen, allowed, live = stack.pop()
        spend.charge(len(live))
        missed, private = None, {}
        for f in live:
            hit = f & chosen
            if hit:
                private[hit] = private.get(hit, f) & f
            elif missed is None:
                missed = f
        if missed is None:
            hits.append(chosen)
            continue
        # A pair in every private completion of a chosen pair would
        # leave that pair with none.
        blocked = 0
        for common in private.values():
            blocked |= common
        rest, branch = allowed & ~missed, missed & allowed
        while branch:
            bit = branch & -branch
            branch ^= bit
            if not bit & blocked:
                stack.append((chosen | bit, rest,
                              [f for f in live if not (f & chosen and f & bit)]))
            rest |= bit
    return _sorted_pairs(ne, hits)
