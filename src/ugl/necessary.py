"""Necessary sets of non-edges for completing a host graph to a shape member.

Fix a shape and a host graph H, typically one of the minimal
obstructions.  Completing H means choosing a member G of the shape on
the same vertex set together with an edge-preserving bijection of H
into G; the completion "uses" the host non-edges whose images become
edges of G.  A set B of host non-edges is *necessary* when every
completion uses at least one element of B: no matter how the host is
re-placed and extended into a member, some pair from B gets glued.

One completion search decides necessity, under one work budget
(``WORK_BUDGET``) that also bounds the sweep behind the minimal sets.
Both keep sets of host non-edges as pair masks: bit k stands for the
k-th host non-edge in column order (0,1), (0,2), (1,2), (0,3), ..., and
a mask for the host plus its pairs.

* Search: a member g between the floor E(H) | psi(E(H)) and the
  complement of psi(B), for any bijection psi, pulls back to psi^-1(g),
  a member that contains E(H) and avoids B.  So B is necessary iff no
  member lies between E(H) and the complement of B, and the same holds
  for psi(B) when psi is an automorphism of H.  One completion search
  decides it, from E(H) with the least psi(B) over the automorphisms:
  that is the least (floor, banned) sandwich over all bijections, so
  the witness is the one a sweep of every sandwich in order finds
  first.  The search branches only on pairs that can destroy a concrete
  obstruction witness of the current graph: a chord of a chordless
  cycle, a pair incident to an asteroidal triple, or a missing diagonal
  of an induced 4-cycle or 4-path.  Adding any pair outside those sets
  leaves the witness intact, so the branching is complete.
* Sweep: list the minimal member supergraphs of H on V(H) and record
  the host non-edges each adds.  The used set of an edge-preserving
  bijection psi of H into a member g2 is the added set of psi^-1(g2).
  That graph is a member (it is isomorphic to g2) and contains H (psi
  preserves edges), so the identity placements already give every used
  set, and B is necessary iff it meets each added set.  The sweep
  branches on the witness pairs of the search, and the subset-minimal
  necessary sets are the minimal hitting sets of what it finds.

The flag vocabulary for a candidate set: ``necessary``, ``submin`` (no
proper subset is necessary), ``mincard`` (no smaller necessary set
exists), ``unique`` (the only necessary set of minimum size).  In a
stored set file a flag value 1 is a claim that must verify; 0 makes no
claim and is skipped by verification.

The pair masks, the check of candidate pairs, the spend, the
witness-pair branching, the sweep and its hitting sets live in
``completions``; the search, the minimal sets, the flags and the set
format live here.
"""

from functools import cache

from . import _Value, _freeze, catalog, check_shape
from .completions import (_Spend, _branch_bits, _check_pairs,
                          _minimal_completions, _minimal_hits, _non_edges,
                          _pairs, _sorted_pairs)
from .errors import InputError, content_lines, parse_number
from .embeddings import iter_embeddings
from .graphs import INDUCED
from .shapes import recognize

# Work bound of one request, shared by every sweep and search it runs.
# The sweep charges one unit per host non-edge up front, then one per
# distinct mask it reaches and, per node of its hitting-set branching,
# one per completion the node carries.  The search charges one unit per
# host pair up front (so no host of more than 362 vertices reaches its
# automorphism scan), then one per automorphism and one per mask it
# recognizes.  README "Bounds" lists what fits.
WORK_BUDGET = 1 << 16

FLAG_NAMES = ("necessary", "submin", "mincard", "unique")


class NecessarySet(_Value):
    """A candidate set of host non-edges with claimed flags, kept as
    bools in ``FLAG_NAMES`` order (``flag_values``); the view ``flags``
    builds the name -> bool dict on each access."""

    __slots__ = ("edges", "flag_values")

    def __init__(self, edges, flags=None):
        seen = set()
        for e in edges:
            if len(e) != 2 or e[0] >= e[1] or e[0] < 0:
                raise InputError("bad pair %r (expected u-v with u < v)" % (e,))
            if e in seen:
                raise InputError("duplicate pair %r" % (e,))
            seen.add(e)
        flags = dict(flags or {})
        for k in flags:
            if k not in FLAG_NAMES:
                raise InputError("unknown flag %r" % k)
        _freeze(self, tuple(sorted(edges)),
                tuple(bool(flags.get(k, False)) for k in FLAG_NAMES))

    flags = property(lambda self: dict(zip(FLAG_NAMES, self.flag_values)))

    def __repr__(self):
        return "NecessarySet(%r, flags=%r)" % (list(self.edges), self.claimed())

    def claimed(self):
        return [k for k, on in zip(FLAG_NAMES, self.flag_values) if on]


def format_necessary_set(ns):
    head = " ".join(["B"] + ["%d-%d" % e for e in ns.edges])
    tail = "flags " + " ".join("%s=%d" % kv for kv in ns.flags.items())
    return head + "\n" + tail + "\n"


def parse_necessary_set(text):
    edges = None
    flags = None
    for line in content_lines(text):
        parts = line.split()
        if parts[0] == "B":
            if edges is not None:
                raise InputError("repeated B line")
            edges = []
            for tok in parts[1:]:
                a, _, b = tok.partition("-")
                pair = (parse_number(a), parse_number(b))
                if None in pair:
                    raise InputError("malformed pair token %r" % tok)
                edges.append(pair)
        elif parts[0] == "flags":
            if flags is not None:
                raise InputError("repeated flags line")
            flags = {}
            for tok in parts[1:]:
                name, sep, val = tok.partition("=")
                if not sep or name not in FLAG_NAMES or val not in ("0", "1"):
                    raise InputError("malformed flag token %r" % tok)
                if name in flags:
                    raise InputError("repeated flag %r" % name)
                flags[name] = val == "1"
        else:
            raise InputError("unknown directive %r in set file" % parts[0])
    if edges is None or flags is None:
        raise InputError("set file needs a B line and a flags line")
    return NecessarySet(edges, flags)


# ---------------------------------------------------------------------------
# the sweep and the minimal sets
# ---------------------------------------------------------------------------

def necessity_constraints(shape, h):
    """The inclusion-minimal used sets over all completions of the host.

    They are the added sets E(G) minus E(H) of the minimal member
    supergraphs G of H on V(H).  The used set of an edge-preserving
    bijection psi of H into a member g2 is the added set of psi^-1(g2).
    That graph is a member (it is isomorphic to g2) and contains H (psi
    preserves edges), so every used set contains one of these.
    Returned as frozensets sorted by (size, pairs).
    """
    return [frozenset(s) for s in
            _sorted_pairs(*_minimal_completions(shape, h, _Spend()))]


def minimal_necessary_sets(shape, h):
    """All subset-minimal necessary sets, sorted by (size, pairs).

    Each comes back as a NecessarySet whose flags record whether it
    attains the minimum cardinality and whether it is the only set
    doing so.
    """
    hits = _minimal_hits(shape, h, _Spend())
    if not hits:
        return []
    smallest = min(len(c) for c in hits)
    winners = sum(len(c) == smallest for c in hits)
    return [NecessarySet(c, {"necessary": 1, "submin": 1,
                             "mincard": len(c) == smallest,
                             "unique": len(c) == smallest and winners == 1})
            for c in hits]


# ---------------------------------------------------------------------------
# the completion search
# ---------------------------------------------------------------------------

def necessity_counterexample(shape, h, edges, spend=None):
    """None when the set is necessary, else a completion that avoids it.

    A counterexample is a pair (member graph, psi): the member contains
    every host edge and every psi-image of one, and none of the
    psi-images of the candidate pairs.  Here psi is the first
    automorphism of H, in ascending order, with the least banned mask
    psi(B), and the member is the completion found from E(H) below the
    complement of psi(B): the first member of a depth-first search over
    the masks, children in ascending order of their added pair, that
    recognizes each mask once.  The work is charged to ``spend``, the
    request's ``_Spend``.
    """
    check_shape(shape)
    _check_pairs(h, edges)
    spend = spend or _Spend()
    spend.charge(h.n * (h.n - 1) // 2)
    ne, idx = _non_edges(h)
    banned = psi = None
    for phi in iter_embeddings(h, h, INDUCED):
        spend.charge(1)
        mask = sum(1 << idx[phi[u], phi[v]] for u, v in edges)
        if banned is None or mask < banned:
            banned, psi = mask, phi
    seen, stack = set(), [iter((0,))]
    while stack:
        mask = next(stack[-1], None)
        if mask is None:
            stack.pop()
            continue
        if mask in seen:
            continue
        seen.add(mask)
        spend.charge(1)
        g = h.with_edges(_pairs(ne, mask))
        w = recognize(shape, g)
        if w is None:
            return g, psi
        # the children, ascending, each mask built only when it is reached
        bits = _branch_bits(h.n, idx, mask, banned, w)
        stack.append(map(mask.__or__, map((1).__lshift__, bits)))
    return None


def counterexample_checks(shape, h, edges, completion, psi):
    """Re-verify a non-necessity counterexample from scratch."""
    if completion.n != h.n or sorted(psi) != list(range(h.n)):
        return False
    if recognize(shape, completion) is not None:
        return False
    for u, v in h.edges():
        if not completion.has_edge(u, v) or not completion.has_edge(psi[u], psi[v]):
            return False
    return all(not completion.has_edge(psi[u], psi[v]) for u, v in edges)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def forced_edges(shape, h):
    """Host non-edges whose single addition already yields a member.

    Each forced pair lies in every necessary set: the one-edge completion
    together with the identity placement uses exactly that pair.
    """
    check_shape(shape)
    return [e for e in h.non_edges()
            if recognize(shape, h.with_edges([e])) is None]


def verify_claims(shape, h, ns):
    """Check each claimed flag of a stored set; unclaimed flags are skipped.

    Returns (ok, verdicts, evidence): verdicts maps each claimed flag to
    a bool, evidence maps failed flags to a printable witness, one of
    ("completion", graph, psi), ("redundant", pair), or
    ("smaller", pairs).  ``necessary`` and ``submin`` are decided by the
    completion search, ``mincard`` and ``unique`` by the minimal
    necessary sets.  The sweep and every search share one spend, and a
    claim set that needs more than ``WORK_BUDGET`` units raises
    CapabilityError.
    """
    _check_pairs(h, ns.edges)
    claimed = ns.claimed()
    b = ns.edges
    verdicts, evidence, spend = {}, {}, _Spend()

    @cache
    def cex(pairs):
        return necessity_counterexample(shape, h, pairs, spend)

    if "mincard" in claimed or "unique" in claimed:
        mins = _minimal_hits(shape, h, spend)
        same = [s for s in mins if len(s) == len(mins[0])]
    for flag in claimed:
        if flag == "necessary":
            got = cex(b)
            verdicts[flag] = got is None
            if got is not None:
                evidence[flag] = ("completion",) + got
        elif flag == "submin":
            culprit = None
            if cex(b) is None:
                culprit = next((p for i, p in enumerate(b)
                                if cex(b[:i] + b[i + 1:]) is None), None)
            verdicts[flag] = cex(b) is None and culprit is None
            if culprit is not None:
                evidence[flag] = ("redundant", culprit)
        elif flag == "mincard":
            verdicts[flag] = b in same
            if same and len(same[0]) < len(b):
                evidence[flag] = ("smaller", same[0])
        else:
            verdicts[flag] = same == [b]
            others = [s for s in same if s != b]
            if others:
                evidence[flag] = ("smaller", others[0])
    return all(verdicts.values()), verdicts, evidence


# ---------------------------------------------------------------------------
# curated sets for the catalog families (the data lives in ``catalog``)
# ---------------------------------------------------------------------------

def family_necessary_set(kind, param=None):
    """The curated necessary set of a catalog family as (shape, host,
    NecessarySet); the data and its flags are ``catalog_necessary_set``'s."""
    shape, host, (pairs, flags) = catalog.catalog_necessary_set(kind, param)
    return shape, host, NecessarySet(pairs, flags)
