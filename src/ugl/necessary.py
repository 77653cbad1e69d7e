"""Necessary sets of non-edges for completing a host graph to a shape member.

Fix a shape and a host graph H, typically one of the minimal
obstructions.  Completing H means choosing a member G of the shape on
the same vertex set together with an edge-preserving bijection of H
into G; the completion "uses" the host non-edges whose images become
edges of G.  A set B of host non-edges is *necessary* when every
completion uses at least one element of B: no matter how the host is
re-placed and extended into a member, some pair from B gets glued.

Two independent decision routes are implemented.

* Enumeration: list the minimal member supergraphs of H on V(H),
  record the host non-edges each adds, and test that B meets every such
  added set.  The used set of an edge-preserving bijection psi of H
  into a member g2 is the added set of psi^-1(g2).  That graph is a
  member (it is isomorphic to g2) and contains H (psi preserves edges),
  so the identity placements already give every used set.  The sweep
  branches on the witness pairs of the search route below, and the
  subset-minimal necessary sets are the minimal hitting sets of what it
  finds, both within one work budget (``WORK_BUDGET``).
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
  leaves the witness intact, so the branching is complete.  Recognition
  is memoized per edge mask.

The flag vocabulary for a candidate set: ``necessary``, ``submin`` (no
proper subset is necessary), ``mincard`` (no smaller necessary set
exists), ``unique`` (the only necessary set of minimum size).  In a
stored set file a flag value 1 is a claim that must verify; 0 makes no
claim and is skipped by verification.
"""

from .catalog import catalog_necessary_set, check_shape
from .errors import CapabilityError, InputError
from .graphs import INDUCED, Graph, iter_embeddings
from .shapes import FORBIDDEN_FAMILY, IRREDUCIBLE_CYCLE, recognize

SEARCH_VERTEX_CAP = 8
# Work bound of the enumeration route: one unit per host non-edge, up
# front (so a large sparse host is refused before any mask exists), then
# one per distinct mask of the completion sweep, and for each node of the
# hitting-set branching one per completion it carries, which is what the
# node scans.  Every class with at most 7 vertices costs at most 6,698
# units and every catalog host at most 7,337 (III(7)).  In the tree
# shape, 8 disjoint 4-cycles answer and 9 or more are refused: k of them
# have 2^k minimal completions, all carried by the root.
WORK_BUDGET = 1 << 16

FLAG_NAMES = ("necessary", "submin", "mincard", "unique")


class NecessarySet:
    """A candidate set of host non-edges with claimed flags."""

    __slots__ = ("edges", "flags")

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
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "flags",
                           {k: bool(flags.get(k, False)) for k in FLAG_NAMES})

    def __setattr__(self, name, value):
        raise AttributeError("NecessarySet is immutable")

    def __eq__(self, other):
        return (isinstance(other, NecessarySet)
                and (self.edges, self.flags) == (other.edges, other.flags))

    def __repr__(self):
        on = [k for k in FLAG_NAMES if self.flags[k]]
        return "NecessarySet(%r, flags=%r)" % (list(self.edges), on)

    def claimed(self):
        return [k for k in FLAG_NAMES if self.flags[k]]


def format_necessary_set(ns):
    head = " ".join(["B"] + ["%d-%d" % e for e in ns.edges])
    tail = "flags " + " ".join("%s=%d" % (k, ns.flags[k]) for k in FLAG_NAMES)
    return head + "\n" + tail + "\n"


def parse_necessary_set(text):
    edges = None
    flags = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "B":
            if edges is not None:
                raise InputError("repeated B line")
            edges = []
            for tok in parts[1:]:
                a, sep, b = tok.partition("-")
                if not sep:
                    raise InputError("malformed pair token %r" % tok)
                try:
                    pair = (int(a), int(b))
                except ValueError:
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


def _check_pairs(h, edges):
    for u, v in edges:
        if not (0 <= u < v < h.n):
            raise InputError("pair (%d, %d) out of range" % (u, v))
        if h.has_edge(u, v):
            raise InputError("pair (%d, %d) is an edge of the host" % (u, v))


# ---------------------------------------------------------------------------
# pair masks: edge sets as bits over the pairs in column order
# ---------------------------------------------------------------------------

_PAIR_ORDER = {}


def pair_order(n):
    """Pairs (i, j), i < j, in column order: (0,1),(0,2),(1,2),(0,3),..."""
    if n not in _PAIR_ORDER:
        _PAIR_ORDER[n] = [(i, j) for j in range(n) for i in range(j)]
    return _PAIR_ORDER[n]


def pair_index(n):
    """Map pair -> position in pair_order(n)."""
    return {p: i for i, p in enumerate(pair_order(n))}


def edges_mask(g, index=None):
    """Edge set of g as a bitmask over pair_order positions."""
    index = index or pair_index(g.n)
    m = 0
    for e in g.edges():
        m |= 1 << index[e]
    return m


def graph_from_mask(n, mask):
    order = pair_order(n)
    edges = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        edges.append(order[i])
        mask &= mask - 1
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# enumeration route
# ---------------------------------------------------------------------------

def _charge(spent):
    """The work spent so far, refused once it exceeds ``WORK_BUDGET``."""
    if spent > WORK_BUDGET:
        raise CapabilityError(
            "necessary-set enumeration bounded to %d units of work"
            % WORK_BUDGET)
    return spent


def _minimal_completions(shape, h):
    """Added-pair masks of the inclusion-minimal member supergraphs of h,
    and the work spent on them.

    A level-order sweep by the number of added pairs, from E(H).  A
    member is recorded; a non-member branches on the ``_branch_bits``
    of its witness, because every member above it fills one of them
    (Cai 1996).  So each minimal completion S is reached through masks
    below S, which are non-members by minimality.  A mask above a
    recorded member is skipped, and in level order the recorded members
    are exactly the minimal ones.
    """
    check_shape(shape)
    n = h.n
    spent = _charge(n * (n - 1) // 2 - h.edge_count())
    idx = pair_index(n)
    base = edges_mask(h, idx)
    found, level = [], {base}
    while level:
        wider, members = set(), []
        for mask in level:
            if any(m & mask == m for m in found):
                continue
            w = recognize(shape, graph_from_mask(n, mask))
            if w is None:
                members.append(mask)
                continue
            wider.update(mask | 1 << p
                         for p in _branch_bits(n, idx, mask, 0, w))
            _charge(spent + len(wider))
        spent += len(wider)
        found += members
        level = wider
    return [m & ~base for m in found], spent


def _sorted_pairs(n, masks):
    """Pair masks as tuples of pairs, sorted by (size, pairs)."""
    return sorted((tuple(graph_from_mask(n, m).edges()) for m in masks),
                  key=lambda s: (len(s), s))


def necessity_constraints(shape, h):
    """The inclusion-minimal used sets over all completions of the host.

    They are the added sets E(G) minus E(H) of the minimal member
    supergraphs G of H on V(H).  The used set of an edge-preserving
    bijection psi of H into a member g2 is the added set of psi^-1(g2).
    That graph is a member (it is isomorphic to g2) and contains H (psi
    preserves edges), so every used set contains one of these.
    Returned as frozensets sorted by (size, pairs).
    """
    found, _ = _minimal_completions(shape, h)
    return [frozenset(s) for s in _sorted_pairs(h.n, found)]


def necessary_by_enumeration(shape, h, edges):
    """Necessity decided against the explicit constraint family."""
    _check_pairs(h, edges)
    b = set(edges)
    return all(b & s for s in necessity_constraints(shape, h))


def _minimal_hits(shape, h):
    """All minimal hitting sets of the minimal completions, sorted.

    Minimal-transversal branching (Murakami & Uno 2014) on the pairs of
    the first completion the current choice misses; the child taking the
    i-th such pair may not take a later one, so each choice is visited
    once.  A choice is pruned once one of its pairs has no private
    completion (one the choice meets only there), as no wider choice is
    then minimal.  Each choice carries the completions it misses or
    meets once; one met twice is neither missed nor private again.  Each
    node is charged the completions it carries against ``WORK_BUDGET``.
    """
    family, spent = _minimal_completions(shape, h)
    hits = []
    stack = [(0, -1, family)]
    while stack:
        chosen, allowed, live = stack.pop()
        spent = _charge(spent + len(live))
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
    return _sorted_pairs(h.n, hits)


def minimal_necessary_sets(shape, h):
    """All subset-minimal necessary sets, sorted by (size, pairs).

    Each comes back as a NecessarySet whose flags record whether it
    attains the minimum cardinality and whether it is the only set
    doing so.
    """
    hits = _minimal_hits(shape, h)
    if not hits:
        return []
    smallest = min(len(c) for c in hits)
    winners = sum(len(c) == smallest for c in hits)
    return [NecessarySet(c, {"necessary": 1, "submin": 1,
                             "mincard": len(c) == smallest,
                             "unique": len(c) == smallest and winners == 1})
            for c in hits]


# ---------------------------------------------------------------------------
# search route
# ---------------------------------------------------------------------------

_TREE_PATTERN_NON_EDGES = {"C4": ((0, 2), (1, 3)), "L4": ((0, 2), (0, 3), (1, 3))}


def _branch_bits(n, idx, mask, banned, witness):
    """Pair positions whose addition can destroy the witness.

    A chordless cycle survives any addition except a chord; an
    asteroidal triple survives any addition not incident to it (the
    triple stays independent and the connecting paths only gain edges);
    an induced 4-cycle or 4-path survives unless one of its missing
    pairs is filled.  So every member above ``mask`` avoiding ``banned``
    contains one of the returned pairs.
    """
    def pos(a, b):
        return idx[(a, b) if a < b else (b, a)]

    vs = witness.vertices
    if witness.kind == FORBIDDEN_FAMILY:
        pattern = _TREE_PATTERN_NON_EDGES[witness.family[0]]
        cands = {pos(vs[u], vs[v]) for u, v in pattern}
    elif witness.kind == IRREDUCIBLE_CYCLE:
        k = len(vs)
        cands = {pos(vs[i], vs[j])
                 for i in range(k) for j in range(i + 2, k - (i == 0))}
    else:
        cands = {pos(x, y) for x in vs for y in range(n) if y != x}
    free = ~(mask | banned)
    return sorted(p for p in cands if free >> p & 1)


def _complete_to_member(shape, n, idx, floor, banned, memo):
    """Edge mask of a shape member g with floor <= g <= ~banned, or None."""
    dead = set()

    def search(mask):
        if mask in dead:
            return None
        if mask not in memo:
            memo[mask] = recognize(shape, graph_from_mask(n, mask))
        w = memo[mask]
        if w is None:
            return mask
        for p in _branch_bits(n, idx, mask, banned, w):
            got = search(mask | (1 << p))
            if got is not None:
                return got
        dead.add(mask)
        return None

    return search(floor)


def necessity_counterexample(shape, h, edges):
    """None when the set is necessary, else a completion that avoids it.

    A counterexample is a pair (member graph, psi): the member contains
    every host edge and every psi-image of one, and none of the
    psi-images of the candidate pairs.  Here psi is the first
    automorphism of H, in ascending order, with the least banned mask
    psi(B), and the member is the completion found from E(H) below the
    complement of psi(B).
    """
    check_shape(shape)
    _check_pairs(h, edges)
    n = h.n
    if n > SEARCH_VERTEX_CAP:
        raise CapabilityError(
            "necessity search bounded to hosts with <= %d vertices"
            % SEARCH_VERTEX_CAP)
    idx = pair_index(n)
    banned = psi = None
    for phi in iter_embeddings(h, h, INDUCED, bijective=True):
        mask = 0
        for u, v in edges:
            a, b = phi[u], phi[v]
            mask |= 1 << idx[(a, b) if a < b else (b, a)]
        if banned is None or mask < banned:
            banned, psi = mask, phi
    got = _complete_to_member(shape, n, idx, edges_mask(h, idx), banned, {})
    if got is None:
        return None
    return graph_from_mask(n, got), psi


def is_necessary(shape, h, edges):
    return necessity_counterexample(shape, h, edges) is None


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


def compute_flags(shape, h, edges):
    """The full flag vector for a candidate set, read off the minimal sets.

    A set is necessary when it contains a minimal necessary set, and
    subset-minimal when it is one.
    """
    _check_pairs(h, edges)
    b = tuple(sorted(edges))
    mins = _minimal_hits(shape, h)
    smallest = min((len(s) for s in mins), default=0)
    mincard = b in mins and len(b) == smallest
    return {"necessary": any(set(s) <= set(b) for s in mins),
            "submin": b in mins, "mincard": mincard,
            "unique": mincard and sum(len(s) == smallest for s in mins) == 1}


def verify_claims(shape, h, ns):
    """Check each claimed flag of a stored set; unclaimed flags are skipped.

    Returns (ok, verdicts, evidence): verdicts maps each claimed flag to
    a bool, evidence maps failed flags to a printable witness, one of
    ("completion", graph, psi), ("redundant", pair), or
    ("smaller", pairs).  ``necessary`` and ``submin`` are decided by the
    completion search, ``mincard`` and ``unique`` by the minimal
    necessary sets.  Raises CapabilityError when a claimed flag needs
    more work than its route allows.
    """
    _check_pairs(h, ns.edges)
    claimed = ns.claimed()
    b = ns.edges
    verdicts, evidence, cex_memo = {}, {}, {}

    def cex(pairs):
        if pairs not in cex_memo:
            cex_memo[pairs] = necessity_counterexample(shape, h, pairs)
        return cex_memo[pairs]

    if "mincard" in claimed or "unique" in claimed:
        mins = _minimal_hits(shape, h)
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
    shape, host, (pairs, flags) = catalog_necessary_set(kind, param)
    return shape, host, NecessarySet(pairs, flags)
