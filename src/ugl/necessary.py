"""Necessary sets of non-edges for completing a host graph to a shape member.

Fix a shape and a host graph H, typically one of the minimal
obstructions.  Completing H means choosing a member G of the shape on
the same vertex set together with an edge-preserving bijection of H
into G; the completion "uses" the host non-edges whose images become
edges of G.  A set B of host non-edges is *necessary* when every
completion uses at least one element of B: no matter how the host is
re-placed and extended into a member, some pair from B gets glued.

Two independent decision routes are implemented.

* Enumeration: list every member supergraph of H on V(H), record the
  host non-edges it adds, and test that B meets every such added set.
  The used set of an edge-preserving bijection psi of H into a member
  g2 is the added set of psi^-1(g2).  That graph is a member (it is
  isomorphic to g2) and contains H (psi preserves edges), so the
  identity placements already give every used set.  Exponential in the
  number of host non-edges, so capped, but it also yields the full
  constraint family, hence all subset-minimal necessary sets by a
  hitting-set sweep.
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

from itertools import combinations

from .errors import CapabilityError, InputError
from .graphs import automorphisms, edges_mask, graph_from_mask, pair_index
from .shapes import (ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY, INTERVAL,
                     IRREDUCIBLE_CYCLE, TREE, check_shape, family_graph,
                     recognize)

SEARCH_VERTEX_CAP = 8
ENUMERATION_NON_EDGE_CAP = 12
MINIMAL_SET_CAP = 9

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
# enumeration route
# ---------------------------------------------------------------------------

def necessity_constraints(shape, h):
    """The family of used sets over all completions of the host.

    It is the family of added sets E(G) minus E(H) of the member
    supergraphs G of H on V(H).  The used set of an edge-preserving
    bijection psi of H into a member g2 is the added set of psi^-1(g2).
    That graph is a member (it is isomorphic to g2) and contains H (psi
    preserves edges), so no other placement contributes a new set.
    Returned sorted by (size, pairs).
    """
    check_shape(shape)
    ne = h.non_edges()
    if len(ne) > ENUMERATION_NON_EDGE_CAP:
        raise CapabilityError(
            "constraint enumeration bounded to %d host non-edges"
            % ENUMERATION_NON_EDGE_CAP)
    out = []
    for mask in range(1 << len(ne)):
        added = [ne[i] for i in range(len(ne)) if mask >> i & 1]
        if recognize(shape, h.with_edges(added)) is None:
            out.append(frozenset(added))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def minimize_family(family):
    """Inclusion-minimal members of a family of sets, sorted."""
    fam = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(s)))
    keep = []
    for s in fam:
        if not any(t < s for t in keep):
            keep.append(s)
    return keep


def necessary_by_enumeration(shape, h, edges):
    """Necessity decided against the explicit constraint family."""
    _check_pairs(h, edges)
    b = set(edges)
    return all(b & s for s in necessity_constraints(shape, h))


def _minimal_hits(shape, h):
    ne = h.non_edges()
    if len(ne) > MINIMAL_SET_CAP:
        raise CapabilityError(
            "minimal necessary set search bounded to %d host non-edges"
            % MINIMAL_SET_CAP)
    fam = minimize_family(necessity_constraints(shape, h))
    if any(not s for s in fam):
        return []
    hits = []
    for size in range(len(ne) + 1):
        for combo in combinations(ne, size):
            s = set(combo)
            if any(set(prev) <= s for prev in hits):
                continue
            if all(s & f for f in fam):
                hits.append(combo)
    return hits


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
    cands = set()
    if witness.kind == FORBIDDEN_FAMILY:
        m = witness.vertices
        for u, v in _TREE_PATTERN_NON_EDGES[witness.family[0]]:
            a, b = m[u], m[v]
            cands.add(idx[(a, b) if a < b else (b, a)])
    elif witness.kind == IRREDUCIBLE_CYCLE:
        vs = witness.vertices
        k = len(vs)
        for i, j in combinations(range(k), 2):
            if j - i == 1 or (i == 0 and j == k - 1):
                continue
            a, b = vs[i], vs[j]
            cands.add(idx[(a, b) if a < b else (b, a)])
    else:
        for x in witness.vertices:
            for y in range(n):
                if y == x:
                    continue
                cands.add(idx[(x, y) if x < y else (y, x)])
    free = ~(mask | banned)
    return sorted(p for p in cands if free >> p & 1)


def _recognize_mask(shape, n, mask, memo):
    got = memo.get(mask, False)
    if got is False:
        got = recognize(shape, graph_from_mask(n, mask))
        memo[mask] = got
    return got


def _complete_to_member(shape, n, idx, floor, banned, memo):
    """Edge mask of a shape member g with floor <= g <= ~banned, or None."""
    dead = set()

    def search(mask):
        if mask in dead:
            return None
        w = _recognize_mask(shape, n, mask, memo)
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
    for phi in automorphisms(h):
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
    """The full flag vector for a candidate set; None marks an unsettled flag.

    Exact when the host has at most 9 non-edges.  Beyond that,
    ``necessary`` and ``submin`` are still decided by search, and
    ``mincard``/``unique`` fall back on forced-edge bounds: every
    necessary set contains every forced edge, so the forced set F gives
    a cardinality floor of |F| when F is necessary and |F| + 1
    otherwise.  Flags the bounds cannot settle come back as None.
    """
    _check_pairs(h, edges)
    b = tuple(sorted(edges))
    exact = len(h.non_edges()) <= MINIMAL_SET_CAP
    necessary = is_necessary(shape, h, b)
    if exact:
        mins = _minimal_hits(shape, h)
        submin = b in mins
        smallest = min((len(s) for s in mins), default=0)
        mincard = necessary and len(b) == smallest
        unique = mincard and sum(len(s) == smallest for s in mins) == 1
        return {"necessary": necessary, "submin": submin,
                "mincard": mincard, "unique": unique}
    if not necessary:
        return {"necessary": False, "submin": False,
                "mincard": False, "unique": False}
    submin = all(
        not is_necessary(shape, h, b[:i] + b[i + 1:])
        for i in range(len(b)))
    forced = tuple(forced_edges(shape, h))
    if b == forced:
        return {"necessary": True, "submin": submin,
                "mincard": True, "unique": True}
    if is_necessary(shape, h, forced):
        return {"necessary": True, "submin": submin,
                "mincard": False, "unique": False}
    if len(b) == len(forced) + 1:
        return {"necessary": True, "submin": submin,
                "mincard": True, "unique": None}
    return {"necessary": True, "submin": submin,
            "mincard": None, "unique": None}


def verify_claims(shape, h, ns):
    """Check each claimed flag of a stored set; unclaimed flags are skipped.

    Returns (ok, verdicts, evidence): verdicts maps each claimed flag to
    a bool, evidence maps failed flags to a printable witness, one of
    ("completion", graph, psi), ("redundant", pair), or
    ("smaller", pairs).  Raises CapabilityError when a claimed flag
    cannot be settled within bounds.
    """
    _check_pairs(h, ns.edges)
    claimed = ns.claimed()
    b = ns.edges
    verdicts = {}
    evidence = {}
    cex_memo = {}

    def cex(pairs):
        key = frozenset(pairs)
        if key not in cex_memo:
            cex_memo[key] = necessity_counterexample(shape, h, pairs)
        return cex_memo[key]

    exact = len(h.non_edges()) <= MINIMAL_SET_CAP
    if exact and ("mincard" in claimed or "unique" in claimed):
        mins = _minimal_hits(shape, h)
        smallest = min((len(s) for s in mins), default=0)
    for flag in claimed:
        if flag == "necessary":
            got = cex(b)
            verdicts[flag] = got is None
            if got is not None:
                evidence[flag] = ("completion",) + got
        elif flag == "submin":
            ok = cex(b) is None
            culprit = None
            if ok:
                for i in range(len(b)):
                    if cex(b[:i] + b[i + 1:]) is None:
                        culprit = b[i]
                        break
            verdicts[flag] = ok and culprit is None
            if culprit is not None:
                evidence[flag] = ("redundant", culprit)
        elif flag == "mincard":
            if exact:
                ok = cex(b) is None and len(b) == smallest
                verdicts[flag] = ok
                if not ok and mins and smallest < len(b):
                    evidence[flag] = ("smaller", mins[0])
            else:
                verdicts[flag] = _mincard_by_forced(shape, h, b, cex, evidence)
        else:
            if exact:
                same = [s for s in mins if len(s) == smallest]
                ok = cex(b) is None and len(b) == smallest and same == [b]
                verdicts[flag] = ok
                if not ok:
                    others = [s for s in same if s != b]
                    if others:
                        evidence[flag] = ("smaller", others[0])
            else:
                forced = tuple(forced_edges(shape, h))
                if b == forced:
                    verdicts[flag] = cex(b) is None
                else:
                    raise CapabilityError(
                        "cannot settle uniqueness for this host")
    ok = all(verdicts.values())
    return ok, verdicts, evidence


def _mincard_by_forced(shape, h, b, cex, evidence):
    if cex(b) is not None:
        return False
    forced = tuple(forced_edges(shape, h))
    if b == forced:
        return True
    if cex(forced) is None:
        evidence["mincard"] = ("smaller", forced)
        return False
    if len(b) == len(forced) + 1:
        return True
    raise CapabilityError("cannot settle minimum cardinality for this host")


# ---------------------------------------------------------------------------
# curated sets for the catalog families
# ---------------------------------------------------------------------------

def family_necessary_set(kind, param=None):
    """The curated necessary set for a catalog family.

    Returns (shape, host, NecessarySet) with the flags the set is known
    to satisfy; flags left at 0 are simply not claimed.  The 4-cycle and
    4-path entries live in the tree shape, the rest in the interval
    shape.  Hosts with few enough non-edges carry exact flags; for the
    larger hosts the claims follow from forced-edge analysis, and the
    first spider family claims only subset-minimality.
    """
    host = family_graph(kind, param)
    all_flags = {"necessary": 1, "submin": 1, "mincard": 1, "unique": 1}
    if kind in ("C4", "L4"):
        return TREE, host, NecessarySet([(0, 2), (1, 3)], all_flags)
    if kind == "I":
        b = [(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (3, 5)]
        return INTERVAL, host, NecessarySet(b, {"necessary": 1, "submin": 1})
    if kind == "II":
        b = [(0, 6), (1, 3), (2, 4), (3, 5)]
        return INTERVAL, host, NecessarySet(
            b, {"necessary": 1, "submin": 1, "mincard": 1})
    if kind == "III":
        b = [(0, 2)] + [(1, j) for j in range(3, param)]
        return INTERVAL, host, NecessarySet(b, {"necessary": 1, "submin": 1})
    if kind == "IV":
        if param == 2:
            b = [(0, 4), (0, 5), (1, 2), (1, 3), (2, 5), (3, 4)]
            return INTERVAL, host, NecessarySet(b, all_flags)
        b = sorted([(4, param + 3), (1, 2), (1, 3)]
                   + [(0, 3 + i) for i in range(1, param + 1)])
        return INTERVAL, host, NecessarySet(
            b, {"necessary": 1, "submin": 1, "mincard": 1})
    if kind == "V":
        b = sorted([(1, 2), (0, 4)] + [(3, 4 + i) for i in range(1, param + 1)])
        return INTERVAL, host, NecessarySet(b, all_flags)
    raise InputError("unknown family kind %r" % (kind,))
