"""Covering families, traces, and graph-like distributions over finite index sets.

The data here lives over two finite sets: an index set I = {0..nI-1}
and a formula set B = {0..nB-1}.  A *covering family* is an upward
closed collection of nonempty subsets of I (quorum, principal, or an
explicit list of minimal members).  A *trace* assigns to each index a
graph on formula vertices: g1(alpha) is the vertex set, g2(alpha) the
edge set.  A *full distribution* maps every subset of B to a set of
indices, shrinking as the subset grows.

The two views are tied together by level maps: level n of a
distribution sends alpha to the size-n subsets whose value contains
alpha, and a trace extends to levels by collecting the subsets of
g1(alpha) all of whose pairs lie in g2(alpha).  Distributions built
that way are exactly the graph-like ones (determined by singletons and
pairs), and a trace is multiplicative precisely when every nonempty
per-index graph is complete.  The refinement search looks for a
sub-trace of per-index cliques that still covers every formula and
every pair with a family member; with quorum families this is a
genuine covering problem and can fail.

Traces serialize to a line format (``indices``, ``formulas``,
``family``, ``g1``, ``g2``, optional ``k1``/``k2``).  Structural
violations (an edge outside g1, an instance not dominating the trace)
are load errors; pair-adequacy is deliberately only reported, since a
stored trace may be meaningful before any adequacy repair.
"""

from itertools import combinations

from .errors import CapabilityError, ConsistencyError, InputError

# Graph and catalog code is imported in the functions that use it, so a
# library run on distributions alone compiles nothing else.

FORMULA_CAP = 12
# Trace headers above these are refused when read.  Near the index cap
# the fastest trace commands take about 30 s on an otherwise empty trace.
# At the formula cap every trace command answers (or exits 3) on the empty
# one-index trace in about 0.1 s, but the work grows with indices times
# formulas: 100 empty indices take 2.6 s in `trace-condition --sop2
# --shape tree` and 12 s in `trace-refine`.
TRACE_INDEX_CAP = 2900000
TRACE_FORMULA_CAP = 15000

QUORUM = "quorum"
PRINCIPAL = "principal"
EXPLICIT = "explicit"


def _check_indices(vals, bound, what):
    out = frozenset(vals)
    for v in out:
        if not isinstance(v, int) or not 0 <= v < bound:
            raise InputError("%s element %r out of range 0..%d" % (what, v, bound - 1))
    return out


class CoveringFamily:
    """Upward closed family of nonempty subsets of a finite index set."""

    __slots__ = ("index_count", "kind", "param")

    def __init__(self, index_count, kind, param):
        if index_count < 1:
            raise InputError("index set must be nonempty")
        if kind == QUORUM:
            if not isinstance(param, int) or not 1 <= param <= index_count:
                raise InputError("quorum threshold must lie in 1..%d" % index_count)
        elif kind == PRINCIPAL:
            param = _check_indices(param, index_count, "principal generator")
            if not param:
                raise InputError("principal generator must be nonempty")
        elif kind == EXPLICIT:
            members = [_check_indices(m, index_count, "explicit member")
                       for m in param]
            if not members:
                raise InputError("explicit family needs at least one member")
            for m in members:
                if not m:
                    raise InputError("explicit member must be nonempty")
            for a, b in combinations(members, 2):
                if a <= b or b <= a:
                    raise InputError(
                        "explicit members must be incomparable minimal sets")
            param = tuple(sorted(members, key=sorted))
        else:
            raise InputError("unknown family kind %r" % kind)
        object.__setattr__(self, "index_count", index_count)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)

    def __setattr__(self, name, value):
        raise AttributeError("CoveringFamily is immutable")

    @classmethod
    def quorum(cls, index_count, k):
        return cls(index_count, QUORUM, k)

    @classmethod
    def principal(cls, index_count, generator):
        return cls(index_count, PRINCIPAL, generator)

    @classmethod
    def explicit(cls, index_count, members):
        return cls(index_count, EXPLICIT, members)

    def __eq__(self, other):
        return (isinstance(other, CoveringFamily)
                and (self.index_count, self.kind, self.param)
                == (other.index_count, other.kind, other.param))

    def __hash__(self):
        return hash((self.index_count, self.kind, self.param))

    def __repr__(self):
        if self.kind == QUORUM:
            detail = "k=%d" % self.param
        elif self.kind == PRINCIPAL:
            detail = "J=%r" % sorted(self.param)
        else:
            detail = "members=%r" % [sorted(m) for m in self.param]
        return "CoveringFamily(%d, %s, %s)" % (self.index_count, self.kind, detail)

    def is_member(self, s):
        s = _check_indices(s, self.index_count, "candidate set")
        if self.kind == QUORUM:
            return len(s) >= self.param
        if self.kind == PRINCIPAL:
            return self.param <= s
        return any(m <= s for m in self.param)

    def minimal_members(self):
        """The minimal members, sorted; quorum families enumerate them."""
        if self.kind == QUORUM:
            return [frozenset(c) for c in
                    combinations(range(self.index_count), self.param)]
        if self.kind == PRINCIPAL:
            return [self.param]
        return sorted(self.param, key=sorted)

    def restrict(self, ess):
        """The family {A ∩ ess : A a member} renumbered along sorted(ess).

        Only meaningful when ess is itself a member; the result must
        again exclude the empty set, otherwise the restriction is not a
        covering family and a consistency error is raised.
        """
        ess = _check_indices(ess, self.index_count, "restriction range")
        if not self.is_member(ess):
            raise ConsistencyError("restriction range is not a family member")
        order = sorted(ess)
        renum = {a: i for i, a in enumerate(order)}
        outside = self.index_count - len(order)
        if self.kind == QUORUM:
            k = self.param - outside
            if k <= 0:
                raise ConsistencyError(
                    "restriction admits the empty set (quorum met outside)")
            return CoveringFamily.quorum(len(order), k)
        if self.kind == PRINCIPAL:
            return CoveringFamily.principal(
                len(order), [renum[a] for a in self.param])
        cut = {frozenset(renum[a] for a in m & ess) for m in self.param}
        if frozenset() in cut:
            raise ConsistencyError(
                "restriction admits the empty set (member disjoint from range)")
        keep = [m for m in cut if not any(o < m for o in cut)]
        return CoveringFamily.explicit(len(order), keep)


class LosInstance:
    """Per-index dominating graphs on formula vertices."""

    __slots__ = ("n_indices", "n_formulas", "k1", "k2")

    def __init__(self, n_formulas, k1, k2):
        k1 = tuple(_check_indices(s, n_formulas, "k1 entry") for s in k1)
        k2 = tuple(frozenset(_norm_pairs(ps, n_formulas, "k2")) for ps in k2)
        if len(k1) != len(k2):
            raise InputError("k1 and k2 must cover the same indices")
        for alpha, pairs in enumerate(k2):
            for u, v in pairs:
                if u not in k1[alpha] or v not in k1[alpha]:
                    raise InputError(
                        "k2 pair (%d, %d) outside k1 at index %d" % (u, v, alpha))
        object.__setattr__(self, "n_indices", len(k1))
        object.__setattr__(self, "n_formulas", n_formulas)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    def __setattr__(self, name, value):
        raise AttributeError("LosInstance is immutable")

    def __eq__(self, other):
        return (isinstance(other, LosInstance)
                and (self.n_formulas, self.k1, self.k2)
                == (other.n_formulas, other.k1, other.k2))

    def __repr__(self):
        return "LosInstance(%d formulas, %d indices)" % (
            self.n_formulas, self.n_indices)

    def is_clique(self, alpha, delta):
        """Whether delta induces a clique (vertices present, pairs edges)."""
        d = frozenset(delta)
        if not d <= self.k1[alpha]:
            return False
        return all(_pair(u, v) in self.k2[alpha] for u, v in combinations(sorted(d), 2))


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _norm_pairs(pairs, bound, what):
    out = set()
    for p in pairs:
        u, v = p
        if u == v:
            raise InputError("%s pair (%r, %r) is degenerate" % (what, u, v))
        if not (0 <= u < bound and 0 <= v < bound):
            raise InputError("%s pair (%r, %r) out of range" % (what, u, v))
        out.add(_pair(u, v))
    return out


class Trace:
    """Per-index formula graphs under a covering family.

    Structure is enforced here: edges lie inside their vertex sets, and
    a present instance dominates the trace pointwise.  Pair-adequacy
    against the family is a reported property, not a constructor check.
    """

    __slots__ = ("family", "n_formulas", "g1", "g2", "instance")

    def __init__(self, family, n_formulas, g1, g2, instance=None):
        if not isinstance(family, CoveringFamily):
            raise InputError("family must be a CoveringFamily")
        n = family.index_count
        g1 = tuple(_check_indices(s, n_formulas, "g1 entry") for s in g1)
        g2 = tuple(frozenset(_norm_pairs(ps, n_formulas, "g2")) for ps in g2)
        if len(g1) != n or len(g2) != n:
            raise InputError("g1/g2 must assign every index exactly once")
        for alpha in range(n):
            for u, v in g2[alpha]:
                if u not in g1[alpha] or v not in g1[alpha]:
                    raise InputError(
                        "g2 pair (%d, %d) outside g1 at index %d" % (u, v, alpha))
        if instance is not None:
            if not isinstance(instance, LosInstance):
                raise InputError("instance must be a LosInstance")
            if instance.n_indices != n or instance.n_formulas != n_formulas:
                raise InputError("instance dimensions do not match the trace")
            for alpha in range(n):
                if not g1[alpha] <= instance.k1[alpha]:
                    raise InputError(
                        "g1 exceeds the instance k1 at index %d" % alpha)
                if not g2[alpha] <= instance.k2[alpha]:
                    raise InputError(
                        "g2 exceeds the instance k2 at index %d" % alpha)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n_formulas", n_formulas)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "instance", instance)

    def __setattr__(self, name, value):
        raise AttributeError("Trace is immutable")

    @property
    def n_indices(self):
        return self.family.index_count

    def __eq__(self, other):
        return (isinstance(other, Trace)
                and (self.family, self.n_formulas, self.g1, self.g2,
                     self.instance)
                == (other.family, other.n_formulas, other.g1, other.g2,
                    other.instance))

    def __repr__(self):
        return "Trace(%d formulas, %d indices, %s)" % (
            self.n_formulas, self.n_indices, self.family.kind)


def singleton_support(t, beta):
    """Indices whose vertex set contains the formula."""
    return frozenset(a for a in range(t.n_indices) if beta in t.g1[a])


def pair_support(t, pair):
    """Indices whose edge set contains the pair."""
    p = _pair(*pair)
    return frozenset(a for a in range(t.n_indices) if p in t.g2[a])


def adequacy_report(t):
    """Formulas and pairs whose supports miss the family.

    Returns (bad_formulas, bad_pairs), each sorted; both empty iff the
    trace is pair-adequate.
    """
    bad_b = [b for b in range(t.n_formulas)
             if not t.family.is_member(singleton_support(t, b))]
    bad_p = [p for p in combinations(range(t.n_formulas), 2)
             if not t.family.is_member(pair_support(t, p))]
    return bad_b, bad_p


def is_pair_adequate(t):
    bad_b, bad_p = adequacy_report(t)
    return not bad_b and not bad_p


# ---------------------------------------------------------------------------
# full distributions and level maps
# ---------------------------------------------------------------------------

def all_subsets(n):
    """Every subset of range(n) as frozensets, by (size, elements)."""
    out = []
    for size in range(n + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


class FullDistribution:
    """A value in 2^I for every subset of the formula set."""

    __slots__ = ("n_formulas", "n_indices", "map")

    def __init__(self, n_formulas, n_indices, mapping):
        if n_formulas > FORMULA_CAP:
            raise CapabilityError(
                "full distributions bounded to %d formulas" % FORMULA_CAP)
        mapping = {frozenset(k): _check_indices(v, n_indices, "value")
                   for k, v in mapping.items()}
        want = set(all_subsets(n_formulas))
        if set(mapping) != want:
            raise InputError("distribution must assign every subset of the "
                             "formula set exactly once")
        for k in mapping:
            _check_indices(k, n_formulas, "formula set")
        object.__setattr__(self, "n_formulas", n_formulas)
        object.__setattr__(self, "n_indices", n_indices)
        object.__setattr__(self, "map", mapping)

    def __setattr__(self, name, value):
        raise AttributeError("FullDistribution is immutable")

    def at(self, delta):
        return self.map[frozenset(delta)]

    def __eq__(self, other):
        return (isinstance(other, FullDistribution)
                and (self.n_formulas, self.n_indices, self.map)
                == (other.n_formulas, other.n_indices, other.map))

    def __repr__(self):
        return "FullDistribution(%d formulas, %d indices)" % (
            self.n_formulas, self.n_indices)


def conjugate(f):
    """Level maps of a full distribution.

    Level n sends each index to the size-n formula sets whose value
    contains it; levels run 0..n_formulas.
    """
    levels = []
    for n in range(f.n_formulas + 1):
        deltas = [d for d in all_subsets(f.n_formulas) if len(d) == n]
        levels.append(tuple(
            frozenset(d for d in deltas if a in f.map[d])
            for a in range(f.n_indices)))
    return levels


def distribution_from_conjugate(levels):
    """Rebuild the full distribution determined by level maps.

    The levels must be downward hereditary: a set present at level n
    needs all its size-m subsets present at level m.  The first
    violation is reported as (index, set, m).  Levels are checked in
    increasing order, so a set is hereditary iff every one-smaller
    subset is present one level down; only a set failing that is
    scanned in full, for the first missing subset to report.
    """
    if not levels or not levels[0]:
        raise InputError("levels must cover at least one index")
    n_formulas = len(levels) - 1
    n_indices = len(levels[0])
    if any(len(lv) != n_indices for lv in levels):
        raise InputError("levels must agree on the index count")
    for n, lv in enumerate(levels):
        for a in range(n_indices):
            for d in lv[a]:
                if len(d) != n:
                    raise InputError(
                        "level %d holds a size-%d set at index %d" % (n, len(d), a))
                s = sorted(d)
                if all(frozenset(s[:i] + s[i + 1:]) in levels[n - 1][a]
                       for i in range(n)):
                    continue
                for m in range(n):
                    for sub in combinations(s, m):
                        if frozenset(sub) not in levels[m][a]:
                            raise InputError(
                                "levels not hereditary at index %d: %r present "
                                "but %r missing at level %d"
                                % (a, s, sorted(sub), m))
    mapping = {}
    for d in all_subsets(n_formulas):
        mapping[d] = frozenset(
            a for a in range(n_indices) if d in levels[len(d)][a])
    return FullDistribution(n_formulas, n_indices, mapping)


def graphlike_extension(t):
    """Level maps generated by a trace.

    Level n at alpha holds the size-n subsets of g1(alpha) all of whose
    pairs are g2(alpha) edges; levels 1 and 2 reproduce g1 and g2, and
    the empty set is present everywhere at level 0.
    """
    if t.n_formulas > FORMULA_CAP:
        raise CapabilityError(
            "extension bounded to %d formulas" % FORMULA_CAP)
    levels = []
    for n in range(t.n_formulas + 1):
        per = []
        for a in range(t.n_indices):
            good = []
            for c in combinations(sorted(t.g1[a]), n):
                if all(_pair(u, v) in t.g2[a] for u, v in combinations(c, 2)):
                    good.append(frozenset(c))
            per.append(frozenset(good))
        levels.append(tuple(per))
    return levels


def extension_distribution(t):
    """The full distribution a trace generates: all formulas of the set
    present and pairwise joined at the index."""
    return distribution_from_conjugate(graphlike_extension(t))


class PropertyReport:
    """Boolean verdicts from check_properties with first witnesses."""

    __slots__ = ("monotone", "graph_like", "multiplicative",
                 "pairwise_splitting", "refines_los", "witnesses")

    def __init__(self, monotone, graph_like, multiplicative,
                 pairwise_splitting, refines_los, witnesses):
        object.__setattr__(self, "monotone", monotone)
        object.__setattr__(self, "graph_like", graph_like)
        object.__setattr__(self, "multiplicative", multiplicative)
        object.__setattr__(self, "pairwise_splitting", pairwise_splitting)
        object.__setattr__(self, "refines_los", refines_los)
        object.__setattr__(self, "witnesses", witnesses)

    def __setattr__(self, name, value):
        raise AttributeError("PropertyReport is immutable")

    def __repr__(self):
        return ("PropertyReport(monotone=%r, graph_like=%r, multiplicative=%r,"
                " pairwise_splitting=%r, refines_los=%r)"
                % (self.monotone, self.graph_like, self.multiplicative,
                   self.pairwise_splitting, self.refines_los))


def _is_multiplicative(f):
    """Whether f(d | e) = f(d) & f(e) for all formula sets d and e.

    That holds iff f(d) is the meet of f(∅) and the f({x}), x in d, for
    every d.  Then f(d | e) is the meet over d | e, which is f(d) & f(e).
    Conversely f(d) = f(d - {x}) & f({x}) for each x in d, and f({x}) =
    f({x} | ∅) lies inside f(∅).  One intersection per formula set, from
    the set without its least formula: O(2^n) in place of the 4^n pairs.
    """
    n = f.n_formulas
    value = [f.map[frozenset(b for b in range(n) if mask >> b & 1)]
             for mask in range(1 << n)]
    meet = [value[0]] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        meet[mask] = meet[mask ^ low] & value[low]
        if meet[mask] != value[mask]:
            return False
    return True


def check_properties(f, instance=None):
    """Property verdicts for a full distribution.

    monotone: growing the formula set shrinks the value.  graph_like:
    sets of size >= 2 are pinned down by their pairs.  multiplicative:
    values of unions are intersections of values.  pairwise_splitting:
    pair values are intersections of singleton values.  refines_los
    (only with an instance): every index in a value sees the formula
    set as a clique of its instance graph.  The first witness of each
    failure lands in the report's witnesses dict.
    """
    subs = all_subsets(f.n_formulas)
    wit = {}
    monotone = True
    for d in subs:
        for x in range(f.n_formulas):
            if x in d:
                continue
            if not f.map[d | {x}] <= f.map[d]:
                monotone = False
                wit["monotone"] = (d, d | {x})
                break
        if not monotone:
            break
    graph_like = True
    for d in subs:
        if len(d) < 2:
            continue
        meet = None
        for p in combinations(sorted(d), 2):
            v = f.map[frozenset(p)]
            meet = v if meet is None else meet & v
        if f.map[d] != meet:
            graph_like = False
            wit["graph_like"] = d
            break
    multiplicative = _is_multiplicative(f)
    if not multiplicative:
        # the least set where the meet test fails gives a witness with
        # |d| <= 1, so this scans at most n + 1 values of d
        wit["multiplicative"] = next(
            (d, e) for d in subs for e in subs
            if f.map[d | e] != f.map[d] & f.map[e])
    pairwise_splitting = True
    for u, v in combinations(range(f.n_formulas), 2):
        if (f.map[frozenset((u, v))]
                != f.map[frozenset((u,))] & f.map[frozenset((v,))]):
            pairwise_splitting = False
            wit["pairwise_splitting"] = (u, v)
            break
    refines = None
    if instance is not None:
        refines = True
        for d in subs:
            for a in sorted(f.map[d]):
                if not instance.is_clique(a, d):
                    refines = False
                    wit["refines_los"] = (d, a)
                    break
            if refines is False:
                break
    return PropertyReport(monotone, graph_like, multiplicative,
                          pairwise_splitting, refines, wit)


# ---------------------------------------------------------------------------
# graph sequences
# ---------------------------------------------------------------------------

def graph_sequence(t):
    """Per-index (vertex set, Graph) pairs; edges are the g2 pairs."""
    from .graphs import Graph

    out = []
    for a in range(t.n_indices):
        out.append((tuple(sorted(t.g1[a])),
                    Graph(t.n_formulas, sorted(t.g2[a]))))
    return out


def from_graph_sequence(family, n_formulas, seq, instance=None,
                        require_adequate=True):
    """Rebuild a trace from its graph sequence.

    Validates the trace structure, the instance domination when one is
    given, and (unless disabled) pair-adequacy against the family; an
    inadequate sequence cannot be the sequence of a distribution.
    """
    g1 = []
    g2 = []
    for vertices, g in seq:
        if g.n != n_formulas:
            raise InputError("sequence graph on %d vertices, expected %d"
                             % (g.n, n_formulas))
        g1.append(frozenset(vertices))
        g2.append(frozenset(g.edges()))
    t = Trace(family, n_formulas, g1, g2, instance)
    if require_adequate:
        bad_b, bad_p = adequacy_report(t)
        if bad_b or bad_p:
            raise ConsistencyError(
                "sequence not pair-adequate: formulas %r, pairs %r"
                % (bad_b, bad_p))
    return t


def is_refinement(t1, t2):
    """Whether t1 refines t2: same frame, per-index subgraphs, and t1
    still pair-adequate."""
    if t1.family != t2.family or t1.n_formulas != t2.n_formulas:
        raise InputError("refinement needs matching family and formula set")
    for a in range(t1.n_indices):
        if not (t1.g1[a] <= t2.g1[a] and t1.g2[a] <= t2.g2[a]):
            return False
    return is_pair_adequate(t1)


def is_multiplicative_trace(t):
    """True iff every index with vertices carries a complete graph."""
    for a in range(t.n_indices):
        for u, v in combinations(sorted(t.g1[a]), 2):
            if (u, v) not in t.g2[a]:
                return False
    return True


def essential_range(t):
    """Indices with a nonempty vertex set; must be a family member."""
    ess = frozenset(a for a in range(t.n_indices) if t.g1[a])
    if not t.family.is_member(ess):
        raise ConsistencyError(
            "essential range %r is not a family member" % sorted(ess))
    return ess


def restrict(t):
    """The trace cut down to its essential range, indices renumbered."""
    ess = essential_range(t)
    order = sorted(ess)
    fam = t.family.restrict(ess)
    g1 = [t.g1[a] for a in order]
    g2 = [t.g2[a] for a in order]
    inst = t.instance
    if inst is not None:
        inst = LosInstance(t.n_formulas,
                           [inst.k1[a] for a in order],
                           [inst.k2[a] for a in order])
    return Trace(fam, t.n_formulas, g1, g2, inst)


# ---------------------------------------------------------------------------
# multiplicative refinement search
# ---------------------------------------------------------------------------

def _clique_choices(t, alpha):
    """Maximal cliques of the graph at alpha, as sorted vertex tuples.

    Restricting to maximal cliques loses nothing: coverage constraints
    are monotone in each K_alpha, so any witness assignment enlarges to
    one made of maximal cliques.
    """
    from .graphs import Graph, enumerate_maximal_cliques

    vs = sorted(t.g1[alpha])
    pos = {v: i for i, v in enumerate(vs)}
    sub = Graph(len(vs), [(pos[u], pos[v]) for u, v in t.g2[alpha]])
    return sorted(tuple(vs[i] for i in c)
                  for c in enumerate_maximal_cliques(sub))


def find_multiplicative_refinement(t):
    """A per-index clique sub-trace covering all formulas and pairs, or None.

    Backtracks over maximal-clique choices in index order, cliques in
    ascending order, so the first solution is the lexicographically
    least; after each choice every formula and pair is checked for a
    still-reachable family member (known support plus all undecided
    indices).  Only the pairs of some g2 are listed: any other pair lies
    in no clique, so its support stays empty and one check of the
    undecided indices alone stands for all of them.  The search keeps
    its own stack, so any number of indices fits.  None means the
    exhaustive search proved no assignment covers everything.
    """
    n = t.n_indices
    nb = t.n_formulas
    choices = [_clique_choices(t, a) for a in range(n)]
    formulas = list(range(nb))
    pairs = sorted(set().union(*t.g2))
    uncovered = len(pairs) < nb * (nb - 1) // 2
    fam = t.family
    assigned = []

    def feasible():
        rest = frozenset(range(len(assigned), n))
        if uncovered and not fam.is_member(rest):
            return False
        for b in formulas:
            support = frozenset(a for a, k in enumerate(assigned) if b in k)
            if not fam.is_member(support | rest):
                return False
        for p in pairs:
            support = frozenset(a for a, k in enumerate(assigned)
                                if p[0] in k and p[1] in k)
            if not fam.is_member(support | rest):
                return False
        return True

    # tried[a]: how many cliques of index a the search has tried
    tried = [0] * n
    while len(assigned) < n:
        a = len(assigned)
        if tried[a] == len(choices[a]):
            if not assigned:
                return None
            assigned.pop()
            continue
        assigned.append(set(choices[a][tried[a]]))
        tried[a] += 1
        if not feasible():
            assigned.pop()
        elif a + 1 < n:
            tried[a + 1] = 0
    g1 = [frozenset(k) for k in assigned]
    g2 = [frozenset(_pair(u, v) for u, v in combinations(sorted(k), 2))
          for k in assigned]
    return Trace(t.family, nb, g1, g2, t.instance)


# ---------------------------------------------------------------------------
# distribution-level conditions
# ---------------------------------------------------------------------------

def _index_graphs(source):
    """One graph on the formulas per index: a pair is an edge at alpha
    when alpha lies in its g2 support (trace) or its value (full
    distribution)."""
    if isinstance(source, FullDistribution):
        from .graphs import Graph

        edges = [[] for _ in range(source.n_indices)]
        for p in combinations(range(source.n_formulas), 2):
            for a in source.map[frozenset(p)]:
                edges[a].append(p)
        return [Graph(source.n_formulas, e) for e in edges]
    return [g for _, g in graph_sequence(source)]


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
    from .catalog import least_placement

    return least_placement("L4", None, _index_graphs(source))


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
    from .catalog import (INTERVAL, check_shape, family_str, least_placement,
                          shape_families)

    check_shape(shape)
    if shape == INTERVAL and t.n_formulas > FORMULA_CAP:
        raise CapabilityError(
            "trace conditions bounded to %d formulas" % FORMULA_CAP)
    graphs = _index_graphs(t)
    for kind, param in shape_families(shape, t.n_formulas):
        found = least_placement(kind, param, graphs)
        if found is not None:
            return (family_str(kind, param),) + found
    return None


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def format_trace(t):
    lines = ["indices %d" % t.n_indices, "formulas %d" % t.n_formulas]
    fam = t.family
    if fam.kind == QUORUM:
        lines.append("family quorum %d" % fam.param)
    elif fam.kind == PRINCIPAL:
        lines.append("family principal " + " ".join(str(a) for a in sorted(fam.param)))
    else:
        lines.append("family explicit")
        for m in fam.minimal_members():
            lines.append("member " + " ".join(str(a) for a in sorted(m)))
    for name, data in (("g1", t.g1), ("g2", t.g2)):
        for a in range(t.n_indices):
            lines.append(_format_row(name, a, data[a]))
    if t.instance is not None:
        for name, data in (("k1", t.instance.k1), ("k2", t.instance.k2)):
            for a in range(t.n_indices):
                lines.append(_format_row(name, a, data[a]))
    return "\n".join(lines) + "\n"


def _format_row(name, alpha, entry):
    if name in ("g1", "k1"):
        toks = [str(b) for b in sorted(entry)]
    else:
        toks = ["%d-%d" % p for p in sorted(entry)]
    return "%s %d :%s" % (name, alpha, (" " + " ".join(toks)) if toks else "")


def parse_trace(text):
    """Parse the trace line format; structural violations are errors.

    Headers above ``TRACE_INDEX_CAP`` or ``TRACE_FORMULA_CAP`` are
    capability errors, raised before anything is allocated.
    """
    n_indices = None
    n_formulas = None
    fam_decl = None
    members = []
    rows = {"g1": {}, "g2": {}, "k1": {}, "k2": {}}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0]
        if head == "indices":
            if n_indices is not None or len(parts) != 2:
                raise InputError("malformed indices line %r" % line)
            n_indices = _parse_int(parts[1], line)
            if n_indices > TRACE_INDEX_CAP:
                raise CapabilityError(
                    "traces bounded to %d indices" % TRACE_INDEX_CAP)
        elif head == "formulas":
            if n_formulas is not None or len(parts) != 2:
                raise InputError("malformed formulas line %r" % line)
            n_formulas = _parse_int(parts[1], line)
            if n_formulas > TRACE_FORMULA_CAP:
                raise CapabilityError(
                    "traces bounded to %d formulas" % TRACE_FORMULA_CAP)
        elif head == "family":
            if fam_decl is not None or len(parts) < 2:
                raise InputError("malformed family line %r" % line)
            fam_decl = parts[1:]
        elif head == "member":
            members.append([_parse_int(tok, line) for tok in parts[1:]])
        elif head in rows:
            if len(parts) < 3 or parts[2] != ":":
                raise InputError("malformed %s line %r" % (head, line))
            alpha = _parse_int(parts[1], line)
            if alpha in rows[head]:
                raise InputError("duplicate %s line for index %d" % (head, alpha))
            rows[head][alpha] = parts[3:]
        else:
            raise InputError("unknown directive %r in trace" % head)
    if n_indices is None or n_formulas is None or fam_decl is None:
        raise InputError("trace needs indices, formulas, and family lines")
    family = _build_family(n_indices, fam_decl, members)
    g1 = _collect_rows(rows["g1"], n_indices, False)
    g2 = _collect_rows(rows["g2"], n_indices, True)
    instance = None
    if rows["k1"] or rows["k2"]:
        k1 = _collect_rows(rows["k1"], n_indices, False)
        k2 = _collect_rows(rows["k2"], n_indices, True)
        instance = LosInstance(n_formulas, k1, k2)
    return Trace(family, n_formulas, g1, g2, instance)


def _parse_int(tok, line):
    try:
        return int(tok)
    except ValueError:
        raise InputError("malformed number %r in %r" % (tok, line))


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
    for alpha in got:
        if not 0 <= alpha < n_indices:
            raise InputError("row index %d out of range" % alpha)
    out = []
    for alpha in range(n_indices):
        toks = got.get(alpha, [])
        if pairs:
            entry = []
            for tok in toks:
                a, sep, b = tok.partition("-")
                if not sep:
                    raise InputError("malformed pair token %r" % tok)
                entry.append((_parse_int(a, tok), _parse_int(b, tok)))
            out.append(entry)
        else:
            out.append([_parse_int(tok, tok) for tok in toks])
    return out
