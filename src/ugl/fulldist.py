"""Full distributions, their level maps, and the property checks.

A *full distribution* maps every subset of the formula set to a set of
indices, shrinking as the subset grows.  Level n of a distribution sends
alpha to the size-n subsets whose value contains alpha, and a trace
extends to levels by collecting the subsets of g1(alpha) all of whose
pairs lie in g2(alpha).  Distributions built that way are exactly the
graph-like ones (determined by singletons and pairs).  Every object
here is exponential in the formula count, so it is bounded to
``FORMULA_CAP`` formulas.  No CLI request runs this module;
``distributions`` serves its names, executing it on first use.
"""

from itertools import combinations

from .distributions import FORMULA_CAP, _check_indices, _pair
from .errors import CapabilityError, InputError


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
