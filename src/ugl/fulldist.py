"""Full distributions, their level maps, and the property checks.

A *full distribution* maps every subset of the formula set to a set of
indices, shrinking as the subset grows; it keeps one index bitmask per
formula bitmask (``masks``, 2^n ints).  Level n sends alpha to the
size-n subsets whose value contains alpha.  A trace extends to the
subsets of g1(alpha) all of whose pairs lie in g2(alpha), and the
distributions built that way are exactly the graph-like ones.  The
checks walk formula masks in ``all_subsets`` order, so each first
witness is the one a scan over frozensets finds; frozensets are built
only for witnesses, ``at``, ``map``, mappings and level maps.  All of
it is bounded to ``FORMULA_CAP`` formulas.  No CLI request runs this
module; ``distributions`` serves ``extension_distribution`` and
``check_properties`` to the bench, and no request runs the level maps.
"""

from itertools import combinations

from . import _Value, _freeze
from .covering import _bits, _checked_mask, _edges, _mask
from .distributions import FORMULA_CAP
from .errors import CapabilityError, InputError


def all_subsets(n):
    """Every subset of range(n) as frozensets, by (size, elements)."""
    return [frozenset(c) for size in range(n + 1)
            for c in combinations(range(n), size)]


def _by_size(n):
    """Every formula mask over n formulas, in ``all_subsets`` order."""
    return [sum(c) for size in range(n + 1)
            for c in combinations([1 << x for x in range(n)], size)]


def _set(mask):
    """The positions of the set bits of mask, as a frozenset."""
    return frozenset(_bits(mask))


def _pair_meets(masks):
    """Set each entry of three or more formulas to the meet of its pairs'
    entries, in place.  The pairs of d are those of d without its least
    formula, those of d without its second least, and those two."""
    for d in range(len(masks)):
        low = d & -d
        rest = d ^ low
        second = rest & -rest
        if rest != second:
            masks[d] = masks[rest] & masks[d ^ second] & masks[low | second]
    return masks


def _clique_masks(n_formulas, n_indices, vertices, rows):
    """Per formula mask, the indices where the set is a clique: its
    formulas lie in the vertex mask vertices[alpha] and its pairs are
    edges of the adjacency rows rows[alpha]."""
    masks = [0] * (1 << n_formulas)
    masks[0] = (1 << n_indices) - 1
    for a in range(n_indices):
        for x in _bits(vertices[a]):
            masks[1 << x] |= 1 << a
        for u, v in _edges(rows[a]):
            masks[1 << u | 1 << v] |= 1 << a
    return _pair_meets(masks)


class FullDistribution(_Value):
    """A value in 2^I for every subset of the formula set; entry d of
    ``masks`` is the index mask of the formula set with mask d."""

    __slots__ = ("n_formulas", "n_indices", "masks")

    def __init__(self, n_formulas, n_indices, mapping):
        if n_formulas > FORMULA_CAP:
            raise CapabilityError(
                "full distributions bounded to %d formulas" % FORMULA_CAP)
        mapping = {frozenset(k): _checked_mask(v, n_indices, "value")
                   for k, v in mapping.items()}
        if set(mapping) != set(all_subsets(n_formulas)):
            raise InputError("distribution must assign every subset of the "
                             "formula set exactly once")
        _freeze(self, n_formulas, n_indices, tuple(
            mapping[_set(d)] for d in range(1 << n_formulas)))

    def at(self, delta):
        return _set(self.masks[sum(1 << x for x in frozenset(delta))])

    @property
    def map(self):
        """Every formula set's value, as frozensets (built on each use)."""
        return {_set(d): _set(v) for d, v in enumerate(self.masks)}

    def __repr__(self):
        return "FullDistribution(%d formulas, %d indices)" % (
            self.n_formulas, self.n_indices)


def conjugate(f):
    """Level maps of a full distribution: level n sends each index to
    the size-n formula sets whose value contains it, n = 0..n_formulas."""
    levels = [[[] for _ in range(f.n_indices)]
              for _ in range(f.n_formulas + 1)]
    for d in _by_size(f.n_formulas):
        members = _set(d)
        for a in _bits(f.masks[d]):
            levels[len(members)][a].append(members)
    return [tuple(map(frozenset, lv)) for lv in levels]


def distribution_from_conjugate(levels):
    """Rebuild the full distribution determined by level maps.

    The sets must lie in range(n_formulas), n_formulas being the number
    of levels less one.  The levels must be downward hereditary: a set
    present at level n needs all its size-m subsets present at level m;
    the first violation is reported as (index, set, m).  Checked level by
    level on formula masks, a set is hereditary iff its one-smaller
    subsets are present one level down; only a set failing that is
    scanned in full, for the report.
    """
    if not levels or not levels[0]:
        raise InputError("levels must cover at least one index")
    n_formulas = len(levels) - 1
    n_indices = len(levels[0])
    if any(len(lv) != n_indices for lv in levels):
        raise InputError("levels must agree on the index count")
    present = [set() for _ in range(n_indices)]
    for n, lv in enumerate(levels):
        for a in range(n_indices):
            for d in lv[a]:
                if len(d) != n:
                    raise InputError(
                        "level %d holds a size-%d set at index %d" % (n, len(d), a))
                dm = _checked_mask(
                    d, n_formulas, "level %d set at index %d:" % (n, a))
                s = _bits(dm)
                if any(dm ^ 1 << x not in present[a] for x in s):
                    m, sub = next((m, sub) for m in range(n)
                                  for sub in combinations(s, m)
                                  if _mask(sub) not in present[a])
                    raise InputError(
                        "levels not hereditary at index %d: %r present but %r "
                        "missing at level %d" % (a, s, list(sub), m))
                present[a].add(dm)
    return FullDistribution(n_formulas, n_indices, {
        _set(d): [a for a, ds in enumerate(present) if d in ds]
        for d in range(1 << n_formulas)})


def graphlike_extension(t):
    """Level maps generated by a trace.

    Level n at alpha holds the size-n subsets of g1(alpha) all of whose
    pairs are g2(alpha) edges; levels 1 and 2 reproduce g1 and g2, and
    the empty set is present everywhere at level 0.
    """
    return conjugate(extension_distribution(t))


def extension_distribution(t):
    """The full distribution a trace generates: all formulas of the set
    present and pairwise joined at the index."""
    if t.n_formulas > FORMULA_CAP:
        raise CapabilityError(
            "extension bounded to %d formulas" % FORMULA_CAP)
    masks = _clique_masks(t.n_formulas, t.n_indices, t.g1_masks, t.g2_rows)
    return _freeze(FullDistribution, t.n_formulas, t.n_indices, tuple(masks))


class PropertyReport(_Value):
    """Boolean verdicts from check_properties with first witnesses, kept
    as (property, witness) items (``witness_items``); the view
    ``witnesses`` builds the property -> witness dict on each access."""

    __slots__ = ("monotone", "graph_like", "multiplicative",
                 "pairwise_splitting", "refines_los", "witness_items")

    def __init__(self, monotone, graph_like, multiplicative,
                 pairwise_splitting, refines_los, witnesses):
        _freeze(self, monotone, graph_like, multiplicative,
                pairwise_splitting, refines_los, tuple(witnesses.items()))

    witnesses = property(lambda self: dict(self.witness_items))

    def __repr__(self):
        return "PropertyReport(%s)" % ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__[:5])


def _is_multiplicative(f):
    """Whether f(d | e) = f(d) & f(e) for all formula sets d and e.

    That holds iff f(d) is the meet of f(∅) and the f({x}), x in d, for
    every d.  Then f(d | e) is the meet over d | e, which is f(d) & f(e).
    Conversely f(d) = f(d - {x}) & f({x}) for each x in d, and f({x}) =
    f({x} | ∅) lies inside f(∅).  One intersection per formula set, from
    the set without its least formula: O(2^n) in place of the 4^n pairs.
    """
    m = f.masks
    return all(m[d] == m[d & d - 1] & m[d & -d] for d in range(1, len(m)))


def check_properties(f, instance=None):
    """Property verdicts for a full distribution.

    monotone: growing the formula set shrinks the value.  graph_like:
    sets of size >= 2 are pinned down by their pairs.  multiplicative:
    values of unions are intersections of values.  pairwise_splitting:
    pair values are intersections of singleton values.  refines_los
    (only with an instance of the same dimensions): every index in a
    value sees the formula set as a clique of its instance graph.  The
    first witness of each failure lands in the report's witnesses dict.
    """
    n, m = f.n_formulas, f.masks
    order = _by_size(n)
    wit = {}
    for d in order:
        x = next((x for x in range(n)
                  if not d >> x & 1 and m[d | 1 << x] & ~m[d]), None)
        if x is not None:
            wit["monotone"] = (_set(d), _set(d | 1 << x))
            break
    meets = _pair_meets(list(m))
    d = next((d for d in order if meets[d] != m[d]), None)
    if d is not None:
        wit["graph_like"] = _set(d)
    multiplicative = _is_multiplicative(f)
    if not multiplicative:
        # the least set where the meet test fails gives a witness with
        # |d| <= 1, so this scans at most n + 1 values of d
        wit["multiplicative"] = next(
            (_set(d), _set(e)) for d in order for e in order
            if m[d | e] != m[d] & m[e])
    for u, v in combinations(range(n), 2):
        if m[1 << u | 1 << v] != m[1 << u] & m[1 << v]:
            wit["pairwise_splitting"] = (u, v)
            break
    refines = None
    if instance is not None:
        if (instance.n_formulas, instance.n_indices) != (n, f.n_indices):
            raise InputError("instance dimensions do not match the distribution")
        cliques = _clique_masks(n, f.n_indices, instance.k1_masks,
                                instance.k2_rows)
        d = next((d for d in order if m[d] & ~cliques[d]), None)
        refines = d is None
        if d is not None:
            wit["refines_los"] = (_set(d), min(_set(m[d] & ~cliques[d])))
    return PropertyReport("monotone" not in wit, "graph_like" not in wit,
                          multiplicative, "pairwise_splitting" not in wit,
                          refines, wit)
