"""Level maps of full distributions (the conjugate construction).

Level n of a full distribution sends each index to the size-n formula
sets whose value contains it; the levels determine the distribution
back, and a trace's levels are the sets of its per-index cliques.  No
CLI request and no property check runs these, so they live apart from
``fulldist``.
"""

from itertools import combinations

from . import fulldist
from .covering import _bits, _checked_mask, _mask
from .errors import InputError
from .fulldist import FullDistribution, _by_size, _set


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
    # read through its home: a module the bench's tracer does not patch
    # binds no function that the bench times
    return conjugate(fulldist.extension_distribution(t))
