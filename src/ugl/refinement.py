"""Multiplicative refinements and the trace operations that no condition
check runs.

A *Łoś instance* gives each index a dominating graph on the formulas;
a trace refines another when it keeps the frame and takes per-index
subgraphs while staying pair-adequate.  The refinement search looks for
a sub-trace of per-index cliques that still covers every formula and
every pair with a family member; with quorum families this is a
genuine covering problem and can fail.  Its choices are the maximal
cliques of the index graphs (Bron-Kerbosch with pivoting).  Restriction
to the essential range, rebuilding a trace from its graph sequence and
the trace text writer live here too.  ``distributions`` serves the
names it had before, and ``graphs`` the clique enumeration; either
executes this module on first use.
"""

from itertools import combinations

from .distributions import (PRINCIPAL, QUORUM, Trace, _check_indices,
                            _norm_pairs, _pair, adequacy_report,
                            is_pair_adequate)
from .errors import ConsistencyError, InputError


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
# maximal cliques of the index graphs
# ---------------------------------------------------------------------------

def enumerate_maximal_cliques(g):
    """All maximal cliques as sorted vertex tuples, in sorted order."""
    rows = g.rows
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot = -1
        best = -1
        m = px
        while m:
            v = (m & -m).bit_length() - 1
            score = bin(p & rows[v]).count("1")
            if score > best:
                best, pivot = score, v
            m &= m - 1
        ext = p & ~rows[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            expand(r | bit, p & rows[v], x & rows[v])
            p &= ~bit
            x |= bit
            ext &= ext - 1

    expand(0, (1 << g.n) - 1, 0)
    cliques = []
    for r in out:
        vs = []
        while r:
            vs.append((r & -r).bit_length() - 1)
            r &= r - 1
        cliques.append(tuple(vs))
    cliques.sort()
    return cliques


# ---------------------------------------------------------------------------
# multiplicative refinement search
# ---------------------------------------------------------------------------

def _clique_choices(t, alpha):
    """Maximal cliques of the graph at alpha, as sorted vertex tuples.

    Restricting to maximal cliques loses nothing: coverage constraints
    are monotone in each K_alpha, so any witness assignment enlarges to
    one made of maximal cliques.
    """
    from .graphs import Graph

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
