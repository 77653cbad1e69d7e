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
the trace text writer live here too.  The search keeps one index mask
per formula and pair as its supports.  The search and the restriction
build their results with ``_freeze`` from masks and rows that are
already checked; rebuilding from a graph sequence checks its edges
as the ``Trace`` constructor does.  ``distributions`` serves
the search, ``is_refinement`` and the writer to the bench, and
``graphs`` the clique enumeration.
"""

from itertools import chain, combinations

from . import _Value, _bits, _edges, _freeze, distributions, graphs
from .covering import PRINCIPAL, QUORUM, _graphs, _has, _is_clique, _mask
from .distributions import Trace, is_pair_adequate
from .errors import ConsistencyError, InputError


class LosInstance(_Value):
    """Per-index dominating graphs on formula vertices, stored as a trace
    stores its graphs (``k1_masks``, ``k2_rows``; views ``k1``, ``k2``)."""

    __slots__ = ("n_indices", "n_formulas", "k1_masks", "k2_rows")

    def __init__(self, n_formulas, k1, k2):
        k1, k2 = _graphs(n_formulas, k1, k2, "k1", "k2")
        if len(k1) != len(k2):
            raise InputError("k1 and k2 must cover the same indices")
        _freeze(self, len(k1), n_formulas, k1, k2)

    k1 = property(lambda self: tuple(frozenset(_bits(m)) for m in self.k1_masks))
    k2 = property(lambda self: tuple(frozenset(_edges(rs)) for rs in self.k2_rows))

    def __repr__(self):
        return "LosInstance(%d formulas, %d indices)" % (
            self.n_formulas, self.n_indices)

    def is_clique(self, alpha, delta):
        """Whether delta induces a clique (vertices present, pairs edges)."""
        d = frozenset(delta)
        return (all(_has(self.k1_masks[alpha], x) for x in d)
                and _is_clique(_mask(d), self.k2_rows[alpha]))


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
        g1.append(vertices)
        g2.append(g.edges())
    t = Trace(family, n_formulas, g1, g2, instance)
    if require_adequate:
        bad_b, bad_p = distributions.adequacy_report(t)
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
    for m1, m2, r1, r2 in zip(t1.g1_masks, t2.g1_masks, t1.g2_rows,
                              t2.g2_rows):
        if m1 & ~m2 or any(x & ~y for x, y in zip(r1, r2)):
            return False
    return is_pair_adequate(t1)


def essential_range(t):
    """Indices with a nonempty vertex set; must be a family member."""
    ess = [a for a, m in enumerate(t.g1_masks) if m]
    if not t.family.is_member_mask(_mask(ess)):
        raise ConsistencyError(
            "essential range %r is not a family member" % ess)
    return frozenset(ess)


def restrict(t):
    """The trace cut down to its essential range, indices renumbered."""
    order = sorted(essential_range(t))
    fam = t.family.restrict(order)
    inst = t.instance
    if inst is not None:
        inst = _freeze(LosInstance, len(order), t.n_formulas,
                       tuple(inst.k1_masks[a] for a in order),
                       tuple(inst.k2_rows[a] for a in order))
    return _freeze(Trace, fam, t.n_formulas,
                   tuple(t.g1_masks[a] for a in order),
                   tuple(t.g2_rows[a] for a in order), inst)


# ---------------------------------------------------------------------------
# maximal cliques of the index graphs
# ---------------------------------------------------------------------------

def enumerate_maximal_cliques(g, within=None):
    """All maximal cliques as sorted vertex tuples, in sorted order; with
    a vertex mask ``within``, those of the subgraph it induces.

    Bron-Kerbosch with a pivot of most candidate neighbors, on an
    explicit stack of (clique, candidates, excluded) masks, so no frame
    is held per clique vertex; the cliques are sorted, so the order in
    which nodes are expanded does not show.  The pivot scan stops at
    the first vertex that sees every candidate but itself (every
    candidate, when some vertex is excluded), as no later one beats it.
    """
    rows = g.rows
    out = []
    stack = [(0, (1 << g.n) - 1 if within is None else within, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(r)
            continue
        most = p.bit_count() - (not x)
        pivot = -1
        best = -1
        m = p | x
        while m:
            v = (m & -m).bit_length() - 1
            score = (p & rows[v]).bit_count()
            if score > best:
                best, pivot = score, v
                if score == most:
                    break
            m &= m - 1
        ext = p & ~rows[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            stack.append((r | bit, p & rows[v], x & rows[v]))
            p &= ~bit
            x |= bit
            ext &= ext - 1
    return sorted(tuple(_bits(r)) for r in out)


# ---------------------------------------------------------------------------
# multiplicative refinement search
# ---------------------------------------------------------------------------

def _clique_choices(t, alpha):
    """Maximal cliques of the graph at alpha, as sorted vertex tuples.

    Restricting to maximal cliques loses nothing: coverage constraints
    are monotone in each K_alpha, so any witness assignment enlarges to
    one made of maximal cliques.
    """
    g = graphs.Graph._from_rows(t.n_formulas, t.g2_rows[alpha])
    return enumerate_maximal_cliques(g, t.g1_masks[alpha])


def find_multiplicative_refinement(t):
    """A per-index clique sub-trace covering all formulas and pairs, or None.

    Backtracks over maximal-clique choices in index order, cliques in
    ascending order, so the first solution is the lexicographically least;
    after each choice every formula and pair is checked for a
    still-reachable family member (known support plus all undecided
    indices).  Each formula and pair keeps its support as an index mask: a
    push sets the index bit on the supports its clique covers and a pop
    clears it, and each distinct support is tested once per node.  A
    refinement's supports lie inside the trace's, and families are upward
    closed, so a trace that is not pair-adequate is refused before any
    search.  The search keeps its own stack, so any number of indices
    fits.  None means the exhaustive search proved no assignment covers
    everything.
    """
    if not is_pair_adequate(t):
        return None
    n = t.n_indices
    nb = t.n_formulas
    member = t.family.is_member_mask
    choices = [_clique_choices(t, a) for a in range(n)]
    support = dict.fromkeys(chain(range(nb), combinations(range(nb), 2)), 0)
    everything = (1 << n) - 1
    assigned = []

    def toggle(clique, bit):
        for x in chain(clique, combinations(clique, 2)):
            support[x] ^= bit

    # tried[a]: how many cliques of index a the search has tried
    tried = [0] * n
    while len(assigned) < n:
        a = len(assigned)
        if tried[a] == len(choices[a]):
            if not assigned:
                return None
            toggle(assigned.pop(), 1 << (a - 1))
            continue
        clique = choices[a][tried[a]]
        tried[a] += 1
        toggle(clique, 1 << a)
        assigned.append(clique)
        rest = everything >> (a + 1) << (a + 1)
        supports = set(support.values())
        if not all(member(s | rest) for s in supports):
            toggle(assigned.pop(), 1 << a)
        elif a + 1 < n:
            tried[a + 1] = 0
    masks = tuple(map(_mask, assigned))
    return _freeze(Trace, t.family, nb, masks, tuple(
        tuple(k & ~(1 << v) if k >> v & 1 else 0 for v in range(nb))
        for k in masks), t.instance)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def format_trace(t):
    lines = ["indices %d" % t.n_indices, "formulas %d" % t.n_formulas]
    fam = t.family
    if fam.kind == QUORUM:
        lines.append("family quorum %d" % fam.param)
    elif fam.kind == PRINCIPAL:
        lines.append("family principal " + " ".join(map(str, _bits(fam.param))))
    else:
        lines.append("family explicit")
        lines.extend("member " + " ".join(map(str, _bits(m))) for m in fam.param)
    rows = [("g1", t.g1_masks), ("g2", t.g2_rows)]
    if t.instance is not None:
        rows += [("k1", t.instance.k1_masks), ("k2", t.instance.k2_rows)]
    for name, data in rows:
        lines.extend(_format_row(name, a, entry) for a, entry in enumerate(data))
    return "\n".join(lines) + "\n"


def _format_row(name, alpha, entry):
    if name in ("g1", "k1"):
        toks = [str(b) for b in _bits(entry)]
    else:
        toks = ["%d-%d" % p for p in _edges(entry)]
    return "%s %d :%s" % (name, alpha, (" " + " ".join(toks)) if toks else "")
