"""Minimal obstructions, and the witness text parser and re-verification.

``minimal_obstructions`` lists every minimal non-member of a shape up
to a size from the paper's catalog, which is complete: the minimal
non-interval graphs are those of Lekkerkerker & Boland (1962), and the
minimal non-members of the tree shape are C4 and L4.  One canonical
form per family gives the classes in enumeration order, with no graph
enumerated.  Witnesses read back from text are parsed and re-verified
here.  No request but ``obstructions`` runs this module, so it lives
apart from the recognizers; ``shapes`` serves its names.
"""

from itertools import combinations

from .catalog import check_shape, family_graph, parse_family, shape_families
from .embeddings import Embedding
from .errors import CapabilityError, InputError, parse_number
from .graphs import INDUCED
from .isomorphism import canonical_key, graph_from_canonical_key
from .shapes import (ASTEROIDAL_TRIPLE, FORBIDDEN_FAMILY, IRREDUCIBLE_CYCLE,
                     WITNESS_KINDS, ObstructionWitness, _avoid_components)

OBSTRUCTION_CAP = 7


def parse_witness(text):
    parts = text.split()
    if len(parts) < 2 or parts[0] != "w":
        raise InputError("malformed witness line %r" % text)
    kind = parts[1]
    if kind not in WITNESS_KINDS:
        raise InputError("unknown witness kind %r" % kind)
    rest = parts[2:]
    family = None
    if kind == FORBIDDEN_FAMILY:
        if not rest:
            raise InputError("forbidden-family witness needs a family token")
        family = parse_family(rest[0])
        rest = rest[1:]
    vertices = [parse_number(t) for t in rest]
    if None in vertices:
        raise InputError("malformed witness vertices in %r" % text)
    return ObstructionWitness(kind, vertices, family)


def witness_checks(w, g):
    """Whether the obstruction witness ``w`` holds in g, re-verified from
    scratch (``ObstructionWitness.checks``)."""
    vs = w.vertices
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return False
    if w.kind == IRREDUCIBLE_CYCLE:
        k = len(vs)
        if k < 4:
            return False
        for i, j in combinations(range(k), 2):
            adjacent = g.has_edge(vs[i], vs[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
        return True
    if w.kind == ASTEROIDAL_TRIPLE:
        if len(vs) != 3:
            return False
        a, b, c = vs
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            return False
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            comp = _avoid_components(g, z)
            if comp[x] == -1 or comp[x] != comp[y]:
                return False
        return True
    fg = family_graph(*w.family)
    return Embedding(vs, INDUCED).checks(fg, g)



# ---------------------------------------------------------------------------
# minimal obstructions
# ---------------------------------------------------------------------------

def minimal_obstructions(shape, max_n):
    """Canonical representatives of every minimal non-member with at most
    ``max_n`` vertices, in enumeration order (by vertex count, then
    canonical key): the catalog families of the shape.  Bounded to
    max_n <= 7."""
    check_shape(shape)
    if max_n < 0:
        raise InputError("vertex count must be nonnegative")
    if max_n > OBSTRUCTION_CAP:
        raise CapabilityError("minimal obstruction search bounded to n <= %d" % OBSTRUCTION_CAP)
    keys = {canonical_key(family_graph(*f))
            for f in shape_families(shape, max_n)}
    return [graph_from_canonical_key(n, key) for n, key in sorted(keys)]
