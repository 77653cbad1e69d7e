"""Minimal obstructions, rooted forests, and the witness text parser and
re-verification.

``minimal_obstructions`` lists every minimal non-member of a shape up
to a size from the paper's catalog, which is complete: the minimal
non-interval graphs are those of Lekkerkerker & Boland (1962), and the
minimal non-members of the tree shape are C4 and L4.  One canonical
form per family gives the classes in enumeration order, with no graph
enumerated.  ``forest_comparability_classes`` lists the classes of the
tree shape from rooted forests, an independent route to its members.
Witnesses read back from text are parsed and re-verified here.  No
request but ``obstructions`` runs this module, so it lives apart from
the recognizers; ``shapes`` serves its names.
"""

from itertools import combinations

from .catalog import check_shape, family_graph, parse_family, shape_families
from .errors import CapabilityError, InputError
from .graphs import INDUCED, Embedding, Graph
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
    try:
        vertices = [int(t) for t in rest]
    except ValueError:
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


# ---------------------------------------------------------------------------
# rooted forests and their comparability graphs
# ---------------------------------------------------------------------------

def _rooted_trees(max_size):
    """Rooted trees as canonical nested tuples, per size; a tree is the
    sorted tuple of its child subtrees."""
    trees = {1: [()]}
    sizes = {(): 1}
    for s in range(2, max_size + 1):
        found = set()

        def fill(remaining, pool_index, chosen, pool):
            if remaining == 0:
                found.add(tuple(sorted(chosen)))
                return
            for i in range(pool_index, len(pool)):
                t = pool[i]
                if sizes[t] <= remaining:
                    fill(remaining - sizes[t], i, chosen + [t], pool)

        pool = [t for size in range(1, s) for t in trees[size]]
        fill(s - 1, 0, [], pool)
        trees[s] = sorted(found)
        for t in trees[s]:
            sizes[t] = s
    return trees, sizes


def _forest_graph(forest, sizes):
    """Comparability graph of a forest (ancestor pairs are edges)."""
    total = sum(sizes[t] for t in forest)
    edges = []
    next_id = 0

    def walk(tree, ancestors):
        nonlocal next_id
        me = next_id
        next_id += 1
        edges.extend((a, me) for a in ancestors)
        for child in tree:
            walk(child, ancestors + [me])

    for tree in forest:
        walk(tree, [])
    return Graph(total, edges)


def forest_comparability_classes(max_n):
    """Canonical forms of comparability graphs of all rooted forests with
    at most ``max_n`` nodes, sorted.  Bounded to max_n <= 7."""
    if max_n > OBSTRUCTION_CAP:
        raise CapabilityError("forest enumeration bounded to n <= %d" % OBSTRUCTION_CAP)
    trees, sizes = _rooted_trees(max_n) if max_n >= 1 else ({}, {})
    pool = [t for s in range(1, max_n + 1) for t in trees[s]]
    forests = []

    def fill(remaining, pool_index, chosen):
        forests.append(list(chosen))
        for i in range(pool_index, len(pool)):
            t = pool[i]
            if sizes[t] <= remaining:
                fill(remaining - sizes[t], i, chosen + [t])

    fill(max_n, 0, [])
    keys = {canonical_key(_forest_graph(f, sizes)) for f in forests}
    return [graph_from_canonical_key(n, key) for n, key in sorted(keys)]
