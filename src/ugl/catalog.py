"""The paper's fixed catalog: obstruction families, the curated
necessary sets and the placement search they share.

The minimal forbidden induced subgraphs of the interval shape form the
classical catalog: the two fixed seven-vertex graphs (here families
``I`` and ``II``), the holes ``III(k)`` for k >= 4, and two one-parameter
families ``IV(m)`` (m >= 2; ``IV(2)`` is the net) and ``V(n)`` (n >= 1;
``V(1)`` is the 3-sun).  The tree shape has the 4-cycle ``C4`` and the
4-path ``L4``.  ``family_graph`` builds each with a fixed, documented
labeling so that downstream edge data can refer to concrete vertices.

The trace conditions need only this data, not the recognizers, so it
lives apart from them.  All of them ask one question of an index graph
(``least_placement``): does a catalog host fit in, with its edges on
edges and its curated pairs on non-edges?  Wolk's diagonal condition,
hence the chain condition, is the ``L4`` entry.

The shape names and ``check_shape`` live in the package and are bound
here too.  No interval recognition, realization or interval
necessary-set request runs this module.
"""

from . import (INTERVAL, SHAPES, TREE, check_shape,  # noqa: F401
               embeddings, graphs)
from .errors import InputError, parse_number


# ---------------------------------------------------------------------------
# the family catalog
# ---------------------------------------------------------------------------

FIXED_FAMILIES = ("C4", "L4", "I", "II")
PARAMETRIC_FAMILIES = ("III", "IV", "V")


def family_graph(kind, param=None):
    """Build a catalog family member with its fixed labeling.

    ``C4``: the 4-cycle 0-1-2-3-0.  ``L4``: the 4-path 0-1-2-3.

    ``I``: hub 0 with three length-two arms; arm k (k = 0, 1, 2) has
    inner vertex 2k+1 adjacent to the hub and tip 2k+2 adjacent to the
    inner vertex.

    ``II``: apex 0 adjacent to 1..5, induced path 1-2-3-4-5, pendant 6
    attached to 3.

    ``III(k)``, k >= 4: the k-cycle 0-1-..-(k-1)-0.

    ``IV(m)``, m >= 2: apex 0 adjacent only to hub 1; hub adjacent to
    every base vertex 4..m+3; base path 4-5-..-(m+3); guard 2 adjacent
    to the first base vertex, guard 3 to the last.  2m+2 edges; IV(2)
    is the net.

    ``V(n)``, n >= 1: hubs 0 and 1 adjacent to each other and to every
    base vertex 5..n+4; base path; outer 2 adjacent to hub 0 and the
    first base vertex; outer 3 adjacent to both hubs; outer 4 adjacent
    to hub 1 and the last base vertex.  3n+6 edges; V(1) is the 3-sun.
    """
    Graph = graphs.Graph
    if kind in ("C4", "L4"):
        if param is not None:
            raise InputError("family %s takes no parameter" % kind)
        edges = [(0, 1), (1, 2), (2, 3)]
        if kind == "C4":
            edges.append((0, 3))
        return Graph(4, edges)
    if kind == "I":
        if param is not None:
            raise InputError("family I takes no parameter")
        return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    if kind == "II":
        if param is not None:
            raise InputError("family II takes no parameter")
        edges = [(0, k) for k in range(1, 6)]
        edges += [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
        return Graph(7, edges)
    if kind == "III":
        if param is None or param < 4:
            raise InputError("family III needs a cycle length >= 4")
        return Graph(param, [(i, (i + 1) % param) for i in range(param)])
    if kind == "IV":
        if param is None or param < 2:
            raise InputError("family IV needs a base length >= 2")
        m = param
        edges = [(0, 1)]
        edges += [(1, 4 + i) for i in range(m)]
        edges += [(2, 4), (3, m + 3)]
        edges += [(4 + i, 5 + i) for i in range(m - 1)]
        return Graph(m + 4, edges)
    if kind == "V":
        if param is None or param < 1:
            raise InputError("family V needs a base length >= 1")
        n = param
        edges = [(0, 1)]
        edges += [(0, 5 + i) for i in range(n)]
        edges += [(1, 5 + i) for i in range(n)]
        edges += [(5 + i, 6 + i) for i in range(n - 1)]
        edges += [(2, 0), (2, 5), (3, 0), (3, 1), (4, 1), (4, n + 4)]
        return Graph(n + 5, edges)
    raise InputError("unknown family kind %r" % (kind,))


def family_str(kind, param=None):
    return kind if param is None else "%s(%d)" % (kind, param)


def parse_family(token):
    """Parse a family token like ``C4`` or ``III(5)``."""
    if token in FIXED_FAMILIES:
        return token, None
    if "(" in token and token.endswith(")"):
        kind, _, rest = token.partition("(")
        if kind in PARAMETRIC_FAMILIES:
            param = parse_number(rest[:-1])
            if param is None:
                raise InputError("malformed family parameter in %r" % token)
            family_graph(kind, param)
            return kind, param
    raise InputError("unknown family token %r" % token)


def shape_families(shape, max_vertices):
    """Catalog families for ``shape`` with at most ``max_vertices`` vertices,
    in deterministic order."""
    check_shape(shape)
    out = []
    if shape == TREE:
        if max_vertices >= 4:
            out = [("C4", None), ("L4", None)]
        return out
    if max_vertices >= 7:
        out += [("I", None), ("II", None)]
    out += [("III", k) for k in range(4, max_vertices + 1)]
    out += [("IV", m) for m in range(2, max_vertices - 3)]
    out += [("V", n) for n in range(1, max_vertices - 4)]
    return out


# ---------------------------------------------------------------------------
# placements: the diagonal condition and the catalog inclusions
# ---------------------------------------------------------------------------

def least_placement(kind, param, index_graphs):
    """Least (placement, index) of a catalog host over ``index_graphs``, or
    None.

    A placement sends the host's edges to edges and the pairs of its
    ``catalog_necessary_set`` to non-edges.  ``iter_embeddings`` maps the
    host vertices in index order and tries candidates in ascending order,
    so its first result is the graph's least placement; the minimum over
    the graphs is the least placement, then the least index carrying it.
    """
    _, host, (pairs, _) = catalog_necessary_set(kind, param)
    avoid = graphs.Graph(host.n, pairs)
    found = []
    for a, g in enumerate(index_graphs):
        x = next(embeddings.iter_embeddings(host, g, graphs.EDGES_ONLY,
                                            avoid=avoid), None)
        if x is not None:
            found.append((x, a))
    return min(found, default=None)


def diagonal_violation(g):
    """First quadruple x0-x1-x2-x3 (a walk of three edges on distinct
    vertices) with neither diagonal x0-x2 nor x1-x3, or None.  The ``L4``
    host is the path 0-1-2-3 with curated pairs 0-2 and 1-3, so this is
    its least placement."""
    found = least_placement("L4", None, [g])
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# curated necessary sets
# ---------------------------------------------------------------------------

def catalog_necessary_set(kind, param=None):
    """The curated necessary set of a catalog family, as plain data.

    Returns (shape, host, (pairs, flags)): the host is ``family_graph``'s,
    the pairs are host non-edges in ascending order, and the flags are
    the ones the set is known to satisfy; a flag left out is simply not
    claimed.  The 4-cycle and 4-path entries live in the tree shape, the
    rest in the interval shape.  Not every flag that holds is claimed:
    the sets of I and III(k) claim only necessity and subset-minimality,
    and those of II and IV(k), k >= 3, leave uniqueness unclaimed.
    """
    host = family_graph(kind, param)
    all_flags = {"necessary": 1, "submin": 1, "mincard": 1, "unique": 1}
    if kind in ("C4", "L4"):
        return TREE, host, ([(0, 2), (1, 3)], all_flags)
    if kind == "I":
        b = [(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (3, 5)]
        return INTERVAL, host, (b, {"necessary": 1, "submin": 1})
    if kind == "II":
        b = [(0, 6), (1, 3), (2, 4), (3, 5)]
        return INTERVAL, host, (b, {"necessary": 1, "submin": 1, "mincard": 1})
    if kind == "III":
        b = [(0, 2)] + [(1, j) for j in range(3, param)]
        return INTERVAL, host, (b, {"necessary": 1, "submin": 1})
    if kind == "IV":
        if param == 2:
            b = [(0, 4), (0, 5), (1, 2), (1, 3), (2, 5), (3, 4)]
            return INTERVAL, host, (b, all_flags)
        b = sorted([(4, param + 3), (1, 2), (1, 3)]
                   + [(0, 3 + i) for i in range(1, param + 1)])
        return INTERVAL, host, (b, {"necessary": 1, "submin": 1, "mincard": 1})
    # family_graph has refused every other kind
    b = sorted([(1, 2), (0, 4)] + [(3, 4 + i) for i in range(1, param + 1)])
    return INTERVAL, host, (b, all_flags)
