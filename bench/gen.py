"""Seed-driven inputs for the ugl benchmark.

``write_inputs(workload, seed, outdir)`` writes the input files of one
round of requests into ``outdir`` and returns the round: a list of
request dicts, each with

* ``id``: a name unique within the round,
* ``kind``: ``cli`` (run as ``python -m ugl.cli <argv>``) or ``lib``
  (run through ``child.py lib <tracefile>``),
* ``argv``: the arguments; an entry ``@name`` stands for the input file
  ``name`` in ``outdir``,
* ``expect``: what ``check.py`` needs to judge the answer.

The same workload and seed give byte-identical files and the same
round.  Every expected verdict is known by construction (a planted
obstruction, a model the graph was drawn from, a completion the
generator built) or is a fact about the fixed catalog that the test
suite verifies.  The program sees only the files.

Left out on purpose: ``graph 100000000`` (its MemoryError would exhaust
the memory of a small machine) and every ``--jobs`` flag (the pool size
is not part of what the benchmark measures).
"""

import json
import random
from itertools import combinations
from pathlib import Path

from ugl.necessary import family_necessary_set
from ugl.shapes import family_graph, family_str

WORKLOADS = ("catalog", "recognize", "traces")

# The 14 catalog hosts of family_necessary_set; the sets of the hosts
# with at most 9 non-edges carry exact flags.
CATALOG = (("C4", None), ("L4", None), ("III", 4), ("III", 5), ("III", 6),
           ("III", 7), ("I", None), ("II", None), ("IV", 2), ("IV", 3),
           ("IV", 4), ("V", 1), ("V", 2), ("V", 3))

# Adversarial sizes: each finishes within seconds at the first measured
# commit, except the path, which overflows the recursion limit.
STRIP_N = 35
ISOLATED_BESIDE_C4 = 8
LONG_PATH_N = 1200

# Generated graphs have 8 to 80 vertices, except where the exponential
# searches of the first measured commit (realize backtracking, tree
# embedding search, chordless-cycle search on G(n,p)) take from
# milliseconds to many seconds on graphs of one size, depending on the
# labeling, which would swamp the round.  The blow-ups stay measured by
# the fixed adversarial inputs above.
MAX_N = 80
REALIZE_MAX_N = 24
FOREST_MAX_N = 50
GNP_MAX_N = 48

# Round sizes: each round has at least 100 requests, so that p90 has ten
# samples beyond it.
HOSTS = 32
GRAPHS = 64
TRACES = 24
PLANTED_REFINEMENTS = 4

# Adequacy alone does not give a multiplicative refinement here.
QUORUM_NO_REFINEMENT = """indices 3
formulas 3
family quorum 2
g1 0 : 0 1 2
g1 1 : 0 1 2
g1 2 : 0 1 2
g2 0 : 0-2 1-2
g2 1 : 0-1 0-2
g2 2 : 0-1 0-2 1-2
"""


def _pair(u, v):
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# graphs: (n, sorted edge list) pairs
#
# Files are written here rather than with the package's formatters, so
# that the inputs stay the same when the code under test changes.
# ---------------------------------------------------------------------------

def format_graph(n, edges):
    return "graph %d\n" % n + "".join("e %d %d\n" % e for e in sorted(edges))


def relabel(edges, perm):
    return sorted(_pair(perm[u], perm[v]) for u, v in edges)


def shuffled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(edges, perm)


def interval_edges(rng, n, degree):
    """Edges of a random interval graph with about ``degree`` neighbors
    per vertex, vertices in random order."""
    span = 1000
    width = max(2, int(degree * span / max(n, 1)))
    iv = []
    for _ in range(n):
        a = rng.randrange(span)
        iv.append((a, a + rng.randint(1, width)))
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if max(iv[u][0], iv[v][0]) < min(iv[u][1], iv[v][1])]
    return shuffled(rng, n, edges)


def forest_edges(rng, n, new_root=0.15):
    """Comparability graph of a random rooted forest (a tree-shape
    member), vertices in random order."""
    parent = [-1]
    for v in range(1, n):
        parent.append(-1 if rng.random() < new_root else rng.randrange(v))
    edges = []
    for v in range(n):
        a = parent[v]
        while a != -1:
            edges.append((a, v))
            a = parent[a]
    return shuffled(rng, n, edges)


def plant(rng, n, edges, h_n, h_edges):
    """Make an induced copy of (h_n, h_edges) on random vertices."""
    return plant_at(rng.sample(range(n), h_n), edges, h_edges)


def plant_at(vs, edges, h_edges):
    """Make an induced copy of h_edges on the vertices ``vs``."""
    inside = set(vs)
    out = {e for e in edges if not (e[0] in inside and e[1] in inside)}
    out.update(_pair(vs[a], vs[b]) for a, b in h_edges)
    return sorted(out)


def cycle_edges(k):
    return [_pair(i, (i + 1) % k) for i in range(k)]


def non_edges(n, edges):
    es = set(edges)
    return [p for p in combinations(range(n), 2) if p not in es]


def threshold_completion(rng, n, edges):
    """A member completion of a non-complete host, for both shapes.

    A maximal independent set R of size >= 2 is kept independent and
    every other pair becomes an edge: the result is a threshold graph,
    which is a forest comparability graph and an interval graph.
    Returns the host non-edges inside R (avoided by the completion under
    the identity placement) and the host non-edges it uses.
    """
    es = set(edges)
    u, v = rng.choice(non_edges(n, edges))
    indep = {u, v}
    rest = [w for w in range(n) if w not in indep]
    rng.shuffle(rest)
    for w in rest:
        if all(_pair(w, x) not in es for x in indep):
            indep.add(w)
    avoided = [p for p in non_edges(n, edges)
               if p[0] in indep and p[1] in indep]
    used = [p for p in non_edges(n, edges) if p not in avoided]
    return avoided, used


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def format_trace(n_indices, nb, family, g1, g2):
    lines = ["indices %d" % n_indices, "formulas %d" % nb]
    kind, param = family
    if kind == "quorum":
        lines.append("family quorum %d" % param)
    elif kind == "principal":
        lines.append("family principal " + " ".join(map(str, param)))
    else:
        lines.append("family explicit")
        lines.extend("member " + " ".join(map(str, m)) for m in param)
    for a in range(n_indices):
        lines.append("g1 %d :" % a + "".join(" %d" % b for b in sorted(g1[a])))
    for a in range(n_indices):
        lines.append("g2 %d :" % a
                     + "".join(" %d-%d" % p for p in sorted(g2[a])))
    return "\n".join(lines) + "\n"


def is_member(family, support):
    kind, param = family
    if kind == "quorum":
        return len(support) >= param
    if kind == "principal":
        return set(param) <= support
    return any(set(m) <= support for m in param)


def adequacy(n_indices, nb, family, g1, g2):
    bad_b = [b for b in range(nb)
             if not is_member(family, {a for a in range(n_indices)
                                       if b in g1[a]})]
    bad_p = [list(p) for p in combinations(range(nb), 2)
             if not is_member(family, {a for a in range(n_indices)
                                       if p in g2[a]})]
    return bad_b, bad_p


# Index graph classes: the chain condition and the tree catalog
# condition hold exactly when every index graph is a tree-shape member,
# the interval catalog condition exactly when every one is an interval
# graph.  P4 is an interval graph outside the tree shape; a hole is
# outside both.
TREE_CLASS, INTERVAL_CLASS, OUTSIDE_CLASS = "tree", "interval", "outside"
P4_INTERVALS = ((0, 2), (1, 4), (3, 6), (5, 7))


def index_graph(rng, cls, vertices, sparse):
    """Edges on ``vertices`` (formula ids) of the given class."""
    vs = sorted(vertices)
    k = len(vs)
    if cls == TREE_CLASS:
        local = forest_edges(rng, k, 0.6 if sparse else 0.15)
    elif cls == INTERVAL_CLASS:
        iv = list(P4_INTERVALS)
        while len(iv) < k:
            a = rng.randrange(8)
            iv.append((a, a + rng.randint(1, 3)))
        order = list(range(k))
        rng.shuffle(order)
        local = [_pair(order[u], order[v]) for u, v in combinations(range(k), 2)
                 if max(iv[u][0], iv[v][0]) < min(iv[u][1], iv[v][1])]
    else:
        base = [p for p in combinations(range(k), 2)
                if rng.random() < (0.2 if sparse else 0.4)]
        hole = rng.randint(4, min(k, 6))
        local = plant(rng, k, base, hole, cycle_edges(hole))
    return {_pair(vs[u], vs[v]) for u, v in local}


def complete_on(vertices):
    return set(combinations(sorted(vertices), 2))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _Round:
    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.requests = []
        self.files = {}

    def file(self, name, text):
        assert name not in self.files, name
        self.files[name] = text
        return "@" + name

    def add(self, rid, argv, expect, kind="cli"):
        self.requests.append({"id": rid, "kind": kind, "argv": argv,
                              "expect": expect})


def _catalog(rng, r):
    for shape, max_n in (("tree", 6), ("interval", 6), ("interval", 7)):
        r.add("obstructions-%s-%d" % (shape, max_n),
              ["obstructions", "--shape", shape, "--max-n", str(max_n)],
              {"check": "obstructions", "shape": shape, "max_n": max_n,
               "exit": 0})
    fixed_sets = []
    for kind, param in CATALOG:
        shape, host, ns = family_necessary_set(kind, param)
        tag = family_str(kind, param)
        edges = host.edges()
        g = r.file("host-%s.graph" % tag, format_graph(host.n, edges))
        flags = ns.claimed()
        s = r.file("set-%s.set" % tag, _set_text(ns.edges, flags))
        r.add("verify-%s" % tag,
              ["necessary", "--shape", shape, g, "--verify", s],
              {"check": "verify", "shape": shape, "graph": g[1:],
               "set": s[1:], "exit": 0})
        if len(host.non_edges()) <= 9:
            _, used = threshold_completion(rng, host.n, edges)
            r.add("all-minimal-%s" % tag,
                  ["necessary", "--shape", shape, g, "--all-minimal"],
                  {"check": "minimal_sets", "shape": shape, "graph": g[1:],
                   "used": used, "contains": [list(p) for p in ns.edges],
                   "exit": 0})
        fixed_sets.append((tag, shape, host, ns))
    # relabeled catalog hosts with perturbed sets: one extra pair keeps
    # the set necessary (the claim sweeps every sandwich); one pair fewer
    # breaks it, because every catalog set is subset-minimal
    small = [f for f in fixed_sets if f[2].n <= 7]
    for i in range(12):
        tag, shape, host, ns = small[i % len(small)]
        perm = list(range(host.n))
        rng.shuffle(perm)
        edges = relabel(host.edges(), perm)
        b = relabel(ns.edges, perm)
        g = r.file("relabeled-%02d.graph" % i, format_graph(host.n, edges))
        extra = [p for p in non_edges(host.n, edges) if p not in b]
        if i % 2 == 0 and extra:
            claim, verdict = sorted(b + [rng.choice(extra)]), 0
        else:
            b = list(b)
            b.pop(rng.randrange(len(b)))
            claim, verdict = b, 1
        s = r.file("relabeled-%02d.set" % i, _set_text(claim, ["necessary"]))
        r.add("verify-relabeled-%02d-%s" % (i, tag),
              ["necessary", "--shape", shape, g, "--verify", s],
              {"check": "verify", "shape": shape, "graph": g[1:],
               "set": s[1:], "exit": verdict})
    # random non-member hosts: a planted obstruction keeps them outside
    # the shape; the slot fixes the vertex and non-edge counts (the cost
    # of the exact sweep), the seed only the structure
    for i in range(HOSTS):
        shape = "interval" if i % 3 else "tree"
        n = (5, 6, 7, 6)[i % 4]
        if shape == "tree":
            h_n = 4
            h_edges = cycle_edges(4) if i % 2 else [(0, 1), (1, 2), (2, 3)]
        else:
            h_n = 4 + (i // 3) % 2
            h_edges = cycle_edges(h_n)
        vs = rng.sample(range(n), h_n)
        edges = plant_at(vs, [], h_edges)
        inside = len(non_edges(h_n, h_edges))
        outside = [p for p in combinations(range(n), 2)
                   if not (p[0] in vs and p[1] in vs)]
        rng.shuffle(outside)
        missing = max(1, {5: 4, 6: 5, 7: 6}[n] - inside)
        edges = sorted(edges + outside[missing:])
        avoided, used = threshold_completion(rng, n, edges)
        g = r.file("host-%02d.graph" % i, format_graph(n, edges))
        r.add("necessary-%02d" % i, ["necessary", "--shape", shape, g],
              {"check": "minimal_sets", "shape": shape, "graph": g[1:],
               "used": used, "contains": None, "exit": 0})
        s = r.file("host-%02d.set" % i, _set_text(avoided, ["necessary"]))
        r.add("verify-host-%02d" % i,
              ["necessary", "--shape", shape, g, "--verify", s],
              {"check": "verify", "shape": shape, "graph": g[1:],
               "set": s[1:], "exit": 1})


def _set_text(pairs, flags):
    return ("B" + "".join(" %d-%d" % p for p in sorted(pairs)) + "\nflags "
            + " ".join("%s=%d" % (f, f in flags)
                       for f in ("necessary", "submin", "mincard", "unique"))
            + "\n")


def _recognize(rng, r):
    strip = [(i, i + 1) for i in range(STRIP_N - 1)]
    strip += [(i, i + 2) for i in range(STRIP_N - 2)]
    g = r.file("strip.graph", format_graph(STRIP_N, strip))
    r.add("strip-interval", ["recognize", "--shape", "interval", g],
          {"check": "recognize", "graph": g[1:], "shape": "interval",
           "exit": 0})
    r.add("strip-realize", ["realize", g],
          {"check": "realize", "graph": g[1:], "exit": 0})
    g = r.file("c4-isolated.graph",
               format_graph(4 + ISOLATED_BESIDE_C4, cycle_edges(4)))
    r.add("c4-isolated-realize", ["realize", g],
          {"check": "realize", "graph": g[1:], "exit": 1})
    path = [(i, i + 1) for i in range(LONG_PATH_N - 1)]
    g = r.file("long-path.graph", format_graph(LONG_PATH_N, path))
    r.add("long-path-interval", ["recognize", "--shape", "interval", g],
          {"check": "recognize", "graph": g[1:], "shape": "interval",
           "exit": 0})
    r.add("long-path-realize", ["realize", g],
          {"check": "realize", "graph": g[1:], "exit": 0})
    obstructions = [family_graph(*k) for k in
                    (("I", None), ("II", None), ("IV", 2), ("V", 1))]
    # the slot fixes the kind and size, the seed only the structure
    for i in range(GRAPHS):
        kind = i % 4
        n = 8 + (i * ((GNP_MAX_N if kind == 3 else MAX_N) - 8)) // (GRAPHS - 1)
        if kind == 1:
            n = min(n, FOREST_MAX_N)
        if kind >= 2 and (i // 4) % 2 == 0:
            n = 8 + (i // 8) % 3
        members = {"tree": None, "interval": None}
        if kind == 0:
            edges = interval_edges(rng, n, 1.5 if n > 40 else 3.0)
            members["interval"] = True
        elif kind == 1:
            edges = forest_edges(rng, n)
            members["interval"] = members["tree"] = True
        elif kind == 2:
            base = interval_edges(rng, n, 1.5 if n > 40 else 3.0)
            if (i // 4) % 4 < 2:
                h = 4 + (i // 4) % 5
                edges = plant(rng, n, base, h, cycle_edges(h))
            else:
                fg = obstructions[(i // 4) % len(obstructions)]
                edges = plant(rng, n, base, fg.n, fg.edges())
            members["interval"] = members["tree"] = False
        else:
            p = min(0.5, 3.0 / n)
            base = [e for e in combinations(range(n), 2) if rng.random() < p]
            h = 4 + (i // 4) % 3
            edges = plant(rng, n, base, h, cycle_edges(h))
            members["interval"] = members["tree"] = False
        g = r.file("g%02d.graph" % i, format_graph(n, edges))
        for shape in ("interval", "tree"):
            if members[shape] is None:
                continue
            r.add("g%02d-%s" % (i, shape),
                  ["recognize", "--shape", shape, g],
                  {"check": "recognize", "graph": g[1:], "shape": shape,
                   "exit": 0 if members[shape] else 1})
        if n <= (REALIZE_MAX_N if members["interval"] else 10):
            r.add("g%02d-realize" % i, ["realize", g],
                  {"check": "realize", "graph": g[1:],
                   "exit": 0 if members["interval"] else 1})


def _traces(rng, r):
    nb = 8
    one = r.file("complete-one-index.trace",
                 format_trace(1, nb, ("quorum", 1), [set(range(nb))],
                              [complete_on(range(nb))]))
    r.add("complete-trace-check", ["trace-check", one],
          _trace_expect("trace-check", one, 1, nb, ("quorum", 1),
                        [set(range(nb))], [complete_on(range(nb))],
                        [TREE_CLASS]))
    cex = r.file("quorum-no-refinement.trace", QUORUM_NO_REFINEMENT)
    r.add("quorum-no-refinement-refine", ["trace-refine", cex],
          {"check": "trace-refine", "trace": cex[1:], "exit": 1})
    # the slot fixes the formula and index counts, the family kind, the
    # density and which conditions hold; the seed fixes the graphs
    for i in range(TRACES):
        nb = 8 if i % 6 == 5 else 6 + i % 2
        n_indices = 3 + i % 6
        roll = i % 4
        if roll == 0:
            family = ("quorum", 1 + (i // 4) % n_indices)
        elif roll == 2:
            family = ("explicit", _antichain(rng, n_indices))
        else:
            family = ("principal",
                      sorted(rng.sample(range(n_indices), 1 + (i // 4) % 2)))
        density = ("sparse", "mixed", "complete")[(i // 4) % 3]
        # which index graphs leave the tree shape: none, one interval
        # graph, or one graph outside the interval shape
        profile = (i // 2) % 3 if density != "complete" else 0
        special = rng.randrange(n_indices)
        g1, g2, classes = [], [], []
        for a in range(n_indices):
            if density == "complete" or (family[0] == "principal"
                                         and a in family[1]):
                vs = set(range(nb))
            else:
                vs = {b for b in range(nb) if rng.random() < 0.8}
            cls = TREE_CLASS
            if a == special and profile:
                cls = INTERVAL_CLASS if profile == 1 else OUTSIDE_CLASS
                vs = set(range(nb))
            if density == "complete":
                es = complete_on(vs)
            else:
                es = index_graph(rng, cls, vs, density == "sparse")
            g1.append(vs)
            g2.append(es)
            classes.append(cls)
        name = r.file("t%02d.trace" % i,
                      format_trace(n_indices, nb, family, g1, g2))
        common = (name, n_indices, nb, family, g1, g2, classes)
        r.add("t%02d-check" % i, ["trace-check", name],
              _trace_expect("trace-check", *common))
        shape = "tree" if nb == 8 or i % 2 else "interval"
        r.add("t%02d-condition" % i,
              ["trace-condition", "--sop2", "--shape", shape, name],
              _trace_expect("trace-condition", *common, shape=shape))
        r.add("t%02d-properties" % i, ["lib", name],
              _trace_expect("lib", *common), kind="lib")
        if family[0] == "principal":
            r.add("t%02d-refine" % i, ["trace-refine", name],
                  _trace_expect("trace-refine", *common))
            r.add("t%02d-ultragraph" % i, ["ultragraph", "--extend-eta", name],
                  _trace_expect("ultragraph", *common))
    for i in range(PLANTED_REFINEMENTS):
        _planted_refinement(rng, r, i)


def _planted_refinement(rng, r, i):
    """A quorum trace that has a multiplicative refinement by
    construction: per-index cliques covering every formula and pair k
    times, then extra edges and vertices on top."""
    nb = 6 + i % 3
    n_indices = 3 + i % 4
    k = 1 + i % 2
    cliques = [set(range(nb)) for _ in range(k)]
    cliques += [set(rng.sample(range(nb), rng.randint(2, nb)))
                for _ in range(n_indices - k)]
    rng.shuffle(cliques)
    g1, g2 = [], []
    for c in cliques:
        vs = set(c) | {b for b in range(nb) if rng.random() < 0.5}
        es = complete_on(c) | {p for p in combinations(sorted(vs), 2)
                               if rng.random() < 0.5}
        g1.append(vs)
        g2.append(es)
    family = ("quorum", k)
    name = r.file("planted-%02d.trace" % i,
                  format_trace(n_indices, nb, family, g1, g2))
    r.add("planted-%02d-refine" % i, ["trace-refine", name],
          {"check": "trace-refine", "trace": name[1:], "exit": 0})


def _antichain(rng, n_indices):
    members = []
    for _ in range(rng.randint(1, 3)):
        m = sorted(rng.sample(range(n_indices), rng.randint(1, 3)))
        if not any(set(o) <= set(m) or set(m) <= set(o) for o in members):
            members.append(m)
    return members


def _trace_expect(check, name, n_indices, nb, family, g1, g2, classes,
                  shape=None):
    """Expected answers, derived from how the trace was built."""
    bad_b, bad_p = adequacy(n_indices, nb, family, g1, g2)
    multiplicative = all(g2[a] == complete_on(g1[a]) for a in range(n_indices))
    tree = all(c == TREE_CLASS for c in classes)
    interval = all(c != OUTSIDE_CLASS for c in classes)
    exp = {"check": check, "trace": name[1:]}
    if check == "trace-check":
        exp.update(bad_formulas=bad_b, bad_pairs=bad_p,
                   multiplicative=multiplicative, sop2=tree, tree=tree,
                   interval=interval)
        exp["exit"] = 0 if not bad_b and not bad_p and tree else 1
    elif check == "trace-condition":
        holds = tree if shape == "tree" else interval
        exp.update(sop2=tree, shape=shape, holds=holds)
        exp["exit"] = 0 if tree and holds else 1
    elif check == "trace-refine":
        # principal family: a refinement must keep every formula and pair
        # on every core index, so one exists iff the core graphs are complete
        core_complete = all(g2[a] == complete_on(range(nb)) for a in family[1])
        exp["exit"] = 0 if core_complete else 1
    elif check == "lib":
        exp.update(multiplicative=multiplicative, exit=0)
    else:
        core = family[1]
        complete = all(g2[a] == complete_on(range(nb)) for a in core)
        size = 1
        for a in core:
            size *= len(g1[a])
        edges = None
        if size <= 1000:
            edges = 1
            for a in core:
                edges *= 2 * len(g2[a])
            edges //= 2
        exp.update(core=list(core), vertices=size, edges=edges,
                   eta_complete=complete, exit=0 if complete else 1)
    return exp


_BUILDERS = {"catalog": _catalog, "recognize": _recognize, "traces": _traces}


def write_inputs(workload, seed, outdir):
    """Write the inputs of one round and return its requests."""
    rng = random.Random("%s:%d" % (workload, seed))
    r = _Round(outdir)
    _BUILDERS[workload](rng, r)
    rng.shuffle(r.requests)
    r.outdir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(r.files.items()):
        (r.outdir / name).write_text(text, encoding="utf-8")
    manifest = json.dumps(r.requests, indent=1, sort_keys=True) + "\n"
    (r.outdir / "requests.json").write_text(manifest, encoding="utf-8")
    return r.requests
