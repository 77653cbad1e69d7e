"""Answer checks for benchmark requests.

``judge(request, indir, code, out, err, timed_out)`` returns one of

* ``ok``: the exit code matches the expected verdict and every
  certificate on stdout re-verifies;
* ``wrong``: the program answered (exit 0 or 1, no traceback) but the
  verdict is wrong or a certificate does not re-verify;
* ``exception``: an uncaught exception (a traceback on stderr, or an
  exit code outside 0..3);
* ``refused``: exit 2 or 3 on valid input;
* ``timeout``: the request was killed at its time limit.

Only ``ok`` counts as a success.  Witnesses are re-verified through the
package's own ``checks()`` / ``counterexample_checks`` / ``is_refinement``
rather than compared byte for byte, so a change of witness is not a
failure.  Verdicts on traces are checked against the trace data
directly.
"""

from itertools import combinations
from pathlib import Path

from ugl.distributions import (is_multiplicative_trace, is_refinement,
                               parse_trace)
from ugl.errors import InputError
from ugl.graphs import canonical_key, parse_graph
from ugl.necessary import (counterexample_checks, family_necessary_set,
                           parse_necessary_set)
from ugl.shapes import (family_graph, parse_family, parse_interval_model,
                        parse_witness, shape_families)
from ugl.ultragraph import build, parse_internal_set

class Wrong(Exception):
    """The answer does not hold up."""


def judge(req, indir, code, out, err, timed_out=False):
    if timed_out:
        return "timeout"
    if "Traceback (most recent call last)" in err or code not in (0, 1, 2, 3):
        return "exception"
    if code in (2, 3):
        return "refused"
    exp = req["expect"]
    try:
        if code != exp["exit"]:
            raise Wrong("exit %d, expected %d" % (code, exp["exit"]))
        _CHECKS[exp["check"]](exp, Path(indir), code, out)
    except (Wrong, InputError, ValueError, IndexError, StopIteration):
        return "wrong"
    return "ok"


def _need(cond, what):
    if not cond:
        raise Wrong(what)


def _graph(indir, name):
    return parse_graph((indir / name).read_text(encoding="utf-8"))


def _trace(indir, name):
    return parse_trace((indir / name).read_text(encoding="utf-8"))


def _blocks(out):
    return [b for b in out.split("\n\n") if b.strip()]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _recognize(exp, indir, code, out):
    g = _graph(indir, exp["graph"])
    if code == 0:
        _need(out == "member\n", "member line")
    else:
        _need(parse_witness(out).checks(g), "witness re-verifies")


def _realize(exp, indir, code, out):
    g = _graph(indir, exp["graph"])
    if code == 0:
        _need(parse_interval_model(out).checks(g), "model re-verifies")
    else:
        _need(parse_witness(out).checks(g), "witness re-verifies")


def _obstructions(exp, indir, code, out):
    got = [canonical_key(parse_graph(b)) for b in _blocks(out)]
    want = {canonical_key(family_graph(*f))
            for f in shape_families(exp["shape"], exp["max_n"])}
    _need(len(got) == len(set(got)) and set(got) == want, "catalog")


def _verify(exp, indir, code, out):
    h = _graph(indir, exp["graph"])
    ns = parse_necessary_set((indir / exp["set"]).read_text(encoding="utf-8"))
    if code == 0:
        _need(parse_necessary_set(out) == ns, "set echoed")
        return
    lines = out.splitlines()
    _need(lines[:2] == ["flag necessary fail", "completion"],
          "necessary evidence")
    psi_at = next(i for i, line in enumerate(lines) if line.startswith("psi "))
    completion = parse_graph("\n".join(lines[2:psi_at]))
    psi = tuple(int(x) for x in lines[psi_at].split()[1:])
    _need(counterexample_checks(exp["shape"], h, ns.edges, completion, psi),
          "completion re-verifies")


def _minimal_sets(exp, indir, code, out):
    h = _graph(indir, exp["graph"])
    sets = [parse_necessary_set(b) for b in _blocks(out)]
    _need(sets, "at least one set")
    keys = [(len(s.edges), s.edges) for s in sets]
    _need(keys == sorted(set(keys)), "sorted, distinct")
    used = {tuple(p) for p in exp["used"]}
    smallest = min(len(s.edges) for s in sets)
    winners = sum(len(s.edges) == smallest for s in sets)
    for s in sets:
        _need(all(0 <= u < v < h.n and not h.has_edge(u, v)
                  for u, v in s.edges), "pairs are host non-edges")
        _need(used & set(s.edges), "meets a known completion")
        _need(not any(set(o.edges) < set(s.edges) for o in sets),
              "subset-minimal")
        mincard = len(s.edges) == smallest
        _need(s.flags == {"necessary": True, "submin": True,
                          "mincard": mincard,
                          "unique": mincard and winners == 1}, "flags")
    if exp["contains"] is not None:
        want = tuple(tuple(p) for p in exp["contains"])
        _need(any(s.edges == want for s in sets), "catalog set listed")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _has(t, alpha, u, v):
    return (min(u, v), max(u, v)) in t.g2[alpha]


def _sop2_line(t, line, holds):
    if holds:
        _need(line == "sop2 holds", "sop2 holds")
        return
    parts = line.split()
    _need(parts[:2] == ["sop2", "fails"] and parts[6] == "at", "sop2 line")
    x0, x1, x2, x3 = (int(x) for x in parts[2:6])
    alpha = int(parts[7])
    _need(len({x0, x1, x2, x3}) == 4, "distinct quadruple")
    _need(_has(t, alpha, x0, x1) and _has(t, alpha, x1, x2)
          and _has(t, alpha, x2, x3), "chain present")
    _need(not _has(t, alpha, x0, x2) and not _has(t, alpha, x1, x3),
          "diagonals missing")


def _necessary_line(t, line, shape, holds):
    head = "necessary %s " % shape
    _need(line.startswith(head), "necessary line")
    if holds:
        _need(line == head + "holds", "condition holds")
        return
    parts = line[len(head):].split()
    _need(parts[0] == "fails" and parts[-2] == "at", "fails line")
    kind, param = parse_family(parts[1])
    _need((kind, param) in shape_families(shape, t.n_formulas),
          "family of the shape")
    _, host, ns = family_necessary_set(kind, param)
    x = [int(v) for v in parts[2:-2]]
    alpha = int(parts[-1])
    _need(len(x) == host.n == len(set(x))
          and all(0 <= v < t.n_formulas for v in x), "placement")
    _need(all(_has(t, alpha, x[u], x[v]) for u, v in host.edges()),
          "host edges placed")
    _need(not any(_has(t, alpha, x[u], x[v]) for u, v in ns.edges),
          "no necessary pair placed")


def _trace_check(exp, indir, code, out):
    t = _trace(indir, exp["trace"])
    lines = out.splitlines()
    adequate = not exp["bad_formulas"] and not exp["bad_pairs"]
    want = ["adequate %s" % ("yes" if adequate else "no")]
    want += ["inadequate-formula %d" % b for b in exp["bad_formulas"]]
    want += ["inadequate-pair %d-%d" % tuple(p) for p in exp["bad_pairs"]]
    want.append("multiplicative %s"
                % ("yes" if exp["multiplicative"] else "no"))
    k = len(want)
    _need(lines[:k] == want and len(lines) == k + 3, "report head")
    _sop2_line(t, lines[k], exp["sop2"])
    _necessary_line(t, lines[k + 1], "tree", exp["tree"])
    _necessary_line(t, lines[k + 2], "interval", exp["interval"])


def _trace_condition(exp, indir, code, out):
    t = _trace(indir, exp["trace"])
    lines = out.splitlines()
    _need(len(lines) == 2, "two lines")
    _sop2_line(t, lines[0], exp["sop2"])
    _necessary_line(t, lines[1], exp["shape"], exp["holds"])


def _trace_refine(exp, indir, code, out):
    t = _trace(indir, exp["trace"])
    if code == 1:
        _need(out == "none\n", "none line")
        return
    r = parse_trace(out)
    _need(is_refinement(r, t) and is_multiplicative_trace(r), "refinement")


def _ultragraph(exp, indir, code, out):
    t = _trace(indir, exp["trace"])
    lines = out.splitlines()
    _need(lines[0] == "core " + " ".join(map(str, exp["core"])), "core")
    _need(lines[1] == "vertices %d" % exp["vertices"], "vertex count")
    edges = exp["edges"]
    _need(lines[2] == ("edges symbolic" if edges is None
                       else "edges %d" % edges), "edge count")
    if exp["eta_complete"]:
        _need(lines[3] == "eta complete", "eta complete")
        s = parse_internal_set("\n".join(lines[4:]))
        _need(s.is_clique_in(build(t)), "internal clique")
        _need(all(set(range(t.n_formulas)) <= s.parts[a] for a in s.core),
              "holds the eta image")
        return
    parts = lines[3].split()
    _need(parts[:2] == ["eta", "incomplete"] and parts[4] == "at", "eta line")
    b, c, alpha = int(parts[2]), int(parts[3]), int(parts[5])
    _need(b != c and alpha in exp["core"] and not _has(t, alpha, b, c),
          "missing eta edge")
    _need(lines[4:] == ["none"], "no extension")


def _support(t, d):
    return {a for a in range(t.n_indices)
            if d <= t.g1[a] and all(_has(t, a, u, v)
                                    for u, v in combinations(sorted(d), 2))}


def _properties(exp, indir, code, out):
    t = _trace(indir, exp["trace"])
    lines = out.splitlines()
    _need(lines[:2] == ["monotone yes", "graph_like yes"], "graph-like")
    mult = exp["multiplicative"]
    if mult:
        _need(lines[2:] == ["multiplicative yes", "pairwise_splitting yes"],
              "multiplicative")
        return
    m = lines[2].split()
    _need(m[:2] == ["multiplicative", "no"], "multiplicative no")
    d, e = (set(int(x) for x in s.strip("{}").split(",") if x)
            for s in m[2:4])
    _need(_support(t, d | e) != _support(t, d) & _support(t, e),
          "multiplicative witness")
    p = lines[3].split()
    _need(p[:2] == ["pairwise_splitting", "no"] and len(lines) == 4,
          "splitting no")
    u, v = int(p[2]), int(p[3])
    _need(any(u in t.g1[a] and v in t.g1[a] and not _has(t, a, u, v)
              for a in range(t.n_indices)), "splitting witness")


_CHECKS = {
    "recognize": _recognize,
    "realize": _realize,
    "obstructions": _obstructions,
    "verify": _verify,
    "minimal_sets": _minimal_sets,
    "trace-check": _trace_check,
    "trace-condition": _trace_condition,
    "trace-refine": _trace_refine,
    "ultragraph": _ultragraph,
    "lib": _properties,
}
