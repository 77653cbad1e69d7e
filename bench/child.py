"""One benchmark request in a fresh interpreter, optionally traced.

    python child.py [--spans FILE REQUEST] cli <ugl argv...>
    python child.py [--spans FILE REQUEST] lib <tracefile>

``cli`` runs ``ugl.cli.main`` on the arguments, which prints and exits
like ``python -m ugl.cli``.  ``lib`` is a library request that no CLI
command makes: ``extension_distribution`` of the trace followed by
``check_properties``, printed one verdict per line with the first
witness of each failure.

With ``--spans`` the public functions listed in ``TRACED`` are wrapped
in every ``ugl.*`` module that binds them, so calls between modules
(``necessary`` calling its own ``recognize`` binding, say) are seen too.
Each call records a span ``(name, start, end, parent, info, error)``:
``parent`` is the index of the enclosing span or -1, ``info`` is the
outcome count the ratios need, ``error`` the type name of an exception
that left the call.  Spans stay in memory and are written to FILE with
``marshal``, under the request id REQUEST, when the request ends.  The
source of ``ugl`` is not edited.
"""

import marshal
import sys
import traceback
from time import perf_counter

TRACED = {
    "graphs": ("enumerate_graphs", "canonical_form", "automorphisms",
               "find_embedding", "enumerate_maximal_cliques", "parse_graph"),
    "shapes": ("recognize", "find_chordless_cycle", "find_asteroidal_triple",
               "realize_intervals", "minimal_obstructions"),
    "necessary": ("necessity_counterexample", "necessity_constraints",
                  "minimal_necessary_sets", "verify_claims", "forced_edges"),
    "distributions": ("check_necessary_conditions", "check_sop2_condition",
                      "find_multiplicative_refinement",
                      "extension_distribution", "check_properties",
                      "adequacy_report", "parse_trace"),
    "ultragraph": ("build", "eta_clique_witness", "eta_extension"),
    "cli": ("main",),
}

# Spans of these functions are named per shape: function -> position of
# the shape argument.
BY_SHAPE = {"shapes.recognize": 0,
            "distributions.check_necessary_conditions": 1}


def _info(name, result):
    if name == "graphs.enumerate_graphs":
        return len(result)
    if name in ("shapes.recognize", "necessary.necessity_counterexample",
                "distributions.find_multiplicative_refinement"):
        return int(result is not None)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        shape_at = BY_SHAPE.get(name)

        def traced(*args, **kwargs):
            label = name if shape_at is None else name + "." + args[shape_at]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                spans[idx] = (label, start, perf_counter(), parent, 0,
                              type(err).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (label, start, perf_counter(), parent,
                          _info(name, result), None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import ugl.cli  # noqa: F401  (loads every module of the package)
        modules = {m: sys.modules["ugl." + m] for m in TRACED}
        for home, names in TRACED.items():
            for fname in names:
                orig = getattr(modules[home], fname)
                wrapped = self.wrap("%s.%s" % (home, fname), orig)
                for mod in modules.values():
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapped)


def _fmt_set(d):
    return "{" + ",".join(str(x) for x in sorted(d)) + "}"


def properties(path):
    from ugl import distributions as dist
    with open(path, encoding="utf-8") as fh:
        t = dist.parse_trace(fh.read())
    rep = dist.check_properties(dist.extension_distribution(t))
    wit = rep.witnesses
    for flag in ("monotone", "graph_like", "multiplicative",
                 "pairwise_splitting"):
        line = flag + (" yes" if getattr(rep, flag) else " no")
        got = wit.get(flag)
        if flag in ("monotone", "multiplicative") and got is not None:
            line += " %s %s" % (_fmt_set(got[0]), _fmt_set(got[1]))
        elif flag == "graph_like" and got is not None:
            line += " " + _fmt_set(got)
        elif flag == "pairwise_splitting" and got is not None:
            line += " %d %d" % got
        print(line)
    return 0


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, request, argv = argv[1], argv[2], argv[3:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer() if spans_path else None
    start = perf_counter()
    if mode == "cli":
        import ugl.cli
    else:
        import ugl.distributions  # noqa: F401
    import_s = perf_counter() - start
    if tracer:
        tracer.install()
    code = 1
    try:
        if mode == "cli":
            code = ugl.cli.main(rest)
        else:
            code = properties(rest[0])
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        if tracer:
            with open(spans_path, "wb") as fh:
                marshal.dump({"request": request, "import_s": import_s,
                              "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
