"""Command line front end.

Subcommands cover recognition with certificates, interval realization,
obstruction enumeration, necessary-set computation and verification,
and trace analysis (property report, multiplicative refinement, the
chain and catalog conditions, reduced products).  Output is a single
machine-parsable block on stdout; diagnostics go to stderr.

Exit codes: 0 affirmative, 1 negative verdict with a witness, 2 input
error, 3 capability bound exceeded, 4 internal error (a fault of the
program, never a verdict), 141 stdout closed by its reader (128 +
SIGPIPE; nothing is written to stderr).

Argv is read from one table, ``COMMANDS``: per subcommand its options
with their value kinds, the required ones and its positional.  A
malformed argv prints ``error: ...`` naming the offending token on
stderr and exits 2 with nothing on stdout; ``-h``/``--help`` prints the
usage built from the same table on stdout and exits 0.  No argparse.

Importing this module registers the package modules in sys.modules
without executing them; each executes when a subcommand first uses it,
so a run compiles only what it needs.  The cold halves of graphs,
shapes and distributions live in modules of their own; the names that
the bench times in the old homes are served there on first use.
recognize executes catalog, graphs and shapes; realize adds intervals;
obstructions adds isomorphism and obstructions; necessary adds
necessary; trace-check and trace-condition execute catalog, graphs and
distributions; trace-refine executes graphs, distributions and
refinement; ultragraph executes distributions and ultragraph, and no
graph code.

``run()`` is the process entry of ``python -m ugl.cli`` and of the
``ugl`` script: it returns ``main()``'s exit code after freezing the
garbage collector, so interpreter shutdown does not walk every object
of the request.  ``main()`` leaves the collector alone, for callers that
run it in-process.
"""

import gc
import importlib.util
import os
import sys
from types import SimpleNamespace

from .errors import CapabilityError, InputError


def _lazy(name):
    """Register ugl.<name> so that it executes on first attribute use.

    A module already in sys.modules is returned as it is, so no class
    is ever defined twice in one process."""
    full = __package__ + "." + name
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


catalog = _lazy("catalog")
graphs = _lazy("graphs")
shapes = _lazy("shapes")
nec = _lazy("necessary")
dist = _lazy("distributions")
ug = _lazy("ultragraph")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))


# Value kinds of the options: a store-true flag, a shape name, or a
# nonnegative integer; any other kind is the metavar of a file path.
FLAG, SHAPE, COUNT = None, "SHAPE", "N"

# Per subcommand: its help line, its options with their value kinds, the
# options it requires, and its one positional (obstructions has none).
COMMANDS = {
    "recognize": ("shape membership with certificate",
                  {"--shape": SHAPE}, ("--shape",), "graphfile"),
    "realize": ("interval model or obstruction",
                {"--distinct-endpoints": FLAG}, (), "graphfile"),
    "obstructions": ("minimal non-members up to a size",
                     {"--shape": SHAPE, "--max-n": COUNT},
                     ("--shape", "--max-n"), None),
    "necessary": ("necessary edge sets of a host",
                  {"--shape": SHAPE, "--verify": "SETFILE",
                   "--all-minimal": FLAG}, ("--shape",), "graphfile"),
    "trace-check": ("trace property report", {}, (), "tracefile"),
    "trace-refine": ("multiplicative refinement search", {}, (), "tracefile"),
    "trace-condition": ("single trace conditions",
                        {"--sop2": FLAG, "--shape": SHAPE}, (), "tracefile"),
    "ultragraph": ("reduced product report",
                   {"--extend-eta": FLAG}, (), "tracefile"),
}
HELP = ("-h", "--help")


def parse_args(argv):
    """The namespace of one argv: ``command``, ``help``, the positional,
    and each option with its dashes as underscores (False or None when
    absent).  ``-h`` or ``--help`` sets ``help`` and ends the parse.

    Options come in any order, as ``--opt value`` or ``--opt=value``, and
    are matched whole.  Malformed argv raises InputError naming the
    offending token."""
    if not argv:
        raise InputError("the following arguments are required: command")
    command = argv[0]
    if command in HELP:
        return SimpleNamespace(command=None, help=True)
    _check_choice("command", command, COMMANDS)
    _, options, required, positional = COMMANDS[command]
    got = {opt: None if kind else False for opt, kind in options.items()}
    extra = []
    tokens = iter(argv[1:])
    for tok in tokens:
        name, eq, value = tok.partition("=")
        kind = options.get(name)
        if tok in HELP:
            return SimpleNamespace(command=command, help=True)
        if tok[:1] != "-" and positional and positional not in got:
            got[positional] = tok
        elif name not in options or eq and kind is FLAG:
            extra.append(tok)
        elif kind is FLAG:
            got[name] = True
        else:
            if not eq:
                value = next(tokens, "-")
                if value[:1] == "-" and not value[1:].isdecimal():
                    raise InputError("argument %s: expected one argument" % name)
            if kind == SHAPE:
                _check_choice(name, value, catalog.SHAPES)
            elif kind == COUNT:
                if not value.isdecimal():
                    raise InputError("argument %s: expected a nonnegative "
                                     "integer, got %r" % (name, value))
                value = int(value)
            got[name] = value
    if extra:
        raise InputError("unrecognized arguments: %s" % " ".join(extra))
    missing = [a for a in required + (positional,) if a and got.get(a) is None]
    if missing:
        raise InputError("the following arguments are required: %s"
                         % ", ".join(missing))
    return SimpleNamespace(command=command, help=False, **{
        key.lstrip("-").replace("-", "_"): value for key, value in got.items()})


def _check_choice(name, value, choices):
    if value not in choices:
        raise InputError("argument %s: invalid choice: %r (choose from %s)"
                         % (name, value, ", ".join(map(repr, choices))))


def usage(command=None):
    """The usage lines of every subcommand, or of one, from COMMANDS."""
    lines = ["usage:"]
    for name in [command] if command else COMMANDS:
        text, options, required, positional = COMMANDS[name]
        words = ["ugl", name]
        for opt, kind in options.items():
            if kind is not FLAG:
                opt += " " + ("{%s}" % ",".join(catalog.SHAPES)
                              if kind == SHAPE else kind)
            words.append(opt if opt.split()[0] in required else "[%s]" % opt)
        lines += ["  " + " ".join(words + [positional or ""]).rstrip(),
                  "      " + text]
    return "\n".join(lines) + "\n"


def _cmd_recognize(args, out):
    g = graphs.parse_graph(_read(args.graphfile))
    w = shapes.recognize(args.shape, g)
    if w is None:
        out.write("member\n")
        return 0
    out.write(shapes.format_witness(w))
    return 1


def _cmd_realize(args, out):
    g = graphs.parse_graph(_read(args.graphfile))
    got = shapes.realize_intervals(g, args.distinct_endpoints)
    if isinstance(got, shapes.IntervalModel):
        out.write(shapes.format_interval_model(got))
        return 0
    out.write(shapes.format_witness(got))
    return 1


def _cmd_obstructions(args, out):
    reps = shapes.minimal_obstructions(args.shape, args.max_n)
    for i, g in enumerate(reps):
        if i:
            out.write("\n")
        out.write(graphs.format_graph(g))
    return 0


def _cmd_necessary(args, out):
    if args.verify is not None and args.all_minimal:
        raise InputError("argument --all-minimal: not allowed with argument "
                         "--verify")
    g = graphs.parse_graph(_read(args.graphfile))
    if args.verify is not None:
        ns = nec.parse_necessary_set(_read(args.verify))
        ok, verdicts, evidence = nec.verify_claims(args.shape, g, ns)
        if ok:
            out.write(nec.format_necessary_set(ns))
            return 0
        for flag in ("necessary", "submin", "mincard", "unique"):
            if verdicts.get(flag) is False:
                out.write("flag %s fail\n" % flag)
                _write_evidence(out, evidence.get(flag))
        return 1
    sets = nec.minimal_necessary_sets(args.shape, g)
    if not sets:
        out.write("none\n")
        return 1
    for i, ns in enumerate(sets):
        if i:
            out.write("\n")
        out.write(nec.format_necessary_set(ns))
    return 0


def _write_evidence(out, ev):
    if ev is None:
        return
    tag = ev[0]
    if tag == "completion":
        _, g, psi = ev
        out.write("completion\n")
        out.write(graphs.format_graph(g))
        out.write("psi " + " ".join(str(v) for v in psi) + "\n")
    elif tag == "redundant":
        out.write("redundant %d-%d\n" % ev[1])
    elif tag == "smaller":
        out.write("smaller " + " ".join("%d-%d" % p for p in ev[1]) + "\n")


def _report_sop2(got, out):
    if got is None:
        out.write("sop2 holds\n")
        return True
    quad, alpha = got
    out.write("sop2 fails %s at %d\n"
              % (" ".join(str(x) for x in quad), alpha))
    return False


def _report_necessary(shape, got, out):
    if got is None:
        out.write("necessary %s holds\n" % shape)
        return True
    token, placement, alpha = got
    out.write("necessary %s fails %s %s at %d\n"
              % (shape, token, " ".join(str(x) for x in placement), alpha))
    return False


def _cmd_trace_check(args, out):
    t = dist.parse_trace(_read(args.tracefile))
    # every condition is decided before any output, so a capability
    # error leaves stdout empty
    sop2 = dist.check_sop2_condition(t)
    necessary = [(shape, dist.check_necessary_conditions(t, shape))
                 for shape in catalog.SHAPES]
    bad_b, bad_p = dist.adequacy_report(t)
    ok = not bad_b and not bad_p
    out.write("adequate %s\n" % ("yes" if ok else "no"))
    for b in bad_b:
        out.write("inadequate-formula %d\n" % b)
    for p in bad_p:
        out.write("inadequate-pair %d-%d\n" % p)
    out.write("multiplicative %s\n"
              % ("yes" if dist.is_multiplicative_trace(t) else "no"))
    if not _report_sop2(sop2, out):
        ok = False
    for shape, got in necessary:
        if not _report_necessary(shape, got, out):
            ok = False
    return 0 if ok else 1


def _cmd_trace_refine(args, out):
    t = dist.parse_trace(_read(args.tracefile))
    r = dist.find_multiplicative_refinement(t)
    if r is None:
        out.write("none\n")
        return 1
    out.write(dist.format_trace(r))
    return 0


def _cmd_trace_condition(args, out):
    if not args.sop2 and args.shape is None:
        raise InputError("trace-condition needs --sop2 or --shape")
    t = dist.parse_trace(_read(args.tracefile))
    if args.shape is not None:
        necessary = dist.check_necessary_conditions(t, args.shape)
    ok = True
    if args.sop2:
        ok = _report_sop2(dist.check_sop2_condition(t), out) and ok
    if args.shape is not None:
        ok = _report_necessary(args.shape, necessary, out) and ok
    return 0 if ok else 1


def _cmd_ultragraph(args, out):
    t = dist.parse_trace(_read(args.tracefile))
    rp = ug.build(t)
    ug.eta(t)
    out.write("core " + " ".join(str(a) for a in rp.core) + "\n")
    out.write("vertices %d\n" % rp.size)
    if rp.size <= 1000:
        out.write("edges %d\n" % rp.edge_count())
    else:
        out.write("edges symbolic\n")
    witness = ug.eta_clique_witness(t)
    if witness is None:
        out.write("eta complete\n")
        complete = True
    else:
        out.write("eta incomplete %d %d at %d\n" % witness)
        complete = False
    if args.extend_eta:
        s = ug.eta_extension(t)
        if s is None:
            out.write("none\n")
            return 1
        out.write(ug.format_internal_set(s))
        return 0
    return 0 if complete else 1


_HANDLERS = {
    "recognize": _cmd_recognize,
    "realize": _cmd_realize,
    "obstructions": _cmd_obstructions,
    "necessary": _cmd_necessary,
    "trace-check": _cmd_trace_check,
    "trace-refine": _cmd_trace_refine,
    "trace-condition": _cmd_trace_condition,
    "ultragraph": _cmd_ultragraph,
}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.help:
            code = 0
            sys.stdout.write(usage(args.command))
        else:
            code = _HANDLERS[args.command](args, sys.stdout)
        # a reader that has gone away shows here, not in the exit flush
        sys.stdout.flush()
        return code
    except CapabilityError as err:
        print("capability: %s" % err, file=sys.stderr)
        return 3
    except InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the unread rest goes to /dev/null, so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as err:
        sys.excepthook(type(err), err, err.__traceback__)
        print("internal: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 4


def run():
    code = main()
    # The collections at interpreter shutdown walk every tracked object only to
    # free memory the OS reclaims at exit; frozen objects are left out of them.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
