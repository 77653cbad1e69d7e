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

A request executes only the package modules it uses: recognize
--shape interval executes graphs, shapes and chordal, and consecutive
too where the maximal cliques, in the order they are found, hold some
vertex's cliques apart; a tree member executes graphs and shapes
alone, and a tree non-member adds chordal, catalog and embeddings (to
place its witness's family graph); realize adds intervals to the
interval set; obstructions executes catalog, embeddings, graphs,
shapes, isomorphism and obstructions; necessary adds necessary,
completions and embeddings to the recognize set of its shape.  The
trace commands' handlers live in tracecli: trace-check and
trace-condition execute tracecli, catalog, covering, embeddings, graphs
and distributions; trace-refine tracecli, covering, distributions,
refinement and, on a pair-adequate trace, graphs; ultragraph tracecli,
covering, distributions and ultragraph.

``run()`` is the process entry of ``python -m ugl.cli`` and of the
``ugl`` script: it returns ``main()``'s exit code after freezing the
garbage collector, so interpreter shutdown does not walk every object
of the request.  ``main()`` leaves the collector alone, for callers that
run it in-process.
"""

import gc
import os
import sys
from types import SimpleNamespace

from . import SHAPES, graphs, necessary as nec, shapes, tracecli
from .errors import CapabilityError, InputError, parse_number, read_text

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
                _check_choice(name, value, SHAPES)
            elif kind == COUNT:
                count = parse_number(value)
                if count is None or count < 0:
                    raise InputError("argument %s: expected a nonnegative "
                                     "integer, got %r" % (name, value))
                value = count
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
                opt += " " + ("{%s}" % ",".join(SHAPES)
                              if kind == SHAPE else kind)
            words.append(opt if opt.split()[0] in required else "[%s]" % opt)
        lines += ["  " + " ".join(words + [positional or ""]).rstrip(),
                  "      " + text]
    return "\n".join(lines) + "\n"


def _cmd_recognize(args, out):
    g = graphs.parse_graph(read_text(args.graphfile))
    w = shapes.recognize(args.shape, g)
    if w is None:
        out.write("member\n")
        return 0
    out.write(shapes.format_witness(w))
    return 1


def _cmd_realize(args, out):
    g = graphs.parse_graph(read_text(args.graphfile))
    got = shapes.realize_intervals(g)
    if isinstance(got, shapes.ObstructionWitness):
        out.write(shapes.format_witness(got))
        return 1
    out.write(shapes.format_interval_model(got))
    return 0


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
    g = graphs.parse_graph(read_text(args.graphfile))
    if args.verify is not None:
        ns = nec.parse_necessary_set(read_text(args.verify))
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


# the trace commands' handlers are tracecli.HANDLERS
_HANDLERS = {
    "recognize": _cmd_recognize,
    "realize": _cmd_realize,
    "obstructions": _cmd_obstructions,
    "necessary": _cmd_necessary,
}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.help:
            code = 0
            sys.stdout.write(usage(args.command))
        else:
            handler = (_HANDLERS.get(args.command)
                       or tracecli.HANDLERS[args.command])
            code = handler(args, sys.stdout)
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
