"""The trace subcommands of the ugl command: trace-check, trace-refine,
trace-condition and ultragraph.

``cli`` parses the argv and dispatches here through ``HANDLERS``, so
only a trace command compiles this module.
Each handler takes the parsed argv and the output stream and returns
the exit code, as cli's own handlers do.
"""

from . import SHAPES, distributions as dist, ultragraph as ug
from .errors import InputError, read_text


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
    t = dist.parse_trace(read_text(args.tracefile))
    # every condition is decided before any output, so a capability
    # error leaves stdout empty
    sop2 = dist.check_sop2_condition(t)
    necessary = [(shape, dist.check_necessary_conditions(t, shape))
                 for shape in SHAPES]
    bad_b, bad_p = dist.adequacy_report(t)
    ok = not bad_b and not bad_p
    out.write("adequate %s\n" % ("yes" if ok else "no"))
    out.writelines("inadequate-formula %d\n" % b for b in bad_b)
    out.writelines("inadequate-pair %d-%d\n" % p for p in bad_p)
    out.write("multiplicative %s\n"
              % ("yes" if dist.is_multiplicative_trace(t) else "no"))
    if not _report_sop2(sop2, out):
        ok = False
    for shape, got in necessary:
        if not _report_necessary(shape, got, out):
            ok = False
    return 0 if ok else 1


def _cmd_trace_refine(args, out):
    t = dist.parse_trace(read_text(args.tracefile))
    r = dist.find_multiplicative_refinement(t)
    if r is None:
        out.write("none\n")
        return 1
    out.write(dist.format_trace(r))
    return 0


def _cmd_trace_condition(args, out):
    if not args.sop2 and args.shape is None:
        raise InputError("trace-condition needs --sop2 or --shape")
    t = dist.parse_trace(read_text(args.tracefile))
    if args.shape is not None:
        necessary = dist.check_necessary_conditions(t, args.shape)
    ok = True
    if args.sop2:
        ok = _report_sop2(dist.check_sop2_condition(t), out) and ok
    if args.shape is not None:
        ok = _report_necessary(args.shape, necessary, out) and ok
    return 0 if ok else 1


def _cmd_ultragraph(args, out):
    t = dist.parse_trace(read_text(args.tracefile))
    # everything is decided before any output, as in trace-check; the
    # witness search stops at the first gap, so the eta image is scanned
    # in full at most once
    rp = ug.build(t)
    edges = "%d" % rp.edge_count() if rp.size <= 1000 else "symbolic"
    s = ug.eta_extension(t) if args.extend_eta else None
    witness = ug.eta_clique_witness(t) if s is None else None
    out.write("core " + " ".join(str(a) for a in rp.core) + "\n")
    out.write("vertices %s\nedges %s\n" % (ug.format_count(rp.size), edges))
    out.write("eta complete\n" if witness is None
              else "eta incomplete %d %d at %d\n" % witness)
    if args.extend_eta:
        out.write("none\n" if s is None else ug.format_internal_set(s))
    return 0 if witness is None else 1


HANDLERS = {
    "trace-check": _cmd_trace_check,
    "trace-refine": _cmd_trace_refine,
    "trace-condition": _cmd_trace_condition,
    "ultragraph": _cmd_ultragraph,
}
