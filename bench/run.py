"""ugl benchmark: CLI requests timed end to end, per-module time traced.

    python3 bench/run.py --workload catalog|recognize|traces|all \\
        --seed N --seconds S --trace 0|1

A closed loop with one client sends the requests of one round (see
``gen.py``), one at a time, each in a fresh interpreter
(``python -m ugl.cli <argv>``, or ``child.py lib`` for library
requests).  Whole rounds repeat until ``--seconds`` have passed, so
every run measures the same mix.  Every answer is checked (``check.py``).
Run from anywhere; the package is taken from ``src/`` next to this
directory and nothing is installed.

Hygiene: each request starts in a fresh temporary working directory,
which is also its ``HOME``, under ``.bench_run/`` in the checkout, so an
on-disk cache shows up as cost; ``UGL_MAX_N`` is cleared so a stray cap
cannot shrink the catalog.  No ``--jobs`` flag is sent.  Requests are
started by ``spawner.py``, a small process of its own, so that the peak
RSS read for a request is the request's.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to start, import
  ``ugl.cli`` and exit (one such spawn before every fourth request);
* ``latency_p50_s``: median time of a request, spawn to exit;
* ``latency_p90_s``: the highest percentile, at most p90, with at least
  ten requests beyond it (p90 once a run has 100 requests; every round
  has at least 100);
* ``throughput_rps``: requests completed per second of wall time (the
  set-up spawns excluded);
* ``success_ratio``: requests answered correctly over attempted
  (``1 - fail_ratio``; a failure is a wrong verdict, an uncaught
  exception, a certificate that does not re-verify, exit 2 or 3 on valid
  input, or a timeout);
* ``peak_rss_mb``: the highest peak RSS (MiB) of any request process.

``--trace 1`` runs every request twice, plain and traced through
``child.py --spans``, checks both answers and that they agree, and
prints the per-layer metrics: calls and self time (span time minus
traced child spans) per public function, outcome ratios, exceptions
leaving each module, and the traced-over-plain wall time.  Per-layer
numbers are per round.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict, namedtuple
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# One set-up spawn every few requests, so that the set-up median and the
# request latencies sample the same stretch of time.
SETUP_EVERY = 4
REQUEST_TIMEOUT_S = 30
# No request starts after this, so that a run ends within 180 s even when
# every request hangs: at most a set-up spawn and a traced pair follow.
STOP_AFTER_S = 80

MODULES = ("cli", "graphs", "shapes", "necessary", "distributions",
           "ultragraph")

# Per-layer metrics in print order.  "<function>.calls" and
# "<function>.self_s" come straight from the span totals; the ratios,
# error counts and overhead are derived below.
PER_LAYER = (
    "graphs.enumerate_graphs.calls",
    "graphs.enumerate_graphs.self_s",
    "graphs.enumerate_graphs.classes_per_canonical_call",
    "graphs.canonical_form.calls",
    "graphs.canonical_form.self_s",
    "graphs.automorphisms.calls",
    "graphs.automorphisms.self_s",
    "graphs.find_embedding.calls",
    "graphs.find_embedding.self_s",
    "graphs.enumerate_maximal_cliques.calls",
    "graphs.enumerate_maximal_cliques.self_s",
    "graphs.parse_graph.self_s",
    "shapes.recognize.tree.calls",
    "shapes.recognize.tree.self_s",
    "shapes.recognize.interval.calls",
    "shapes.recognize.interval.self_s",
    "shapes.recognize.witness_ratio",
    "shapes.find_chordless_cycle.calls",
    "shapes.find_chordless_cycle.self_s",
    "shapes.find_asteroidal_triple.calls",
    "shapes.find_asteroidal_triple.self_s",
    "shapes.realize_intervals.calls",
    "shapes.realize_intervals.self_s",
    "shapes.minimal_obstructions.self_s",
    "necessary.necessity_counterexample.calls",
    "necessary.necessity_counterexample.self_s",
    "necessary.necessity_counterexample.found_ratio",
    "necessary.necessity_constraints.calls",
    "necessary.necessity_constraints.self_s",
    "necessary.minimal_necessary_sets.self_s",
    "necessary.verify_claims.self_s",
    "necessary.forced_edges.self_s",
    "distributions.check_necessary_conditions.tree.self_s",
    "distributions.check_necessary_conditions.interval.self_s",
    "distributions.check_sop2_condition.calls",
    "distributions.check_sop2_condition.self_s",
    "distributions.find_multiplicative_refinement.calls",
    "distributions.find_multiplicative_refinement.self_s",
    "distributions.find_multiplicative_refinement.found_ratio",
    "distributions.extension_distribution.self_s",
    "distributions.check_properties.self_s",
    "distributions.adequacy_report.self_s",
    "distributions.parse_trace.self_s",
    "ultragraph.build.calls",
    "ultragraph.build.self_s",
    "ultragraph.eta_clique_witness.self_s",
    "ultragraph.eta_extension.self_s",
    "cli.import_s",
    "cli.main.total_s",
) + tuple("%s.errors" % m for m in MODULES) + ("trace_overhead_ratio",)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".errors")):
        return "count"
    return "ratio"


# ratio metric -> (numerator, denominator) keys of the span summary
RATIOS = {
    "graphs.enumerate_graphs.classes_per_canonical_call":
        ("classes", "enum_canonical_calls"),
    "shapes.recognize.witness_ratio": ("recognize_witness", "recognize_calls"),
    "necessary.necessity_counterexample.found_ratio":
        ("cex_found", "necessary.necessity_counterexample.calls"),
    "distributions.find_multiplicative_refinement.found_ratio":
        ("refinement_found",
         "distributions.find_multiplicative_refinement.calls"),
}


# One finished process: wall time from spawn to exit, exit code, output,
# whether the time limit killed it, peak RSS in MiB, and the spans it
# wrote (None unless traced).
Outcome = namedtuple("Outcome", "latency code out err timed_out rss_mb spans")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Client:
    """The closed-loop client: one ``spawner.py`` process that starts each
    request in a fresh directory, which is also its HOME, and times it."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("UGL_MAX_N", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        self.proc.stdout.close()

    def spawn(self, cmd, timeout=REQUEST_TIMEOUT_S):
        cwd = Path(tempfile.mkdtemp(prefix="req-", dir=self.run_dir))
        job = {"cmd": cmd, "cwd": str(cwd), "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        out = (cwd / "stdout").read_text(encoding="utf-8", errors="replace")
        err = (cwd / "stderr").read_text(encoding="utf-8", errors="replace")
        spans = None
        if (cwd / "spans.bin").exists():
            with open(cwd / "spans.bin", "rb") as fh:
                spans = marshal.load(fh)
        shutil.rmtree(cwd)
        return Outcome(reply["latency"], reply["code"], out, err,
                       reply["timed_out"], reply["maxrss_kib"] / 1024.0,
                       spans)


def command(req, indir, spans=False):
    argv = [str(indir / a[1:]) if a.startswith("@") else a
            for a in req["argv"]]
    if req["kind"] == "lib":
        argv = argv[1:]
    if spans:
        return [sys.executable, str(BENCH / "child.py"), "--spans",
                "spans.bin", req["id"], req["kind"]] + argv
    if req["kind"] == "lib":
        return [sys.executable, str(BENCH / "child.py"), "lib"] + argv
    return [sys.executable, "-m", "ugl.cli"] + argv


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def summarize_spans(dump, kind, totals):
    """Add one request's spans to the per-layer totals."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    under_enum = [False] * len(spans)
    for i, (name, start, end, parent, info, error) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_enum[i] = (under_enum[parent]
                             or spans[parent][0] == "graphs.enumerate_graphs")
    for i, (name, start, end, parent, info, error) in enumerate(spans):
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += (end - start) - child_time[i]
        if name == "cli.main":
            totals["cli.main.total_s"] += end - start
        elif name == "graphs.enumerate_graphs":
            totals["classes"] += info
        elif name == "graphs.canonical_form" and under_enum[i]:
            totals["enum_canonical_calls"] += 1
        elif name.startswith("shapes.recognize."):
            totals["recognize_calls"] += 1
            totals["recognize_witness"] += info
        elif name == "necessary.necessity_counterexample":
            totals["cex_found"] += info
        elif name == "distributions.find_multiplicative_refinement":
            totals["refinement_found"] += info
        if error is not None:
            module = name.split(".")[0]
            if parent < 0 or spans[parent][0].split(".")[0] != module:
                totals["%s.errors" % module] += 1
                totals["errors:%s.%s" % (module, error)] += 1
    if kind == "cli":
        totals["cli.import_s"] += dump["import_s"]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def setup_spawn(client):
    """Time one fresh interpreter that imports ugl.cli and exits."""
    got = client.spawn([sys.executable, "-c", "import ugl.cli"])
    if got.code != 0:
        raise SystemExit("import ugl.cli failed:\n" + got.err)
    return got.latency


def run_workload(workload, seed, seconds, trace, run_dir, client):
    import check
    import gen
    indir = run_dir / ("inputs-" + workload)
    requests = gen.write_inputs(workload, seed, indir)
    setup_spawn(client)  # compiles the package once, not timed
    setups, plain, traced = [], [], []
    totals = defaultdict(float)
    rounds = 0
    start = perf_counter()
    stopped = False
    while not stopped and (rounds == 0 or perf_counter() - start < seconds):
        for i, req in enumerate(requests):
            if perf_counter() - start > STOP_AFTER_S:
                stopped = True
                break
            if i % SETUP_EVERY == 0:
                setups.append(setup_spawn(client))
            # traced runs alternate which of the pair goes first
            order = ((False,) if not trace else
                     (False, True) if i % 2 == 0 else (True, False))
            for with_spans in order:
                got = client.spawn(command(req, indir, with_spans))
                (traced if with_spans else plain).append((req, got))
                if got.spans is not None:
                    summarize_spans(got.spans, req["kind"], totals)
        else:
            rounds += 1
    wall = perf_counter() - start - sum(setups)

    judged = [(req, check.judge(req, indir, got.code, got.out, got.err,
                                got.timed_out))
              for req, got in plain + traced]
    plain_ok = sum(v == "ok" for _, v in judged[:len(plain)])
    judged += [(req, "trace-mismatch")
               for (req, a), (_, b) in zip(plain, traced)
               if (a.code, a.out) != (b.code, b.out)]
    verdicts = Counter(v for _, v in judged)
    failures = sorted({(req["id"], v) for req, v in judged if v != "ok"})
    attempted = len(plain) + len(traced)
    failed = attempted - verdicts["ok"] + verdicts["trace-mismatch"]
    lat = sorted(got.latency for _, got in plain)
    q, p_hi = high_percentile(lat)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p_hi, "s"),
        "throughput_rps": (len(plain) / wall, "1/s"),
        "success_ratio": (plain_ok / len(plain), "ratio"),
        "peak_rss_mb": (max(got.rss_mb for _, got in plain), "MiB"),
    }
    info = {
        "workload": workload, "seed": seed, "rounds": max(rounds, 1),
        "requests": len(plain), "round_size": len(requests),
        "latency_high_percentile": q, "wall_s": round(wall, 3),
        "fail_ratio": failed / attempted, "verdicts": dict(verdicts),
        "failures": failures,
    }
    per_layer = {}
    if trace:
        n_rounds = max(rounds, 1)
        for name in PER_LAYER:
            if name in RATIOS:
                num, den = RATIOS[name]
                value = totals[num] / totals[den] if totals[den] else 0.0
            elif name == "trace_overhead_ratio":
                value = (sum(got.latency for _, got in traced)
                         / sum(got.latency for _, got in plain))
            else:
                value = totals[name] / n_rounds
            per_layer[name] = (value, unit_of(name))
        info["errors_by_type"] = {k[7:]: int(v) for k, v in totals.items()
                                  if k.startswith("errors:")}
    correct = verdicts["wrong"] == 0 and verdicts["trace-mismatch"] == 0
    return correct, attempted, failed, end_to_end, per_layer, info


def high_percentile(sorted_values):
    """(q, value): the nearest-rank q-th percentile for the highest whole
    q <= 90 that leaves at least ten samples above it."""
    n = len(sorted_values)
    for q in range(90, 0, -1):
        rank = -(-q * n // 100)  # ceil(q * n / 100)
        if n - rank >= 10:
            return q, sorted_values[rank - 1]
    return 50, statistics.median(sorted_values)


def environment():
    """Core count, Python version, and the revision of the measured code:
    the git commit when the checkout has one, and always a digest of the
    package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ugl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_revision": git_revision(), "src_sha256": digest.hexdigest()}


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "recognize", "traces", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ugl" / "cli.py").is_file():
        print("bench: no ugl source at %s" % (SRC / "ugl"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = (("catalog", "recognize", "traces") if args.workload == "all"
                 else (args.workload,))
    print("env " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    client = Client(run_dir)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for w in workloads:
            ok, att, fail, e2e, layer, info = run_workload(
                w, args.seed, args.seconds, bool(args.trace), run_dir, client)
            correct &= ok
            attempted += att
            failed += fail
            print("run " + json.dumps(info, sort_keys=True))
            chosen = layer if args.trace else e2e
            for name, (value, unit) in chosen.items():
                print("%-10s %-58s %14.6f %s" % (w, name, value, unit))
                key = name if len(workloads) == 1 else "%s.%s" % (w, name)
                metrics[key] = {"value": value, "unit": unit}
    finally:
        client.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
