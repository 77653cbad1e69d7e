"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from ugl.graphs import parse_graph  # noqa: E402
from ugl.shapes import (INTERVAL, format_interval_model,  # noqa: E402
                        format_witness, realize_intervals, recognize)

C4 = gen.format_graph(4, gen.cycle_edges(4))
P5 = gen.format_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                ra = gen.write_inputs(workload, 7, Path(a))
                rb = gen.write_inputs(workload, 7, Path(b))
                self.assertEqual(ra, rb)
                self.assertEqual(_files(Path(a)), _files(Path(b)))
                self.assertGreaterEqual(len(ra), 100, workload)

    def test_other_seed_gives_other_inputs(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            gen.write_inputs("recognize", 1, Path(a))
            gen.write_inputs("recognize", 2, Path(b))
            self.assertNotEqual(_files(Path(a)), _files(Path(b)))


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        (self.dir / "c4.graph").write_text(C4)
        (self.dir / "p5.graph").write_text(P5)

    def tearDown(self):
        self.tmp.cleanup()

    def judge(self, check_name, graph, want_exit, code, out, err=""):
        req = {"id": "t", "kind": "cli", "argv": [],
               "expect": {"check": check_name, "graph": graph,
                          "shape": INTERVAL, "exit": want_exit}}
        return check.judge(req, self.dir, code, out, err)

    def test_witness_is_reverified(self):
        w = format_witness(recognize(INTERVAL, parse_graph(C4)))
        self.assertEqual(self.judge("recognize", "c4.graph", 1, 1, w), "ok")
        vertices = w.split()[2:]
        tampered = "w irreducible-cycle %s\n" % " ".join(
            [vertices[0], vertices[2], vertices[1], vertices[3]])
        self.assertEqual(
            self.judge("recognize", "c4.graph", 1, 1, tampered), "wrong")

    def test_interval_model_is_reverified(self):
        m = format_interval_model(realize_intervals(parse_graph(P5)))
        self.assertEqual(self.judge("realize", "p5.graph", 0, 0, m), "ok")
        first, rest = m.split("\n", 1)
        v, a, b = first.split()[1:]
        tampered = "i %s %s %d\n%s" % (v, a, int(b) + 100, rest)
        self.assertEqual(
            self.judge("realize", "p5.graph", 0, 0, tampered), "wrong")

    def test_wrong_exit_code_is_rejected(self):
        self.assertEqual(
            self.judge("recognize", "p5.graph", 0, 1, "member\n"), "wrong")
        w = format_witness(recognize(INTERVAL, parse_graph(C4)))
        self.assertEqual(self.judge("recognize", "c4.graph", 1, 0, w), "wrong")

    def test_crashes_and_refusals_are_failures(self):
        trace = "Traceback (most recent call last):\nRecursionError\n"
        self.assertEqual(
            self.judge("recognize", "p5.graph", 0, 1, "", trace), "exception")
        self.assertEqual(
            self.judge("recognize", "p5.graph", 0, 3, "", "capability"),
            "refused")


class TracedRunTest(unittest.TestCase):
    def test_traced_request_matches_plain_request(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            indir = root / "in"
            requests = gen.write_inputs("traces", 3, indir)
            picked = [r for r in requests if r["id"].startswith("t00-")]
            self.assertTrue(any(r["kind"] == "lib" for r in picked))
            client = run.Client(root)
            try:
                for req in picked:
                    plain = client.spawn(run.command(req, indir))
                    traced = client.spawn(run.command(req, indir, spans=True))
                    self.assertEqual((plain.code, plain.out),
                                     (traced.code, traced.out), req["id"])
                    self.assertEqual(check.judge(req, indir, *plain[1:5]),
                                     "ok")
                    self.assertEqual(traced.spans["request"], req["id"])
                    names = {s[0] for s in traced.spans["spans"]}
                    if req["kind"] == "cli":
                        self.assertIn("cli.main", names)
                    self.assertIn("distributions.parse_trace", names)
            finally:
                client.close()


class ClientTest(unittest.TestCase):
    def test_hung_request_is_killed_and_counted_as_timeout(self):
        with tempfile.TemporaryDirectory() as tmp:
            client = run.Client(Path(tmp))
            try:
                got = client.spawn(
                    [sys.executable, "-c", "import time; time.sleep(30)"],
                    timeout=0.5)
            finally:
                client.close()
        self.assertTrue(got.timed_out)
        self.assertLess(got.latency, 5)
        req = {"id": "t", "kind": "cli", "argv": [], "expect": {"exit": 0}}
        self.assertEqual(check.judge(req, Path(tmp), *got[1:5]), "timeout")


if __name__ == "__main__":
    unittest.main()
