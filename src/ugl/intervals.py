"""Interval models: realization of interval graphs and the model text
format.

A member's model is read off the clique order that recognition already
built (``shapes._interval_certificate``), with endpoints exactly
0..2n-1, so no model needs an endpoint mode; a non-member gets the
recognizer's witness.  Only ``realize`` runs this module; ``shapes``
serves its names.
"""

from bisect import bisect_right

from . import _Value, _bits, _freeze
from .errors import InputError, content_lines, parse_number
from .shapes import _interval_certificate


class IntervalModel(_Value):
    """Open intervals (a_v, b_v) with integer endpoints, one per vertex."""

    __slots__ = ("n", "intervals")

    def __init__(self, n, intervals):
        intervals = tuple((a, b) for a, b in intervals)
        if len(intervals) != n:
            raise InputError("expected %d intervals, got %d" % (n, len(intervals)))
        for a, b in intervals:
            for e in (a, b):
                if not isinstance(e, int):
                    raise InputError("interval endpoint %r is not an integer" % (e,))
            if a >= b:
                raise InputError("empty interval (%d, %d)" % (a, b))
        _freeze(self, n, intervals)

    def __repr__(self):
        return "IntervalModel(%d, %r)" % (self.n, self.intervals)

    def checks(self, g):
        """True iff intersection of the open intervals matches adjacency:
        the meeting pairs number the edges and include them.  Sorted by
        left end, v meets each earlier interval but those with b_u <= a_v,
        which all start earlier, so one bisection per vertex counts them.
        O(n log n + m).
        """
        if self.n != g.n:
            return False
        iv = self.intervals
        rights = sorted(b for _, b in iv)
        meeting = sum(rank - bisect_right(rights, a)
                      for rank, a in enumerate(sorted(a for a, _ in iv)))
        return meeting == g.edge_count() and all(
            iv[v][0] < b and a < iv[v][1]
            for u, (a, b) in enumerate(iv) for v in _bits(g.rows[u]))


def format_interval_model(m):
    return "".join("i %d %d %d\n" % (v, *m.intervals[v]) for v in range(m.n))


def parse_interval_model(text):
    rows = {}
    for line in content_lines(text):
        parts = line.split()
        if parts[0] != "i" or len(parts) != 4:
            raise InputError("malformed interval line %r" % line)
        v, a, b = map(parse_number, parts[1:])
        if None in (v, a, b):
            raise InputError("malformed interval line %r" % line)
        if v in rows:
            raise InputError("duplicate interval for vertex %d" % v)
        rows[v] = (a, b)
    n = len(rows)
    if set(rows) != set(range(n)):
        raise InputError("interval model must cover vertices 0..n-1")
    return IntervalModel(n, [rows[v] for v in range(n)])


def realize_intervals(g):
    """An IntervalModel for g, or an ObstructionWitness if none exists.

    The witness is ``recognize``'s.  A member's model is read off the
    ordered maximal cliques: at each clique in turn, the vertices whose
    span starts there open, in ascending order, and then those whose
    span ends there close.  Two vertices meet iff they share a clique
    iff their spans meet iff one opens before the other closes.
    Endpoints land on 0..2n-1, so the model is normalized and all
    endpoints are pairwise distinct.  Beyond recognition, O(n) steps and
    lists of n ints: ``at[p]`` counts the endpoints before clique p, then
    is the next free slot there.
    """
    spans, witness = _interval_certificate(g)
    if witness is not None:
        return witness
    n = g.n
    at = [0] * (n + 1)
    for first, last in spans:
        at[first + 1] += 1
        at[last + 1] += 1
    for p in range(n):
        at[p + 1] += at[p]
    left = []
    for first, _ in spans:
        left.append(at[first])
        at[first] += 1
    intervals = []
    for a, (_, last) in zip(left, spans):
        intervals.append((a, at[last]))
        at[last] += 1
    return _freeze(IntervalModel, n, tuple(intervals))
