"""Interval models: realization of interval graphs and the model text
format.

A member's model is read off the clique order that recognition already
built (``shapes._interval_certificate``); a non-member gets the
recognizer's witness.  Only ``realize`` runs this module; ``shapes``
serves its names.
"""

from itertools import combinations

from .errors import InputError
from .shapes import _interval_certificate


class IntervalModel:
    """Open intervals (a_v, b_v) with integer endpoints, one per vertex."""

    __slots__ = ("n", "intervals", "distinct")

    def __init__(self, n, intervals, distinct=False):
        intervals = tuple((int(a), int(b)) for a, b in intervals)
        if len(intervals) != n:
            raise InputError("expected %d intervals, got %d" % (n, len(intervals)))
        for a, b in intervals:
            if a >= b:
                raise InputError("empty interval (%d, %d)" % (a, b))
        if distinct:
            ends = [e for ab in intervals for e in ab]
            if len(set(ends)) != len(ends):
                raise InputError("distinct-endpoint model has a repeated endpoint")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "distinct", distinct)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalModel is immutable")

    def __eq__(self, other):
        return (isinstance(other, IntervalModel)
                and (self.n, self.intervals, self.distinct)
                == (other.n, other.intervals, other.distinct))

    def __repr__(self):
        return "IntervalModel(%d, %r)" % (self.n, self.intervals)

    def checks(self, g):
        """True iff intersection of the open intervals matches adjacency."""
        if self.n != g.n:
            return False
        iv = self.intervals
        for u, v in combinations(range(g.n), 2):
            meets = max(iv[u][0], iv[v][0]) < min(iv[u][1], iv[v][1])
            if meets != g.has_edge(u, v):
                return False
        return True


def format_interval_model(m):
    return "".join("i %d %d %d\n" % (v, *m.intervals[v]) for v in range(m.n))


def parse_interval_model(text, distinct=False):
    rows = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "i" or len(parts) != 4:
            raise InputError("malformed interval line %r" % line)
        try:
            v, a, b = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise InputError("malformed interval line %r" % line)
        if v in rows:
            raise InputError("duplicate interval for vertex %d" % v)
        rows[v] = (a, b)
    n = len(rows)
    if set(rows) != set(range(n)):
        raise InputError("interval model must cover vertices 0..n-1")
    return IntervalModel(n, [rows[v] for v in range(n)], distinct)


def realize_intervals(g, distinct_endpoints=False):
    """An IntervalModel for g, or an ObstructionWitness if none exists.

    The witness is ``recognize``'s.  A member's model is read off the
    ordered maximal cliques: at each clique in turn, the vertices whose
    span starts there open, in ascending order, and then those whose
    span ends there close.  Two vertices meet iff they share a clique
    iff their spans meet iff one opens before the other closes.
    Endpoints land on 0..2n-1, so the model is normalized and all
    endpoints are pairwise distinct in either mode.
    """
    spans, witness = _interval_certificate(g)
    if witness is not None:
        return witness
    n = g.n
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for v, (first, last) in enumerate(spans):
        opens[first].append(v)
        closes[last].append(v)
    left = [0] * n
    right = [0] * n
    pos = 0
    for p in range(n):
        for v in opens[p]:
            left[v] = pos
            pos += 1
        for v in closes[p]:
            right[v] = pos
            pos += 1
    return IntervalModel(n, list(zip(left, right)), distinct_endpoints)
