"""ugl: shapes of finite graphs, and covering-family traces with their
reduced products.

The package itself holds what every request executes: the shape names,
which the command line parser checks before any graph code runs (so an
interval request never executes ``catalog``), the two readers of the
bitmask encoding that every module shares (``_bits``, the set bits of a
vertex or index mask, and ``_edges``, the edge list of adjacency rows),
and the one base of the value types.
A ``_Value``'s fields are its ``__slots__``, set once when it is built;
setting or deleting one raises ``AttributeError``, and ``copy``,
``deepcopy`` and ``pickle`` rebuild it from its fields.  It is equal to
any object of its type with equal fields, and hashes as the tuple of
its fields.

Importing the package registers every module but ``cli`` in
``sys.modules`` unexecuted and binds it here, so a module executes when
one of its names is first used: each request, and each library call,
compiles only what it runs.  The modules bind each other with
``from . import <module>`` and read a name from its home where they use
it.
"""

import importlib.util
import sys

from .errors import InputError

TREE = "tree"
INTERVAL = "interval"
SHAPES = (TREE, INTERVAL)


def check_shape(shape):
    if shape not in SHAPES:
        raise InputError("unknown shape %r (expected 'tree' or 'interval')" % shape)


def _bits(mask):
    """The positions of the set bits of ``mask``, ascending, as a list.
    Each lowest-bit step costs the mask's width, so a mask with more than
    32 set bits is read through its binary string once one bit in eight,
    or 512 bits, are set: the rows of K1000 take 0.04 s that way and 0.21
    s the other, those of a 15,000-vertex matching 4.3 s and 0.013 s, and
    a 400,000-bit mask with one bit in nine 0.017 s and 1.0 s (Python
    3.11)."""
    if (k := mask.bit_count()) > 32 and k * 8 >= min(mask.bit_length(), 4096):
        return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _edges(rows):
    """The pairs (u, v), u < v, of adjacency rows, ascending."""
    return [(u, u + 1 + i) for u, r in enumerate(rows) for i in _bits(r >> u + 1)]


def _freeze(obj, *values):
    """Set the fields of obj to values, in ``__slots__`` order, and return
    it.  Given a class, a new instance is made without running its
    constructor: that is how already-checked values are built."""
    if isinstance(obj, type):
        obj = object.__new__(obj)
    for name, value in zip(obj.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Value:
    """An object whose fields are fixed once built, equal to any of its
    type with equal fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return _freeze, (type(self), *self._fields())

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def _register(name):
    """ugl.<name>, in ``sys.modules`` and unexecuted until first use."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# not cli: ``python -m ugl.cli`` warns when its module is already loaded
for _name in ("catalog", "chordal", "completions", "consecutive", "covering",
              "distributions", "embeddings", "fulldist", "graphs",
              "intervals", "isomorphism", "lifting", "necessary",
              "obstructions", "refinement", "shapes", "tracecli",
              "ultragraph"):
    globals()[_name] = _register(_name)


def _forward(module, moved):
    """The ``__getattr__`` of a module that still serves names which moved
    to a sibling: ``moved`` maps each to its home, which executes on
    first use."""
    def __getattr__(name):
        if name not in moved:
            raise AttributeError("module %r has no attribute %r"
                                 % (module, name))
        return getattr(globals()[moved[name]], name)
    return __getattr__
