"""The value contract of ``ugl._Value``: frozen fields, copy and
pickle, equality and hashing by field."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import ugl
from ugl import _Value
from ugl.covering import CoveringFamily
from ugl.distributions import Trace
from ugl.fulldist import check_properties, extension_distribution
from ugl.embeddings import Embedding
from ugl.graphs import INDUCED, Graph
from ugl.intervals import IntervalModel
from ugl.necessary import NecessarySet, format_necessary_set
from ugl.refinement import LosInstance
from ugl.shapes import IRREDUCIBLE_CYCLE, ObstructionWitness
from ugl.lifting import LiftedMap
from ugl.ultragraph import InternalSet, build


def _trace():
    k = LosInstance(3, [{0, 1, 2}, {0, 1, 2}], [[(0, 1), (1, 2), (0, 2)]] * 2)
    return Trace(CoveringFamily.principal(2, [0, 1]), 3,
                 [{0, 1}, {0, 1, 2}], [[(0, 1)], [(0, 1), (1, 2)]], k)


def _product():
    return build(_trace())


# One instance of every value class, by class name.
EXAMPLES = {
    "Graph": lambda: Graph(4, [(0, 1), (1, 2), (2, 3)]),
    "Embedding": lambda: Embedding((2, 0, 1), INDUCED),
    "ObstructionWitness": lambda: ObstructionWitness(
        IRREDUCIBLE_CYCLE, (0, 1, 2, 3)),
    "IntervalModel": lambda: IntervalModel(2, [(0, 2), (1, 3)]),
    "NecessarySet": lambda: NecessarySet([(1, 3), (0, 2)],
                                         {"necessary": True}),
    "CoveringFamily": lambda: CoveringFamily.explicit(3, [[0, 1], [2]]),
    "Trace": _trace,
    "LosInstance": lambda: _trace().instance,
    "FullDistribution": lambda: extension_distribution(_trace()),
    "PropertyReport": lambda: check_properties(
        extension_distribution(_trace())),
    "ReducedProduct": _product,
    "InternalSet": lambda: InternalSet((0, 1), {1: {2}, 0: {0, 1}}),
    "LiftedMap": lambda: LiftedMap(_product(), _product(), {
        0: {0: 1, 1: 0}, 1: {0: 0, 1: 1, 2: 2}}),
}


def value_classes():
    """Every ``_Value`` subclass defined in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(ugl.__path__):
        module = importlib.import_module("ugl." + info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, _Value)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


def test_every_frozen_class_has_an_example():
    classes = value_classes()
    assert sorted(classes) == sorted(EXAMPLES)
    for name, cls in classes.items():
        assert type(EXAMPLES[name]()) is cls


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fields_are_frozen(name):
    obj = EXAMPLES[name]()
    message = "%s is immutable" % name
    for field in type(obj).__slots__ + ("unknown",):
        with pytest.raises(AttributeError, match="^%s$" % message):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match="^%s$" % message):
            delattr(obj, field)
    assert obj == EXAMPLES[name]()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_copy_deepcopy_and_pickle_rebuild_the_value(name):
    obj = EXAMPLES[name]()
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj)


def test_values_compare_by_type_and_fields():
    g = EXAMPLES["Graph"]()
    assert g == Graph(4, [(2, 3), (1, 2), (0, 1)]) and g != Graph(4)
    assert g != (g.n, g.rows) and g != EXAMPLES["Embedding"]()
    rp = _product()
    assert rp == _product() and hash(rp) == hash(_product())
    for name in sorted(EXAMPLES):
        assert len({EXAMPLES[name](), EXAMPLES[name]()}) == 1, name


def test_hashes_stay_those_of_the_field_tuples():
    # set and dict order of these values depend on their hashes
    g = EXAMPLES["Graph"]()
    assert hash(g) == hash((g.n, g.rows))
    e = EXAMPLES["Embedding"]()
    assert hash(e) == hash((e.mapping, e.mode))
    w = EXAMPLES["ObstructionWitness"]()
    assert hash(w) == hash((w.kind, w.vertices, w.family))
    f = EXAMPLES["CoveringFamily"]()
    assert hash(f) == hash((f.index_count, f.kind, f.param))


def test_flags_and_parts_views_leave_the_value_unchanged():
    ns = EXAMPLES["NecessarySet"]()
    text = format_necessary_set(ns)
    ns.flags["necessary"] = False
    assert ns.flags == {"necessary": True, "submin": False,
                        "mincard": False, "unique": False}
    assert ns == EXAMPLES["NecessarySet"]() and format_necessary_set(ns) == text
    s = EXAMPLES["InternalSet"]()
    s.parts[0] = frozenset()
    assert s.parts == {0: {0, 1}, 1: {2}} and list(s.parts) == [0, 1]
    assert s == EXAMPLES["InternalSet"]() and s.count() == 2


def test_witness_and_map_views_leave_the_object_unchanged():
    rep = EXAMPLES["PropertyReport"]()
    want = {"multiplicative": (frozenset({0}), frozenset({2})),
            "pairwise_splitting": (0, 2)}
    rep.witnesses.clear()
    assert rep.witnesses == want
    lm = EXAMPLES["LiftedMap"]()
    lm.theta[0][0] = 0
    lm.fill[0] = 0
    assert lm.theta == {0: {0: 1, 1: 0}, 1: {0: 0, 1: 1, 2: 2}}
    assert lm.fill == {} and lm.apply((0, 0)) == (1, 0)


def test_internal_set_needs_exactly_one_part_per_core_index():
    for parts in ({0: {0}}, {0: {0}, 1: {1}, 2: {2}}):
        with pytest.raises(ugl.errors.InputError, match="one part per core"):
            InternalSet((0, 1), parts)


@pytest.mark.parametrize("intervals,bad", [
    ([(0.2, 1.9), (1.5, 3.7)], "0.2"),
    ([("0", " 1 ")], "'0'"),
    ([(0, 2), (1, 3.0)], "3.0"),
])
def test_interval_endpoints_must_be_ints(intervals, bad):
    # int() would truncate 0.2 and 1.9 to (0, 1), and read " 1 " as 1
    with pytest.raises(ugl.errors.InputError,
                       match=r"^interval endpoint %s is not an integer$"
                       % bad.replace(".", r"\.")):
        IntervalModel(len(intervals), intervals)
