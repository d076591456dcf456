import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from test_groups import sparse_row

from forestcalc.eta import eta
from forestcalc.forest import forest_add, make_forest, parse_forest
from forestcalc.freelie import LieElement, bracket_kernel, shape_to_lie, tensor_of
from forestcalc.groups import GroupElement, build_group
from forestcalc.magnus import milnor_from_longitudes, parse_longitudes
from forestcalc.rewrite import monoize_forest
from forestcalc.trees import framed_generators, tree_stats, twisted_generators


def _forests(m, order):
    pool = list(framed_generators(m, order))
    if order % 2 == 0:
        pool += list(twisted_generators(m, order // 2))
    term = st.tuples(st.integers(-4, 4), st.sampled_from(pool))
    return st.lists(term, max_size=4).map(lambda ts: make_forest(m, ts))


@settings(max_examples=60, deadline=None)
@given(_forests(2, 2))
def test_print_parse_roundtrip(forest):
    assert parse_forest(str(forest), 2) == forest


@settings(max_examples=60, deadline=None)
@given(_forests(2, 2), _forests(2, 2))
def test_eta_additive(f, g):
    assert eta(forest_add(f, g), 2) == eta(f, 2) + eta(g, 2)


@settings(max_examples=60, deadline=None)
@given(_forests(2, 1), _forests(2, 1))
def test_group_reduction_additive(f, g):
    grp = build_group(2, 1, "twisted")
    lhs = grp.reduce_forest(forest_add(f, g))
    vec = [
        a + b
        for a, b in zip(
            _raw_coords(grp, f),
            _raw_coords(grp, g),
        )
    ]
    assert lhs == GroupElement(grp, grp.snf.reduce(sparse_row(vec)))


def _raw_coords(grp, forest):
    coords = [0] * len(grp.generators)
    for c, t in forest.terms:
        coords[grp.index[t]] += c
    return coords


def test_value_types_survive_copy_and_pickle():
    # the immutable value types are tuples: a copy or an unpickled twin is
    # equal and of the same class
    forest = parse_forest("+1*<(1,2),1> + +3*((1,2),2)^inf", 2)
    tree = forest.terms[0][1]
    lie = shape_to_lie(2, (1, 2))
    longitudes = parse_longitudes("m = 3\nl1: x2 x3 X2 X3\nl2: x3 x1 X3 X1\nl3: x1 x2 X1 X2\n")
    _, steps = monoize_forest(parse_forest("+1*<(1,2),2>", 2), 1)
    group = build_group(2, 1, "framed")
    element = group.reduce_forest(parse_forest("+1*<(1,2),2>", 2))
    values = [tree, tree_stats(tree), forest, lie, tensor_of(1, lie), bracket_kernel(3, 1),
              element, longitudes, milnor_from_longitudes(longitudes), steps[0]]
    assert isinstance(lie, LieElement) and steps
    for value in values:
        twin = copy.copy(value)
        assert type(twin) is type(value) and twin == value
        twin = pickle.loads(pickle.dumps(value))
        assert type(twin) is type(value)
        if isinstance(value, GroupElement):  # a group compares by identity
            assert twin.coords == value.coords
            assert twin.group.invariants() == group.invariants()
        else:
            assert twin == value
