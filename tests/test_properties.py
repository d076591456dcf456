from hypothesis import given, settings
from hypothesis import strategies as st

from test_groups import sparse_row

from forestcalc.eta import eta
from forestcalc.forest import forest_add, make_forest, parse_forest
from forestcalc.groups import GroupElement, build_group
from forestcalc.trees import framed_generators, twisted_generators


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
