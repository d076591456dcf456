import hashlib

import pytest

from test_freelie import witt

from forestcalc.errors import ParameterError
from forestcalc.forest import make_forest, parse_forest
from forestcalc.groups import TreeGroup, build_group, enumerate_generators


def test_order_zero_framed_free():
    g = build_group(2, 0, "framed")
    assert g.invariants() == (3, [])
    assert g.invariants_str() == "Z^3"


def test_order_one_single_index():
    g = build_group(1, 1, "framed")
    assert g.invariants_str() == "Z^0 + Z/2"


def test_order_one_framed_all_torsion_except_distinct():
    assert build_group(2, 1, "framed").invariants() == (0, [2, 2, 2, 2])
    free, torsion = build_group(3, 1, "framed").invariants()
    assert free == 1 and torsion == [2] * 9


def test_odd_twisted_boundary_twist():
    assert build_group(2, 1, "twisted").invariants() == (0, [])
    assert build_group(3, 1, "twisted").invariants() == (1, [])


def test_even_twisted():
    assert build_group(1, 2, "twisted").invariants() == (0, [2])
    assert build_group(2, 2, "twisted").invariants() == (1, [2, 2])


def test_order_zero_twisted():
    # 2*i^inf = <i,i> makes i^inf a free generator replacing <i,i>
    assert build_group(1, 0, "twisted").invariants() == (1, [])
    assert build_group(2, 0, "twisted").invariants() == (3, [])


def test_generator_enumeration_examples():
    gens = enumerate_generators(2, 0, "framed")
    assert [str(t) for t in gens] == ["<1,1>", "<1,2>", "<2,2>"]
    gens = enumerate_generators(2, 0, "framed", k=1)
    assert [str(t) for t in gens] == ["<1,2>"]
    gens = enumerate_generators(1, 1, "framed")
    assert [str(t) for t in gens] == ["<(1,1),1>"]


def test_reduce_zero_cases():
    g = build_group(2, 0, "framed")
    assert g.is_zero(parse_forest("+1*<1,2> + -1*<1,2>", 2))
    assert not g.is_zero(parse_forest("+1*<1,2>", 2))
    g = build_group(1, 1, "framed")
    assert g.is_zero(parse_forest("+2*<(1,1),1>", 1))


def test_reduce_order_filter():
    g = build_group(2, 1, "framed")
    f = parse_forest("+1*<(1,2),2> + +5*<1,2>", 2)
    e = g.reduce_forest(f)
    assert not e.is_zero
    # only the order-1 term contributes
    assert g.reduce_forest(parse_forest("+1*<(1,2),2>", 2)) == e


def test_interior_twist_relation():
    g = build_group(1, 2, "twisted")
    f = parse_forest("+2*(1,1)^inf + -1*<(1,1),(1,1)>", 1)
    assert g.is_zero(f)


def test_twisted_ihx_rows_vanish_in_group():
    g = build_group(2, 4, "twisted")
    for rel in g.relations:
        terms = [(c, g.generators[i]) for i, c in enumerate(rel) if c]
        assert g.is_zero(make_forest(2, terms))


def test_ihx_relation_order_two():
    # the three Jacobi partners at an internal split sum to zero in the group
    from forestcalc.groups import _ihx_triples
    from forestcalc.trees import framed_tree

    g = build_group(3, 2, "framed")
    terms = []
    for c, (p, q) in _ihx_triples(((1, 2), (3, 3))):
        tree, sign = framed_tree(p, q)
        terms.append((c * sign, tree))
    assert g.is_zero(make_forest(3, terms))


def test_k_group_quotient():
    g = build_group(2, 0, "framed", k=1)
    assert g.invariants() == (1, [])
    # multiplicity-2 trees reduce to zero in the quotient
    assert g.is_zero(parse_forest("+1*<1,1>", 2))


def test_mod2_reduction_coords():
    g = build_group(1, 1, "framed")
    e3 = g.reduce_forest(parse_forest("+3*<(1,1),1>", 1))
    e1 = g.reduce_forest(parse_forest("+1*<(1,1),1>", 1))
    assert e3 == e1


def test_bad_parameters():
    with pytest.raises(ParameterError):
        build_group(0, 1, "framed")
    with pytest.raises(ParameterError):
        enumerate_generators(2, 1, "fancy")


@pytest.mark.parametrize(
    "m, n, flavor, k, count, digest",
    [
        (2, 5, "framed", None, 219, "4bb4bc719a89fa1f"),
        (4, 3, "framed", None, 450, "c0603355ef5d2413"),
        (1, 8, "twisted", None, 40, "5be8cc76a174c935"),
        (2, 4, "twisted", None, 82, "9283769ff02bc018"),
        (3, 3, "twisted", None, 143, "0a96f9afa5b412be"),
        (5, 2, "twisted", None, 185, "3f276305ad406cfd"),
        (3, 4, "twisted", 2, 57, "4c6039e4d989de02"),
        (2, 5, "twisted", None, 223, "8b1fab048aef1461"),
        (2, 6, "twisted", None, 814, "6adc74b9e01eb80e"),
        (3, 4, "framed", None, 549, "35edb5f396b027bd"),
        (2, 7, "framed", None, 2702, "36d2e3506940a797"),
    ],
)
def test_relation_rows_pinned(m, n, flavor, k, count, digest):
    # the row set and its order decide v, hence the obstruct witnesses and
    # the arf lifts; every relation family is exercised at these cells
    rows = build_group(m, n, flavor, k).relations
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def test_large_twisted_rows_pinned():
    # twisted IHX partners regrafted two vertices below the root, with two
    # labels; the dense rows are too large to pin here, so the sparse ones are
    g = TreeGroup(2, 8, "twisted")
    gens = [(t.kind, t.data, t.torsion) for t in g.generators]
    assert (len(gens), len(g.sparse_relations)) == (2430, 10198)
    assert hashlib.sha256(repr(gens).encode()).hexdigest()[:16] == "9f236dce2b376dad"
    assert hashlib.sha256(repr(g.sparse_relations).encode()).hexdigest()[:16] == "866fe2f95fc6b4df"


def test_element_equality():
    g = build_group(2, 1, "framed")
    f = parse_forest("+1*<(1,2),2>", 2)
    e = g.reduce_forest(f)
    assert e == e
    assert e == g.reduce_forest(f)
    assert e != g.reduce_forest(parse_forest("+1*<(1,1),2>", 2))
    assert e != None  # noqa: E711
    assert e != 0
    assert e in [0, None, e]


def test_invariants_need_neither_snf_nor_dense_relations():
    g = TreeGroup(2, 4, "twisted")
    free, torsion = g.invariants()
    assert "snf" not in vars(g) and "relations" not in vars(g)
    # the Smith form, built on demand, agrees
    diag, _ = g.snf
    assert (free, torsion) == (len(g.generators) - len(diag), [d for d in diag if d > 1])


@pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4)])
def test_large_framed_invariants(m, n):
    # T_n tensor Q has the rank of D_n, m W(m, n+1) - W(m, n+2), and the
    # torsion at these orders is all 2-torsion
    free, torsion = TreeGroup(m, n, "framed").invariants()
    assert free == m * witt(m, n + 1) - witt(m, n + 2)
    assert set(torsion) <= {2}
