import random

import pytest

from table_oracle import framed_generators, twisted_generators

from forestcalc.errors import DomainError, HypothesisViolationError
from forestcalc.forest import make_forest, parse_forest
from forestcalc.rewrite import (
    CollapseStep,
    collapse_framed_edge,
    collapse_twisted_edge,
    monoize_forest,
)
from forestcalc.trees import framed_tree, tree_stats, twisted_tree


def test_framed_collapse_outermost():
    t, _ = framed_tree((1, 2), 3)
    out = collapse_framed_edge(1, t, 3)
    assert [(c, str(x)) for c, x in out] == [(1, "<1,2>"), (-1, "<1,2>")]


def test_framed_collapse_rerooted():
    t, _ = framed_tree((1, 2), 2)
    out = collapse_framed_edge(1, t, 1)
    assert [(c, str(x)) for c, x in out] == [(1, "<2,2>"), (-1, "<2,2>")]


def test_framed_collapse_pair_cancels_and_drops_order():
    rng = random.Random(23)
    for m in (1, 2, 3):
        for order in (1, 2, 3, 4):
            for t in framed_generators(m, order):
                label = rng.choice(t.leaves())
                out = collapse_framed_edge(1, t, label)
                assert make_forest(m, out).is_zero
                assert all(x.order == order - 1 for _, x in out)
                r_in = tree_stats(t).r
                r_out = tree_stats(out[0][1]).r
                assert r_out.get(label, 0) == r_in[label] - 1


def test_framed_collapse_errors():
    t, _ = framed_tree(1, 2)
    with pytest.raises(DomainError):
        collapse_framed_edge(1, t, 1)
    t, _ = framed_tree((1, 2), 3)
    with pytest.raises(DomainError):
        collapse_framed_edge(1, t, 9)


def test_twisted_collapse_root_adjacent():
    t = twisted_tree(((1, 2), 3))
    out = collapse_twisted_edge(1, t, 3)
    assert len(out) == 1
    c, x = out[0]
    assert x == framed_tree((1, 2), (1, 2))[0]
    assert c in (1, -1)


def test_twisted_collapse_interior():
    t = twisted_tree(((1, 3), 2))
    out = collapse_twisted_edge(1, t, 3)
    assert [(c, str(x)) for c, x in out][0] == (2, "(1,2)^inf")
    assert out[1][1] == framed_tree((1, 2), (1, 2))[0]


def test_twisted_collapse_strict_mode():
    t = twisted_tree(((1, 3), 2))
    out = collapse_twisted_edge(1, t, 3, strict=True)
    assert len(out) == 3
    assert out[0][0] == 1 and out[1][0] == -1
    assert out[0][1] == out[1][1]
    # both modes agree after coefficient merge up to the 2*I^inf term
    default = collapse_twisted_edge(1, t, 3)
    assert make_forest(2, out[2:]) == make_forest(2, default[1:])


def test_twisted_multiplicity_drops_by_two():
    for m in (2, 3):
        for order in (1, 2):
            for t in twisted_generators(m, order):
                for label in set(t.leaves()):
                    out = collapse_twisted_edge(1, t, label)
                    r_in = tree_stats(t).r
                    for _, x in out:
                        assert tree_stats(x).r.get(label, 0) == r_in[label] - 2


def test_monoize_example():
    f = parse_forest("+1*<(1,2),2>", 2)
    result, steps = monoize_forest(f, 1)
    assert result.is_zero
    assert len(steps) == 1
    assert str(steps[0]) == "+1*<(1,2),2> --collapse 1--> +1*<2,2> + -1*<2,2>"


def test_monoize_noop_on_mono_labeled():
    f = parse_forest("+1*<2,2>", 2)
    result, steps = monoize_forest(f, 1)
    assert result == f
    assert steps == []


def test_monoize_hypothesis_violation():
    f = parse_forest("+1*<1,2>", 2)
    with pytest.raises(HypothesisViolationError):
        monoize_forest(f, 1)


def test_monoize_sweep_terminates_mono_labeled():
    for m in (1, 2, 3):
        for order in (1, 2, 3, 4):
            for t in framed_generators(m, order):
                stats = tree_stats(t)
                k = stats.r_max - 1
                if k < 1:
                    continue
                f = make_forest(m, [(1, t)])
                try:
                    result, steps = monoize_forest(f, k)
                except HypothesisViolationError:
                    continue
                for _, tree in result.terms:
                    assert tree_stats(tree).mono_labeled


def test_monoize_twisted_terms():
    f = parse_forest("+1*((1,2),2)^inf", 2)
    result, steps = monoize_forest(f, 2)
    for _, tree in result.terms:
        assert tree_stats(tree).mono_labeled
    assert steps


def test_step_trace_format():
    t, _ = framed_tree((1, 2), 3)
    step = CollapseStep(2, t, 3, ((2, framed_tree(1, 2)[0]), (-2, framed_tree(1, 2)[0])))
    assert str(step) == "+2*<(1,2),3> --collapse 3--> +2*<1,2> + -2*<1,2>"
