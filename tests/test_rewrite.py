import random

import pytest

import rewrite_oracle
from table_oracle import framed_generators, twisted_generators

from forestcalc import rewrite
from forestcalc.cli import main
from forestcalc.errors import DomainError, HypothesisViolationError, ResourceLimitError
from forestcalc.forest import make_forest, parse_forest
from forestcalc.rewrite import (
    MAX_COLLAPSE_STEPS,
    CollapseStep,
    _least_steps,
    collapse_edge,
    collapse_framed_edge,
    collapse_twisted_edge,
    monoize_forest,
)
from forestcalc.trees import FRAMED, framed_tree, tree_stats, twisted_tree


def comb(j):
    """The framed comb <((((1,1),2),1),2)...,1>: j leaves labeled 2 among
    j + 2 labeled 1, on which monoize takes 2^j - 1 steps to reach 0."""
    shape = "(1,1)"
    for i in range(2 * j - 1):
        shape = f"({shape},{2 - i % 2})"
    return f"+1*<{shape},1>"


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


def test_twisted_collapse_takes_a_root_adjacent_leaf_first(capsys):
    # ((1,2),2)^inf has a 2 at the root and one in (1,2): the root's is
    # collapsed, to <(1,2),(1,2)> alone, where the inner 2 would have given
    # 2 (1,2)^inf beside it
    t = twisted_tree(((1, 2), 2))
    assert collapse_twisted_edge(1, t, 2) == [(1, framed_tree((1, 2), (1, 2))[0])]
    assert main(["collapse", "--m", "2", "+1*((1,2),2)^inf", "2"]) == 0
    assert capsys.readouterr().out == "+1*<((1,2),1),2>\n"
    assert str(framed_tree((1, 2), (1, 2))[0]) == "<((1,2),1),2>"


def _outcome(collapse, tree, label):
    try:
        return collapse(1, tree, label)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_framed_collapse_matches_the_presentation_walk(m):
    # every label of every framed generator, order <= 5: the edge walk
    # collapses the leaf the first presentation at that label collapsed
    for order in range(6):
        for tree in framed_generators(m, order):
            for label in range(1, m + 1):
                assert (_outcome(collapse_framed_edge, tree, label)
                        == _outcome(rewrite_oracle.collapse_framed_edge, tree, label))


def _shape(rng, labels):
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (_shape(rng, labels[:cut]), _shape(rng, labels[cut:]))


def _random_forest(rng, m):
    """One to three framed trees of order <= 6 and twisted of order <= 4 on
    the labels 1..m, label 1 on more than half of each tree's leaves, so that
    monoize targets it at k = 1."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        twisted = rng.random() < 0.4
        leaves = rng.randint(2, 5) if twisted else rng.randint(3, 8)
        ones = leaves // 2 + 1
        labels = [1] * ones + [rng.randint(2, m) for _ in range(leaves - ones)]
        rng.shuffle(labels)
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        if twisted:
            terms.append((coeff, twisted_tree(_shape(rng, labels))))
        else:
            cut = rng.randint(1, leaves - 1)
            tree, sign = framed_tree(_shape(rng, labels[:cut]), _shape(rng, labels[cut:]))
            terms.append((coeff * sign, tree))
    return make_forest(m, terms)


@pytest.mark.parametrize("strict", [False, True])
def test_monoize_matches_the_oracle_on_random_forests(strict):
    rng = random.Random(37)
    for _ in range(150):
        forest = _random_forest(rng, rng.randint(2, 4))
        result, steps = monoize_forest(forest, 1, strict=strict)
        assert (result, steps) == rewrite_oracle.monoize_forest(forest, 1, strict=strict)
        # the budget's first count is a lower bound, exact on framed trees
        least = [_least_steps(t.kind, tree_stats(t).r, 1) for _, t in forest.terms]
        assert sum(least) <= len(steps)
        if all(t.kind == FRAMED for _, t in forest.terms):
            assert sum(least) == len(steps)


@pytest.mark.parametrize("strict", [False, True])
def test_monoize_matches_the_oracle_on_combs(strict):
    for j in range(13):
        forest = parse_forest(comb(j), 2)
        result, steps = monoize_forest(forest, 1, strict=strict)
        assert (result, steps) == rewrite_oracle.monoize_forest(forest, 1, strict=strict)
        assert len(steps) == 2**j - 1 and result.is_zero == (j > 0)


def test_monoize_collapses_each_distinct_tree_once(monkeypatch):
    # the comb of 14 off-label leaves takes 16,383 steps over 15 distinct
    # trees, one of them mono-labeled: each other is collapsed once
    collapsed = []

    def counting(coeff, tree, label, strict=False):
        collapsed.append(tree)
        return collapse_edge(coeff, tree, label, strict=strict)

    monkeypatch.setattr(rewrite, "collapse_edge", counting)
    result, steps = monoize_forest(parse_forest(comb(14), 2), 1)
    assert len(steps) == 16_383 and result.is_zero
    assert len(collapsed) <= 14 + 1
    assert len(set(collapsed)) == len(collapsed)


def test_monoize_budget_boundary(capsys):
    # the comb of 14 off-label leaves takes the whole budget, and one step
    # more is refused, by the count of off-label leaves, before any collapse
    assert MAX_COLLAPSE_STEPS == 2**14 - 1
    assert len(monoize_forest(parse_forest(comb(14), 2), 1)[1]) == MAX_COLLAPSE_STEPS
    over = "+1*<((1,1),1),2> + " + comb(14)
    with pytest.raises(ResourceLimitError, match="at least 16,384 collapse steps, over the budget of 16,383"):
        monoize_forest(parse_forest(over, 2), 1)
    for forest, count in ((over, "16,384"), (comb(15), "32,767")):
        assert main(["monoize", "--m", "2", "--k", "1", forest]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error[resource-limit]: monoize takes at least {count} collapse steps,"
                       " over the budget of 16,383\n")


@pytest.mark.parametrize("strict", [False, True])
def test_monoize_budget_counts_twisted_steps_exactly(monkeypatch, strict):
    # an interior twisted collapse takes more steps than the first count's
    # 2^(j - 2): the exact count refuses what the first lets through
    forest = parse_forest("+1*((1,2),(2,1))^inf", 2)
    steps = len(monoize_forest(forest, 1, strict=strict)[1])
    assert (steps, _least_steps("twisted", tree_stats(forest.terms[0][1]).r, 1)) == (6 if strict else 5, 4)
    monkeypatch.setattr(rewrite, "MAX_COLLAPSE_STEPS", steps)
    assert len(monoize_forest(forest, 1, strict=strict)[1]) == steps
    monkeypatch.setattr(rewrite, "MAX_COLLAPSE_STEPS", steps - 1)
    with pytest.raises(ResourceLimitError, match=f"takes {steps} collapse steps"):
        monoize_forest(forest, 1, strict=strict)
    monkeypatch.setattr(rewrite, "MAX_COLLAPSE_STEPS", 3)
    monkeypatch.setattr(rewrite, "collapse_edge", None)  # refused before any collapse
    with pytest.raises(ResourceLimitError, match="takes at least 4 collapse steps"):
        monoize_forest(forest, 1, strict=strict)
