"""Edge-collapse rewriting on intersection forests.

Collapsing an i-labeled edge of a framed tree <(J1,J2),i> replaces it by an
oppositely signed pair of copies of <J1,J2>; on a twisted tree the collapse
either produces a single framed tree (edge at the root vertex) or two copies
of the collapsed twisted tree plus a framed correction.  Iterating over
off-label leaves drives every tree in a forest to a mono-labeled one.

Every step's output is collapsed again, so a framed tree with j off-label
leaves takes 2^j - 1 steps.  `monoize_forest` collapses each distinct tree
once per call and scales that output by each step's coefficient, and it
refuses a forest of more than MAX_COLLAPSE_STEPS steps (2^14 - 1, the steps
of 14 off-label leaves), counted before any step is listed, with a
`resource-limit`.  A framed collapse finds its leaf in one walk over the
tree's edges (`_rest_at_leaf`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, HypothesisViolationError, ParameterError, ResourceLimitError
from .forest import IntersectionForest, make_forest
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    framed_tree,
    tree_stats,
    twisted_tree,
)

# the most collapse steps one monoize call may list: 16,383 steps of a tree of
# 100 trivalent vertices print 17 MB in about 4 s on a 2-core x86-64 host
MAX_COLLAPSE_STEPS = 2**14 - 1


class CollapseStep(NamedTuple):
    """One rewrite step: (coeff, tree) at label -> replacement terms."""

    coeff: int
    tree: DecoratedTree
    label: int
    output: tuple  # ((coeff, tree), ...)

    def __str__(self):
        inp = f"{self.coeff:+d}*{self.tree}"
        out = " + ".join(f"{c:+d}*{t}" for c, t in self.output) or "0"
        return f"{inp} --collapse {self.label}--> {out}"


def _rest_at_leaf(a, b, label):
    """The rest of the framed tree <a, b> at its first `label` leaf, as a
    rooted shape, or None when no leaf carries the label.

    The edges are read in a fixed order: the splitting edge, then b's side
    and then a's.  At each vertex (x0, x1) reached with the rest r of the
    tree, the leaf x1 reads the rest (r, x0), then the leaf x0 reads
    (x1, r), and then the walk goes below x0 and then below x1.  Each step
    joins two shapes into a new pair, so the walk is linear in the tree.
    """
    if b == label and isinstance(a, tuple):
        return a
    if a == label and isinstance(b, tuple):
        return b
    stack = [(a, b), (b, a)]
    while stack:
        v, rest = stack.pop()
        if isinstance(v, tuple):
            x0, x1 = v
            r0, r1 = (x1, rest), (rest, x0)
            if x1 == label:
                return r1
            if x0 == label:
                return r0
            stack += (x1, r1), (x0, r0)
    return None


def collapse_framed_edge(coeff: int, tree: DecoratedTree, label: int):
    """<(J1,J2),i> -> oppositely signed pair of <J1,J2>; order drops by 1.

    The i-edge may sit anywhere: the tree is re-presented about the first
    i-leaf of `_rest_at_leaf`'s walk, the leaf the first i-leaf
    presentation of the tests' `presentations` oracle collapsed.
    """
    if tree.kind != FRAMED:
        raise DomainError("collapse_framed_edge requires a framed tree")
    order = tree.order
    if order < 1:
        raise DomainError("order-0 framed trees have no collapsible edge")
    inner = _rest_at_leaf(*tree.data, label)
    if inner is None:
        raise DomainError(f"no {label}-labeled leaf on tree {tree}")
    collapsed, sign = framed_tree(*inner)
    assert collapsed.order == order - 1
    return [(coeff * sign, collapsed), (-coeff * sign, collapsed)]


def _delete_leftmost(shape, label):
    """Remove the leftmost label leaf of a pair shape, smoothing its vertex."""
    a, b = shape
    if a == label:
        return b
    if isinstance(a, tuple):
        inner = _delete_leftmost(a, label)
        if inner is not None:
            return (inner, b)
    if b == label:
        return a
    if isinstance(b, tuple):
        inner = _delete_leftmost(b, label)
        if inner is not None:
            return (a, inner)
    return None


def collapse_twisted_edge(coeff: int, tree: DecoratedTree, label: int, strict=False):
    """Collapse an i-labeled edge of a twisted tree J^inf: a root-adjacent
    i-leaf when J has one, else the leftmost i-leaf.

    Root-adjacent leaf (J = (I,i)): the twist is exchanged for the framed
    tree <I,I>.  Interior leaf: two copies of I^inf plus the framed <I,I>;
    strict mode emits the two copies with opposite signs instead.  So on
    ((1,2),2)^inf the label 2 collapses the root's 2, not the 2 in (1,2).
    """
    if tree.kind != TWISTED:
        raise DomainError("collapse_twisted_edge requires a twisted tree")
    shape = tree.data
    if not isinstance(shape, tuple):
        raise DomainError("order-0 twisted trees have no collapsible edge")
    a, b = shape
    if a == label and isinstance(b, tuple):
        inner = b
        root_adjacent = True
    elif b == label and isinstance(a, tuple):
        inner = a
        root_adjacent = True
    else:
        inner = _delete_leftmost(shape, label)
        root_adjacent = False
    if inner is None:
        raise DomainError(f"no {label}-labeled leaf on tree {tree}")
    framed, sign = framed_tree(inner, inner)
    if root_adjacent:
        return [(coeff * sign, framed)]
    tw = twisted_tree(inner)
    if strict:
        return [(coeff, tw), (-coeff, tw), (coeff * sign, framed)]
    return [(2 * coeff, tw), (coeff * sign, framed)]


def collapse_edge(coeff: int, tree: DecoratedTree, label: int, strict=False):
    if tree.kind == FRAMED:
        return collapse_framed_edge(coeff, tree, label)
    return collapse_twisted_edge(coeff, tree, label, strict=strict)


def _target_label(stats) -> int:
    """Pick the collapse target: the index of largest total multiplicity
    over the `TreeStats` of a forest's trees."""
    totals = {}
    for st in stats:
        for lab, r in st.r.items():
            totals[lab] = totals.get(lab, 0) + r
    if not totals:
        raise DomainError("empty forest has no target label")
    best = max(totals.values())
    label = min(lab for lab, v in totals.items() if v == best)
    return label


def _least_steps(kind: str, r: dict, label: int) -> int:
    """The fewest steps monoize takes on a tree, read off the multiplicity
    j of its off-label leaves without collapsing: a framed tree takes
    2^j - 1, exactly, since each collapse drops one of them and yields two
    copies of what is left; a twisted J^inf (j twice its off-label leaves)
    takes at least 2^(j - 2), since its first collapse yields <I,I> with
    j - 2 of them."""
    j = sum(count for lab, count in r.items() if lab != label)
    if kind == FRAMED:
        return 2**j - 1
    return 2 ** (j - 2) if j else 0


def _refuse_steps(count: int, qualifier: str = ""):
    if count > MAX_COLLAPSE_STEPS:
        raise ResourceLimitError(
            f"monoize takes {qualifier}{count:,} collapse steps, over the budget of {MAX_COLLAPSE_STEPS:,}")


def monoize_forest(forest: IntersectionForest, k: int, strict=False):
    """Collapse off-label edges until every tree is mono-labeled.

    Requires every tree to carry the target label with multiplicity at least
    k+1 (otherwise the reduction is not meaningful for k-repeating data).
    Returns (result forest, [CollapseStep, ...]).

    Each term that is not mono-labeled is collapsed at its leftmost
    off-label leaf, one step, and its output terms in turn, depth first.
    Each distinct tree is collapsed once, at coefficient 1.  More than
    MAX_COLLAPSE_STEPS steps are refused, by `_least_steps` before any
    collapse, then by the exact count before any step is listed.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if forest.is_zero:
        return forest, []
    stats = [tree_stats(tree) for _, tree in forest.terms]
    label = _target_label(stats)
    for (_, tree), st in zip(forest.terms, stats):
        if st.r.get(label, 0) < k + 1:
            raise HypothesisViolationError(
                f"tree {tree} carries label {label} fewer than k+1 = {k + 1} times"
            )
    _refuse_steps(sum(_least_steps(tree.kind, st.r, label)
                      for (_, tree), st in zip(forest.terms, stats)), "at least ")
    rules = {}  # tree -> (steps from it, off-label target or None, output at coefficient 1)

    def rule(tree):
        entry = rules.get(tree)
        if entry is None:
            target = next((lab for lab in tree.leaves() if lab != label), None)
            count, out = 0, ()
            if target is not None:
                out = tuple(collapse_edge(1, tree, target, strict=strict))
                count = 1
                for _, t in out:
                    count += rule(t)[0]
            entry = rules[tree] = count, target, out
        return entry

    _refuse_steps(sum(rule(tree)[0] for _, tree in forest.terms))
    steps = []
    done = []
    work = list(reversed(forest.terms))
    while work:
        coeff, tree = work.pop()
        _, target, out = rules[tree]
        if target is None:
            done.append((coeff, tree))
            continue
        out = tuple((coeff * c, t) for c, t in out)
        steps.append(CollapseStep(coeff, tree, target, out))
        work += reversed(out)
    return make_forest(forest.m, done), steps
