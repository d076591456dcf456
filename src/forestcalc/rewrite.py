"""Edge-collapse rewriting on intersection forests.

Collapsing an i-labeled edge of a framed tree <(J1,J2),i> replaces it by an
oppositely signed pair of copies of <J1,J2>; on a twisted tree the collapse
either produces a single framed tree (edge at the root vertex) or two copies
of the collapsed twisted tree plus a framed correction.  Iterating over
off-label leaves drives every tree in a forest to a mono-labeled one.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, HypothesisViolationError, ParameterError
from .forest import IntersectionForest, make_forest
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    framed_tree,
    presentations,
    tree_stats,
    twisted_tree,
)


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


def collapse_framed_edge(coeff: int, tree: DecoratedTree, label: int):
    """<(J1,J2),i> -> oppositely signed pair of <J1,J2>; order drops by 1.

    The i-edge may sit anywhere: the tree is re-presented about it first.
    """
    if tree.kind != FRAMED:
        raise DomainError("collapse_framed_edge requires a framed tree")
    if tree.order < 1:
        raise DomainError("order-0 framed trees have no collapsible edge")
    inner = None
    for p, q in presentations(*tree.data):
        if q == label and isinstance(p, tuple):
            inner = p
            break
        if p == label and isinstance(q, tuple):
            inner = q
            break
    if inner is None:
        raise DomainError(f"no {label}-labeled leaf on tree {tree}")
    collapsed, sign = framed_tree(*inner)
    assert collapsed.order == tree.order - 1
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
    """Collapse the leftmost i-labeled edge of a twisted tree J^inf.

    Root-adjacent leaf (J = (I,i)): the twist is exchanged for the framed
    tree <I,I>.  Interior leaf: two copies of I^inf plus the framed <I,I>;
    strict mode emits the two copies with opposite signs instead.
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


def _target_label(forest: IntersectionForest) -> int:
    """Pick the collapse target: the index of largest total multiplicity."""
    totals = {}
    for coeff, tree in forest.terms:
        for lab, r in tree_stats(tree).r.items():
            totals[lab] = totals.get(lab, 0) + r
    if not totals:
        raise DomainError("empty forest has no target label")
    best = max(totals.values())
    label = min(lab for lab, v in totals.items() if v == best)
    return label


def monoize_forest(forest: IntersectionForest, k: int, strict=False):
    """Collapse off-label edges until every tree is mono-labeled.

    Requires every tree to carry the target label with multiplicity at least
    k+1 (otherwise the reduction is not meaningful for k-repeating data).
    Returns (result forest, [CollapseStep, ...]).
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if forest.is_zero:
        return forest, []
    label = _target_label(forest)
    for _, tree in forest.terms:
        if tree_stats(tree).r.get(label, 0) < k + 1:
            raise HypothesisViolationError(
                f"tree {tree} carries label {label} fewer than k+1 = {k + 1} times"
            )
    steps = []
    work = list(forest.terms)
    done = []
    while work:
        coeff, tree = work.pop(0)
        stats = tree_stats(tree)
        off = [lab for lab in sorted(stats.r) if lab != label]
        if not off:
            done.append((coeff, tree))
            continue
        # leftmost off-label leaf in reading order
        target = next(lab for lab in tree.leaves() if lab != label)
        out = collapse_edge(coeff, tree, target, strict=strict)
        steps.append(CollapseStep(coeff, tree, target, tuple(out)))
        work = out + work
    return make_forest(forest.m, done), steps
