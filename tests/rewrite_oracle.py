"""The edge-collapse rewriting as it was before each distinct tree was
collapsed once per call, kept as the tests' oracle of `forestcalc.rewrite`.

`presentations` lists the 2n + 1 edge presentations of a framed tree in the
order of a stack walk that hashes each nested presentation into a seen-set;
`collapse_framed_edge` collapses at the first presentation of that list whose
one side is the label's leaf.  `monoize_forest` pops the front of its work
list and puts each step's output back in front of it, collapsing every copy
of a tree from scratch.
"""

from __future__ import annotations

from forestcalc.errors import DomainError, HypothesisViolationError, ParameterError
from forestcalc.forest import make_forest
from forestcalc.rewrite import CollapseStep, collapse_twisted_edge
from forestcalc.trees import FRAMED, framed_tree, tree_stats


def presentations(half_a, half_b):
    """The presentations of the framed tree <half_a, half_b>, one per edge.

    Each of the 2n + 1 edges of the abstract unrooted tree yields one
    splitting, in the orientation the walk reaches first, and edges that
    read alike count once; moving the splitting point across a trivalent
    vertex re-reads the same cyclic orientations, so no signs arise here.
    """
    seen = set()
    stack = [(half_a, half_b)]
    out = []
    while stack:
        pres = stack.pop()
        if pres in seen:
            continue
        a, b = pres
        if (b, a) not in seen:
            out.append(pres)
        seen.add(pres)
        if isinstance(a, tuple):
            stack.append((a[0], (a[1], b)))
            stack.append((a[1], (b, a[0])))
        if isinstance(b, tuple):
            stack.append((b[0], (b[1], a)))
            stack.append((b[1], (a, b[0])))
    return out


def collapse_framed_edge(coeff: int, tree, label: int):
    """<(J1,J2),i> -> oppositely signed pair of <J1,J2>, re-presented about
    the first edge of `presentations` at an i-leaf."""
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


def collapse_edge(coeff: int, tree, label: int, strict=False):
    if tree.kind == FRAMED:
        return collapse_framed_edge(coeff, tree, label)
    return collapse_twisted_edge(coeff, tree, label, strict=strict)


def _target_label(forest) -> int:
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


def monoize_forest(forest, k: int, strict=False):
    """Collapse off-label edges until every tree is mono-labeled; returns
    (result forest, [CollapseStep, ...])."""
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
