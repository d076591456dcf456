"""Finitely presented abelian groups of decorated trees.

A group is presented by an ordered generator list (canonical trees) and an
integer relation matrix.  Framed groups impose 2t = 0 on symmetric trees and
Jacobi relations; twisted groups add boundary-twist relations in odd order and
interior-twist plus twisted-Jacobi relations in even order.  Each family
yields its relations as lists of (coeff, tree) terms; `TreeGroup` alone turns
them into sparse rows, with one rule for a tree missing from the generators.
The invariants come from `invariant_factors` on those sparse rows.  Normal
forms need the Smith transform v, so they use the dense relation matrix,
built only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

from .errors import DomainError, GeneratorNotFoundError, ParameterError
from .forest import IntersectionForest
from .intlinalg import invariant_factors, mat_mul, smith_normal_form
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    canonical_shapes,
    framed_generators,
    internal_splits,
    leaf_rootings,
    lookup_framed,
    multiplicity,
    twisted_generators,
    twisted_tree,
)

FLAVOR_FRAMED = "framed"
FLAVOR_TWISTED = "twisted"


def enumerate_generators(m: int, n: int, flavor: str, k=None):
    """Ordered canonical generators of the order-n tree group."""
    if flavor not in (FLAVOR_FRAMED, FLAVOR_TWISTED):
        raise ParameterError(f"unknown flavor {flavor!r}")
    gens = list(framed_generators(m, n))
    if flavor == FLAVOR_TWISTED and n % 2 == 0:
        gens += list(twisted_generators(m, n // 2))
    if k is not None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        gens = [t for t in gens if multiplicity(t) <= k]
    return gens


def _ihx_triples(presentation):
    """The Jacobi partners of a framed tree split at an internal edge.

    For the split ((A,B),(C,D)) the three terms are
    I = <(A,B),(C,D)>, H = <(A,C),(B,D)>, X = <(A,D),(B,C)>,
    entering the relation as I - H + X = 0.
    """
    (a, b), (c, d) = presentation
    return [
        (1, ((a, b), (c, d))),
        (-1, ((a, c), (b, d))),
        (1, ((a, d), (b, c))),
    ]


def _framed(m, n, coeff, half_a, half_b):
    """The term coeff * <half_a, half_b> of order n over its canonical tree."""
    tree, sign = lookup_framed(m, n, half_a, half_b)
    return coeff * sign, tree


def _framed_relations(m, n, gens):
    # 2t = 0 for a symmetric t, and I - H + X = 0 at each internal edge
    for g in gens:
        if g.kind != FRAMED:
            continue
        if g.torsion:
            yield [(2, g)]
        for split in internal_splits(*g.data):
            yield [_framed(m, n, c, p, q) for c, (p, q) in _ihx_triples(split)]


def _boundary_twist_relations(m, n):
    # i-<(J,J) = 0 for every label i and every rooted J of order (n-1)/2; J
    # runs over canonical shapes only, since the AS sign of J cancels in (J,J)
    for i in range(1, m + 1):
        for shape, _ in canonical_shapes(m, (n - 1) // 2):
            yield [_framed(m, n, 1, i, (shape, shape))]


def _interior_twist_relations(m, n, gens):
    # 2*J^inf = <J,J>
    for g in gens:
        if g.kind == TWISTED:
            yield [(2, g), _framed(m, n, -1, g.data, g.data)]


def _reroot_at_zero(half_a, half_b):
    for label, shape in leaf_rootings(half_a, half_b):
        if label == 0:
            return shape
    raise DomainError("no 0-labeled leaf to re-root at")


def _twisted_ihx_relations(m, n, gens):
    """I^inf - H^inf - X^inf + <H,X> = 0 at each internal edge.

    The root of the twisted tree is carried along as a reserved leaf 0; the
    Jacobi partners are re-rooted there, and the framed correction term pairs
    the two partner shapes.
    """
    for g in gens:
        if g.kind != TWISTED:
            continue
        for split in internal_splits(g.data, 0):
            i, h, x = (_reroot_at_zero(p, q) for _, (p, q) in _ihx_triples(split))
            yield [
                (1, twisted_tree(i)),
                (-1, twisted_tree(h)),
                (-1, twisted_tree(x)),
                _framed(m, n, 1, h, x),
            ]


def _dense_order(row):
    """Sort key of a sparse row ((column, coeff), ...) giving its dense tuple's order.

    Dense tuples first differ where one row's entry is smaller, an absent
    entry counting as 0: a negative entry sorts before any later column's
    entry and before the row's end, a positive one after both.  So a
    negative (j, x) maps to (0, j, x), a positive one to (2, -j, x), and the
    end of the row to (1,).
    """
    return tuple((0, j, x) if x < 0 else (2, -j, x) for j, x in row) + ((1,),)


@dataclass(frozen=True)
class GroupElement:
    group: "TreeGroup"
    coords: tuple  # normal-form coordinates over the Smith basis

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)


class TreeGroup:
    """A graded tree group with its relations and cached Smith normal-form data."""

    def __init__(self, m, n, flavor, k=None):
        self.m = m
        self.n = n
        self.flavor = flavor
        self.k = k
        self.generators = enumerate_generators(m, n, flavor, k)
        self.index = {g: i for i, g in enumerate(self.generators)}
        # ((generator index, coeff), ...) by index, in the order of `relations`
        self.sparse_relations = self._build_relations()

    def _build_relations(self):
        """Sparse rows of every relation, deduplicated and in dense-tuple order.

        A term whose tree is not a generator is dropped when the k bound
        removed that tree (it is zero in the multiplicity quotient); any other
        missing tree is an error.
        """
        m, n, gens, index = self.m, self.n, self.generators, self.index
        families = [_framed_relations(m, n, gens)]
        if self.flavor == FLAVOR_TWISTED:
            if n % 2 == 1:
                families.append(_boundary_twist_relations(m, n))
            else:
                families += [
                    _interior_twist_relations(m, n, gens),
                    _twisted_ihx_relations(m, n, gens),
                ]
        rows = set()
        for terms in chain.from_iterable(families):
            row = {}
            for coeff, tree in terms:
                if tree in index:
                    j = index[tree]
                    row[j] = row.get(j, 0) + coeff
                elif self.k is None or multiplicity(tree) <= self.k:
                    raise GeneratorNotFoundError(
                        f"relation tree {tree} missing from generators"
                    )
            row = tuple(sorted((j, x) for j, x in row.items() if x))
            if row:
                rows.add(row)
        return sorted(rows, key=_dense_order)

    @cached_property
    def relations(self):
        """The relation rows as dense tuples over the generators, sorted."""
        dense = []
        for row in self.sparse_relations:
            vec = [0] * len(self.generators)
            for j, x in row:
                vec[j] = x
            dense.append(tuple(vec))
        return dense

    @cached_property
    def snf(self):
        """(diag, v) with U*R*V = diag over the generator basis."""
        diag, _, v = smith_normal_form(
            self.relations or [[0] * len(self.generators)], want_v=True
        )
        return diag, v

    def element_from_coords(self, coords) -> GroupElement:
        diag, v = self.snf
        if len(coords) != len(self.generators):
            raise DomainError("coordinate length mismatch")
        w = mat_mul([coords], v)[0]
        return GroupElement(self, tuple([x % d for x, d in zip(w, diag)] + w[len(diag):]))

    def reduce_forest(self, forest: IntersectionForest) -> GroupElement:
        """Normal form of the order-n (and matching kind) part of a forest."""
        if forest.m != self.m:
            raise DomainError("index count mismatch")
        coords = [0] * len(self.generators)
        for coeff, tree in forest.terms:
            if not self._selects(tree):
                continue
            if tree not in self.index:
                raise GeneratorNotFoundError(
                    f"canonical tree {tree} not among generators"
                )
            coords[self.index[tree]] += coeff
        return self.element_from_coords(coords)

    def _selects(self, tree: DecoratedTree) -> bool:
        if tree.kind == FRAMED:
            ok = tree.order == self.n
        elif tree.kind == TWISTED:
            ok = self.flavor == FLAVOR_TWISTED and 2 * tree.order == self.n
        else:
            ok = False
        if ok and self.k is not None and multiplicity(tree) > self.k:
            return False  # maps to zero in the multiplicity quotient
        return ok

    def is_zero(self, forest: IntersectionForest) -> bool:
        return self.reduce_forest(forest).is_zero

    @cached_property
    def _factors(self):
        return invariant_factors([dict(row) for row in self.sparse_relations])

    def invariants(self):
        """(free_rank, [torsion orders]) of the presented group."""
        free = len(self.generators) - len(self._factors)
        return free, [d for d in self._factors if d > 1]

    def invariants_str(self) -> str:
        free, torsion = self.invariants()
        parts = [f"Z^{free}"] + [f"Z/{d}" for d in torsion]
        return " + ".join(parts)


@lru_cache(maxsize=None)
def build_group(m: int, n: int, flavor: str, k=None) -> TreeGroup:
    if m < 1 or n < 0:
        raise ParameterError("build_group requires m >= 1, n >= 0")
    return TreeGroup(m, n, flavor, k)
