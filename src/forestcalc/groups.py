"""Finitely presented abelian groups of decorated trees.

A group is presented by an ordered generator list (canonical trees) and an
integer relation matrix.  Framed groups impose 2t = 0 on symmetric trees and
Jacobi relations; twisted groups add boundary-twist relations in odd order and
interior-twist plus twisted-Jacobi relations in even order.  Each family
walks the trees over the shape ids of `trees` and yields its relations as
lists of (coeff, tree number) terms, a tree number being a position in the
generator list before the k bound: a framed term is resolved by
`FramedTable.term`, a twisted one by its shape id.  `TreeGroup` alone turns
them into sparse rows, dropping the terms whose tree the k bound removed.
Invariants and normal forms both read the rows' one `presentation`, built
when first read: one coordinate per generator that no unit pivot eliminates,
over the Smith basis of the columns the residual names, then the rest.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import DomainError, GeneratorNotFoundError, ParameterError
from .forest import IntersectionForest
from .intlinalg import presentation
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    framed_generators,
    framed_table,
    multiplicity,
    twisted_generators,
)

FLAVOR_FRAMED = "framed"
FLAVOR_TWISTED = "twisted"


def _trees(m: int, n: int, flavor: str) -> list:
    """Every canonical generator before the k bound, framed then twisted.

    Relation terms name a tree by its position here.
    """
    if flavor not in (FLAVOR_FRAMED, FLAVOR_TWISTED):
        raise ParameterError(f"unknown flavor {flavor!r}")
    trees = list(framed_generators(m, n))
    if flavor == FLAVOR_TWISTED and n % 2 == 0:
        trees += twisted_generators(m, n // 2)
    return trees


def _columns(trees, k) -> list:
    """Each tree's index among those the k bound keeps, None where it drops one."""
    if k is None:
        return list(range(len(trees)))
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    columns = []
    kept = 0
    for tree in trees:
        if multiplicity(tree) <= k:
            columns.append(kept)
            kept += 1
        else:
            columns.append(None)
    return columns


def enumerate_generators(m: int, n: int, flavor: str, k=None):
    """Ordered canonical generators of the order-n tree group."""
    trees = _trees(m, n, flavor)
    return [t for t, c in zip(trees, _columns(trees, k)) if c is not None]


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


def _framed(table, coeff, a, b):
    """The term coeff * <a, b> for halves a, b given as (id, sign)."""
    index, sign = table.term(*a, *b)
    return coeff * sign, index


def _framed_relations(table, indices):
    # 2t = 0 for a symmetric t, and I - H + X = 0 at each internal edge,
    # whose four quarters are (id, sign) pairs
    join, kids = table.ids.join, table.ids.kids
    for i in indices:
        if table.torsion[i]:
            yield [(2, i)]
        for x, _, branches in table.ids.edges(*table.halves[i]):
            if kids[x] and branches:
                split = (((kids[x][0], 1), (kids[x][1], 1)), branches)
                yield [
                    _framed(table, c, join(*h), join(*k)) for c, (h, k) in _ihx_triples(split)
                ]


def _boundary_twist_relations(table, m, n):
    # i-<(J,J) = 0 for every label i and every rooted J of order (n-1)/2; J
    # runs over canonical shapes only, since the AS sign of J cancels in (J,J)
    ids = table.ids
    for i in range(1, m + 1):
        for j in ids.by_order[(n - 1) // 2]:
            yield [_framed(table, 1, (ids.labels[i], 1), ids.join((j, 1), (j, 1)))]


def _interior_twist_relations(table, twisted):
    # 2*J^inf = <J,J>
    for j, u in twisted:
        yield [(2, u), _framed(table, -1, (j, 1), (j, 1))]


def _twisted_ihx_relations(table, twisted, number):
    """I^inf - H^inf - X^inf + <H,X> = 0 at each internal edge.

    The root of the twisted tree J^inf is carried along as a reserved leaf 0,
    and the Jacobi partners are re-rooted there.  The internal edges of
    <J, 0> join each non-root vertex v = (A, B) of J to its parent u, whose
    other branch is w.  Re-rooted at 0, the partners other than J are J with
    the branch at u replaced by ((A, w), B) and by ((B, w), A); the framed
    correction term pairs the two.  `number` maps the shape id of a twisted
    tree to its tree number.
    """
    join, kids = table.ids.join, table.ids.kids
    for j, u in twisted:
        # a vertex of J, and the (other branch, is-left) steps from it to the root
        stack = [(j, ())] if kids[j] else []
        while stack:
            vertex, up = stack.pop()
            a, b = kids[vertex]
            for v, w, left in ((a, b, True), (b, a, False)):
                if kids[v] is None:
                    continue
                x, y = kids[v]
                h = _partner(join, x, w, y, up)
                k = _partner(join, y, w, x, up)
                yield [(1, u), (-1, number[h[0]]), (-1, number[k[0]]), _framed(table, 1, h, k)]
                stack.append((v, ((w, left),) + up))


def _partner(join, a, w, b, up):
    """(id, sign) of J with ((a, w), b) grafted at the vertex `up` leads up from."""
    node = join(join((a, 1), (w, 1)), (b, 1))
    for other, left in up:
        node = join(node, (other, 1)) if left else join((other, 1), node)
    return node


class GroupElement(NamedTuple):
    group: "TreeGroup"
    coords: tuple  # one per surviving generator, over the residual's Smith basis

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)


class TreeGroup:
    """A graded tree group with its relations and cached normal-form presentation."""

    def __init__(self, m, n, flavor, k=None):
        self.m = m
        self.n = n
        self.flavor = flavor
        self.k = k
        trees = _trees(m, n, flavor)
        columns = _columns(trees, k)
        self.generators = [t for t, c in zip(trees, columns) if c is not None]
        # sparse rows ((generator index, coeff), ...) by index, sorted
        self.relations = self._build_relations(columns)

    @cached_property
    def index(self):
        """Generator -> its index."""
        return {g: i for i, g in enumerate(self.generators)}

    def _build_relations(self, columns):
        """Sparse rows of every relation, deduplicated and sorted.

        columns maps each tree number of the terms to its generator index; a
        term whose tree the k bound removed is dropped (it is zero in the
        multiplicity quotient).
        """
        m, n = self.m, self.n
        table = framed_table(m, n)
        framed = [i for i in range(len(table.trees)) if columns[i] is not None]
        families = [_framed_relations(table, framed)]
        if self.flavor == FLAVOR_TWISTED:
            if n % 2 == 1:
                families.append(_boundary_twist_relations(table, m, n))
            else:
                first = len(table.trees)
                number = {j: first + p for p, j in enumerate(table.ids.by_order[n // 2])}
                twisted = [(j, u) for j, u in number.items() if columns[u] is not None]
                families += [
                    _interior_twist_relations(table, twisted),
                    _twisted_ihx_relations(table, twisted, number),
                ]
        rows = set()
        for terms in chain.from_iterable(families):
            row = {}
            for coeff, u in terms:
                j = columns[u]
                if j is not None:
                    row[j] = row.get(j, 0) + coeff
            row = tuple(sorted((j, x) for j, x in row.items() if x))
            if row:
                rows.add(row)
        return sorted(rows)

    @cached_property
    def snf(self):
        """The `Presentation` of the group that normal forms are read from."""
        return presentation(self.relations, len(self.generators))

    def reduce_forest(self, forest: IntersectionForest) -> GroupElement:
        """Normal form of the order-n (and matching kind) part of a forest."""
        if forest.m != self.m:
            raise DomainError("index count mismatch")
        coords = {}
        for coeff, tree in forest.terms:
            if not self._selects(tree):
                continue
            if tree not in self.index:
                raise GeneratorNotFoundError(
                    f"canonical tree {tree} not among generators"
                )
            j = self.index[tree]
            coords[j] = coords.get(j, 0) + coeff
        return GroupElement(self, self.snf.reduce(coords.items()))

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

    def invariants(self):
        """(free_rank, [torsion orders]) of the presented group."""
        snf = self.snf
        free = len(self.generators) - len(snf.pivots) - len(snf.diag)
        return free, [d for d in snf.diag if d > 1]

    def invariants_str(self) -> str:
        free, torsion = self.invariants()
        parts = [f"Z^{free}"] + [f"Z/{d}" for d in torsion]
        return " + ".join(parts)


@lru_cache(maxsize=None)
def build_group(m: int, n: int, flavor: str, k=None) -> TreeGroup:
    if m < 1 or n < 0:
        raise ParameterError("build_group requires m >= 1, n >= 0")
    return TreeGroup(m, n, flavor, k)
