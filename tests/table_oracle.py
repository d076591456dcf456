"""The framed table of canonical trees and its relation families: the
presentation the tree groups had before they moved to Lie coordinates,
kept as the tests' oracle of `forestcalc.groups`.

`shape_ids(m, order)` numbers every AS-canonical rooted shape of order <=
`order` on the labels 1..m densely in `shape_key` order, so comparing ids
compares keys.  It is built order by order from pairs of smaller ids, with
no nested keys, and a pair of two canonical shapes canonicalizes by one
lookup in its pair table; the order of the two ids gives the AS sign, and
an id's ambiguity is stored.  An ordered pair of ids a <= b is keyed by one
int, its pair code a * size + b, size the number of ids.

`framed_table(m, order)` walks each framed tree of an order once along its
2n+1 edges, one pair lookup per edge, and maps every presentation, the pair
code of its canonical halves, to the tree's generator index and sign.  The
shape ids give each id's content code (`ShapeIds.label_counts`): its leaf
labels counted, each label in its own bit field of one int, so two halves'
codes, or twice a shape's, add without a carry.

On the table a group is presented by an ordered generator list (canonical
trees) and an integer relation matrix (`TableGroup`).  Framed groups impose
2t = 0 on symmetric trees and Jacobi relations; twisted groups add
boundary-twist relations in odd order and interior-twist plus
twisted-Jacobi relations in even order.  Each family walks the trees over
the shape ids and yields its relations as lists of (coeff, tree number)
terms, a tree number being a position in the generator list before the k
bound.  Invariants read one block of rows per S_m-orbit of contents
(`TableGroup._blocks`), and normal forms one presentation of every row.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from forestcalc.errors import ParameterError, ResourceLimitError
from forestcalc.groups import FLAVOR_TWISTED, content_orbits, divisibility_chain
from forestcalc.intlinalg import presentation
from forestcalc.trees import FRAMED, TWISTED, DecoratedTree, multiplicity

# the most presentations a framed table may hold; 2,000,000 take about 0.8 GB
MAX_TABLE_ENTRIES = 4_000_000


def _pair_shapes(m: int, order: int):
    """The canonical shapes of order <= order as (pairs, orders), in key order.

    Shapes are numbered pairs first, then the labels 1..m, in key order;
    pairs holds the (left, right) ids of each pair shape's branches, and
    orders the order of every id.  A pair is canonical exactly when its
    left id is not above its right one.  Each order is built on the
    numbering of the smaller ones, in which the pairs of every order up to
    it, old and new, sort as the int pairs of their branches' ids; then all
    of them take new ids.
    """
    pairs = []
    orders = [0] * m
    for k in range(1, order + 1):
        by_order = [[] for _ in range(k)]
        for i, o in enumerate(orders):
            by_order[o].append(i)
        new = []
        for a, o in enumerate(orders):
            rights = by_order[k - 1 - o]
            new += [(a, b) for b in rights[bisect_left(rights, a):]]
        merged = sorted(pairs + new)
        position = {p: i for i, p in enumerate(merged)}
        renumber = [position[p] for p in pairs]
        renumber += range(len(merged), len(merged) + m)
        orders = [orders[a] + orders[b] + 1 for a, b in merged] + [0] * m
        pairs = [(renumber[a], renumber[b]) for a, b in merged]
    return pairs, tuple(orders)


class ShapeIds:
    """The AS-canonical rooted shapes of order <= `order` on labels 1..m.

    Ids are dense ints in `shape_key` order, so comparing ids compares
    keys.  Indexed by id:

    - ``shapes``: the nested shape, sharing its subtrees with its branches;
    - ``kids``: the ids (left, right) of a pair shape's branches, None for
      a label;
    - ``orders``, and ``ambiguous``: some vertex has equal branches.

    ``by_order[k]`` lists the ids of order k in increasing order, and
    ``labels`` maps a label to its id.  ``size`` is the number of ids, and
    the pair code of ids a <= b is a * size + b.  ``pair`` maps the pair
    code of the branches (a, b), a <= b, of each pair shape to its id, so
    the pair of two canonical shapes a, b canonicalizes with one lookup, of
    (a, b) with sign +1 when a <= b and of (b, a) with sign -1 otherwise.  The pair is ambiguous when a == b or either branch is.
    """

    def __init__(self, m: int, order: int):
        pairs, orders = _pair_shapes(m, order)
        self.kids = tuple(pairs) + (None,) * m
        self.orders = orders
        self.labels = MappingProxyType({lab: len(pairs) + lab - 1 for lab in range(1, m + 1)})
        self.size = size = len(orders)
        ids = list(range(size))  # one int object per id, which `pair` and `by_order` share
        self.pair = MappingProxyType({a * size + b: i for (a, b), i in zip(pairs, ids)})
        by_order = [[] for _ in range(order + 1)]
        for i in ids:
            by_order[orders[i]].append(i)
        self.by_order = tuple(map(tuple, by_order))
        shapes = [None] * len(orders)
        ambiguous = [False] * len(orders)
        for i in self.by_order[0]:
            shapes[i] = i - len(pairs) + 1
        # a branch has a smaller order, not always a smaller id
        for i in chain.from_iterable(self.by_order[1:]):
            a, b = pairs[i]
            shapes[i] = (shapes[a], shapes[b])
            ambiguous[i] = a == b or ambiguous[a] or ambiguous[b]
        self.shapes = tuple(shapes)
        self.ambiguous = tuple(ambiguous)

    @cached_property
    def label_counts(self):
        """Each id's leaf labels counted, built bottom-up as `orders` is.

        Label x counts in its own field of w bits, bits w (x - 1) to
        w x - 1 of one int, w the least width whose top bit no count of
        order + 2 leaves reaches, so the codes of two halves, or twice the
        code of a twisted tree's shape, add without a carry.
        """
        width = self._count_width
        codes = [0] * len(self.orders)
        for x, i in self.labels.items():
            codes[i] = 1 << (width * (x - 1))
        for i in chain.from_iterable(self.by_order[1:]):
            a, b = self.kids[i]
            codes[i] = codes[a] + codes[b]
        return tuple(codes)

    @property
    def _count_width(self):
        return (len(self.by_order) + 1).bit_length() + 1

    def within(self, codes, k: int):
        """Whether each code, label counts packed as `label_counts` packs
        them and of at most order + 2 leaves, counts every label at most k
        times.

        Adding 2^(w-1) - 1 - k to every field sets a field's top bit exactly
        when its count exceeds k, and carries out of none; no count reaches
        2^(w-1), so a larger k bounds as 2^(w-1) - 1 does.
        """
        half = 1 << (self._count_width - 1)
        ones = sum(1 << (self._count_width * x) for x in range(len(self.labels)))
        add, top = ones * (half - 1 - min(k, half - 1)), ones * half
        return (not (code + add) & top for code in codes)


@lru_cache(maxsize=None)
def shape_ids(m: int, order: int) -> ShapeIds:
    """The shape ids of orders 0..order, shared by every caller."""
    return ShapeIds(m, order)


class FramedTable:
    """Every framed tree of one order and every presentation of each.

    ``trees`` are the canonical framed trees in generator order, with their
    ``torsion`` flags and their canonical ``halves`` as id pairs.
    ``entries`` maps the pair code lo * size + hi (`ShapeIds`) of the halves
    lo <= hi of every presentation to ``(index, sign)`` with
    <lo, hi> = sign * trees[index]; a torsion tree stores +1, and the trees'
    presentations of one sign share one tuple.  ``ids`` are the shape ids
    the codes are read in.

    Id pairs are visited in increasing order, and a pair already read as a
    presentation of an earlier tree is skipped, so each tree is met first
    at its minimal presentation, its canonical form, and walked once.  The
    walk carries the rest of the tree down to each pair vertex as an id and
    a sign, reads the vertex's two edges with one pair lookup each, and
    files each edge's code under its sign.  The tree is torsion when an
    edge reads its own code with sign -1, or when one of its halves is
    ambiguous.
    """

    def __init__(self, m: int, order: int):
        self.ids = ids = shape_ids(m, order)
        size, kids, pair, ambiguous = ids.size, ids.kids, ids.pair, ids.ambiguous
        entries = {}
        halves = []
        torsion = []
        for lo, o in enumerate(ids.orders):
            rights = ids.by_order[order - o]
            for hi in rights[bisect_left(rights, lo):]:
                code = lo * size + hi
                if code in entries:
                    continue
                # the codes read with sign +1 and -1; <lo, hi> itself first
                plus, minus = [code], []
                # pair vertices v, and how the rest of the tree reads from v: sign * r
                stack = [(v, w, 1) for v, w in ((lo, hi), (hi, lo)) if kids[v]]
                while stack:
                    v, r, sign = stack.pop()
                    x, y = kids[v]
                    # the cyclic order at v is (x, y, rest): from x the tree
                    # reads (y, rest), from y it reads (rest, x)
                    if y <= r:
                        c, s = pair[y * size + r], sign
                    else:
                        c, s = pair[r * size + y], -sign
                    (plus if s > 0 else minus).append(x * size + c if x <= c else c * size + x)
                    if kids[x]:
                        stack.append((x, c, s))
                    if r <= x:
                        c, s = pair[r * size + x], sign
                    else:
                        c, s = pair[x * size + r], -sign
                    (plus if s > 0 else minus).append(y * size + c if y <= c else c * size + y)
                    if kids[y]:
                        stack.append((y, c, s))
                index = len(halves)
                halves.append((lo, hi))
                torsion.append(ambiguous[lo] or ambiguous[hi] or code in minus)
                entry = (index, 1)
                for c in plus:
                    entries[c] = entry
                if not torsion[index]:
                    entry = (index, -1)
                for c in minus:
                    entries[c] = entry
        self.entries = MappingProxyType(entries)
        self.halves = tuple(halves)
        self.torsion = tuple(torsion)
        self.trees = tuple(
            DecoratedTree(FRAMED, (ids.shapes[lo], ids.shapes[hi]), t)
            for (lo, hi), t in zip(halves, torsion)
        )


def _shape_counts(m: int, leaves: int, cap=None) -> list:
    """[R(1), ..., R(leaves)], R(k) the AS-canonical rooted shapes with k
    leaves on 1..m, cut after the first count over `cap`.

    A shape of k >= 2 leaves is an unordered pair of shapes of i and k - i
    leaves, so R(1) = m and
    R(k) = sum_{i < k - i} R(i) R(k - i) + [k even] R(k/2) (R(k/2) + 1) / 2.
    R never decreases: R(2) >= m and R(k) >= R(1) R(k - 1) past it.
    """
    counts = [0, m][:leaves + 1]
    while len(counts) <= leaves and (cap is None or counts[-1] <= cap):
        k = len(counts)
        total = sum(counts[i] * counts[k - i] for i in range(1, (k + 1) // 2))
        if k % 2 == 0:
            total += counts[k // 2] * (counts[k // 2] + 1) // 2
        counts.append(total)
    return counts[1:]


@lru_cache(maxsize=None)
def framed_table(m: int, order: int) -> FramedTable:
    """The framed trees of an order and their presentations, shared by every caller.

    A table of more than MAX_TABLE_ENTRIES entries is refused before it is
    built.  Its size is counted only up to the first R(k) over the budget,
    which R(order + 2) then passes too.
    """
    counts = _shape_counts(m, order + 2, MAX_TABLE_ENTRIES)
    if counts and counts[-1] > MAX_TABLE_ENTRIES:
        estimate = f"{counts[-1]:,}" if len(counts) == order + 2 else f"at least {counts[-1]:,}"
        raise ResourceLimitError(
            f"the framed table of order {order} at m = {m} needs {estimate} entries,"
            f" over the budget of {MAX_TABLE_ENTRIES:,}"
        )
    return FramedTable(m, order)


def framed_generators(m: int, order: int) -> tuple:
    """All canonical framed trees of the given order, sorted."""
    return framed_table(m, order).trees


@lru_cache(maxsize=None)
def twisted_generators(m: int, order: int) -> tuple:
    """All canonical twisted trees of the given order, sorted.

    Twisted trees are unsigned canonical shapes, so these are exactly the
    canonical shapes of that order in key order.
    """
    ids = shape_ids(m, order)
    return tuple(DecoratedTree(TWISTED, ids.shapes[i]) for i in ids.by_order[order])


def _trees(m: int, n: int, flavor: str) -> list:
    """Every canonical generator before the k bound, framed then twisted.

    Relation terms name a tree by its position here.
    """
    trees = list(framed_generators(m, n))
    if flavor == FLAVOR_TWISTED and n % 2 == 0:
        trees += twisted_generators(m, n // 2)
    return trees


def _resolvers(table):
    """(join, term) for the relation families, both read through the pair
    codes of `table.ids` and `table.entries`.

    join(i, si, j, sj) is the (id, sign) of the pair shape (si * i, sj * j),
    and term(coeff, i, si, j, sj) the term coeff * <si * i, sj * j>.
    """
    size, pair = table.ids.size, table.ids.pair
    entries, torsion = table.entries, table.torsion

    def join(i, si, j, sj):
        if i <= j:
            return pair[i * size + j], si * sj
        return pair[j * size + i], -si * sj

    def term(coeff, i, si, j, sj):
        index, sign = entries[i * size + j if i <= j else j * size + i]
        return (coeff if torsion[index] else coeff * sign * si * sj), index

    return join, term


def _framed_relations(table, indices):
    """2t = 0 for a symmetric t, and I - H + X = 0 at each internal edge.

    At the edge <x, rest> with x = (A, B) and rest = (C, D) the three terms
    are I = <(A,B),(C,D)>, H = <(A,C),(B,D)> and X = <(A,D),(B,C)>.  The
    edges are walked as `FramedTable` walks them, rest read with its sign.
    """
    join, term = _resolvers(table)
    kids = table.ids.kids

    def ihx(x, rest, sign, c, sc, d, sd):
        # x = (a, b) canonical, and sign * rest = (sc * c, sd * d)
        a, b = kids[x]
        return [
            term(1, x, 1, rest, sign),
            term(-1, *join(a, 1, c, sc), *join(b, 1, d, sd)),
            term(1, *join(a, 1, d, sd), *join(b, 1, c, sc)),
        ]

    for i in indices:
        if table.torsion[i]:
            yield [(2, i)]
        lo, hi = table.halves[i]
        if kids[lo] and kids[hi]:
            yield ihx(lo, hi, 1, kids[hi][0], 1, kids[hi][1], 1)
        # pair vertices v, and how the rest of the tree reads from v: sign * r
        stack = [(v, w, 1) for v, w in ((lo, hi), (hi, lo)) if kids[v]]
        while stack:
            v, r, sign = stack.pop()
            x, y = kids[v]
            # the cyclic order at v is (x, y, rest): from x the tree reads
            # (y, rest), from y it reads (rest, x)
            for half, c, sc, d, sd in ((x, y, 1, r, sign), (y, r, sign, x, 1)):
                if kids[half]:
                    rest, s = join(c, sc, d, sd)
                    yield ihx(half, rest, s, c, sc, d, sd)
                    stack.append((half, rest, s))


def _boundary_twist_relations(table, m, n):
    # i-<(J,J) = 0 for every label i and every rooted J of order (n-1)/2; J
    # runs over canonical shapes only, since the AS sign of J cancels in (J,J)
    ids = table.ids
    _, term = _resolvers(table)
    for i in range(1, m + 1):
        for j in ids.by_order[(n - 1) // 2]:
            yield [term(1, ids.labels[i], 1, ids.pair[j * ids.size + j], 1)]


def _interior_twist_relations(table, twisted):
    # 2*J^inf = <J,J>
    _, term = _resolvers(table)
    for j, u in twisted:
        yield [(2, u), term(-1, j, 1, j, 1)]


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
    join, term = _resolvers(table)
    kids = table.ids.kids
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
                yield [(1, u), (-1, number[h[0]]), (-1, number[k[0]]), term(1, *h, *k)]
                stack.append((v, ((w, left),) + up))


def _partner(join, a, w, b, up):
    """(id, sign) of J with ((a, w), b) grafted at the vertex `up` leads up from."""
    node = join(*join(a, 1, w, 1), b, 1)
    for other, left in up:
        node = join(*node, other, 1) if left else join(other, 1, *node)
    return node


class TableElement(NamedTuple):
    group: "TableGroup"
    coords: tuple  # one per surviving generator, over the residual's Smith basis

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)


class TableGroup:
    """A tree group presented on the framed table: its canonical generators,
    its relation rows, their presentation and the normal forms read off it,
    and its invariants read one block of rows per S_m-orbit of contents."""

    def __init__(self, m, n, flavor, k=None):
        if k is not None and k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.m = m
        self.n = n
        self.flavor = flavor
        self.k = k

    @property
    def _table(self):
        return framed_table(self.m, self.n)

    @cached_property
    def _twisted(self):
        """The shape id of each twisted J^inf -> its tree number."""
        if self.flavor != FLAVOR_TWISTED or self.n % 2:
            return {}
        first, ids = len(self._table.trees), self._table.ids
        return {j: first + p for p, j in enumerate(ids.by_order[self.n // 2])}

    @cached_property
    def _columns(self):
        """Each tree number's index among the trees the k bound keeps, None
        where it drops one.  A tree's label counts are its halves'
        `ShapeIds.label_counts`, summed, or twice its shape's."""
        table = self._table
        if self.k is None:
            return list(range(len(table.trees) + len(self._twisted)))
        counts = table.ids.label_counts
        codes = chain(
            (counts[lo] + counts[hi] for lo, hi in table.halves),
            (2 * counts[j] for j in self._twisted),
        )
        columns, kept = [], 0
        for ok in table.ids.within(codes, self.k):
            columns.append(kept if ok else None)
            kept += ok
        return columns

    @cached_property
    def generators(self):
        """The canonical trees, framed then twisted, that the k bound keeps."""
        trees = _trees(self.m, self.n, self.flavor)
        return [t for t, c in zip(trees, self._columns) if c is not None]

    @cached_property
    def index(self):
        """Generator -> its index."""
        return {g: i for i, g in enumerate(self.generators)}

    def _rows(self, framed, twisted, column):
        """Sparse rows ((column, coeff), ...) of the relations that the
        framed tree numbers `framed` and the twisted (shape id, tree number)
        pairs `twisted` seed, and of every boundary twist, deduplicated and
        sorted; column(u) maps a term's tree number to its column, or to
        None, which drops the term."""
        table, n = self._table, self.n
        families = [_framed_relations(table, framed)]
        if self.flavor == FLAVOR_TWISTED:
            if n % 2 == 1:
                families.append(_boundary_twist_relations(table, self.m, n))
            else:
                families += [
                    _interior_twist_relations(table, twisted),
                    _twisted_ihx_relations(table, twisted, self._twisted),
                ]
        rows = set()
        for terms in chain.from_iterable(families):
            row = {}
            for coeff, u in terms:
                j = column(u)
                if j is not None:
                    row[j] = row.get(j, 0) + coeff
            row = tuple(sorted((j, x) for j, x in row.items() if x))
            if row:
                rows.add(row)
        return sorted(rows)

    @cached_property
    def relations(self):
        """Sparse rows ((generator index, coeff), ...) of every relation."""
        columns = self._columns
        framed = [i for i in range(len(self._table.trees)) if columns[i] is not None]
        twisted = [(j, u) for j, u in self._twisted.items() if columns[u] is not None]
        return self._rows(framed, twisted, columns.__getitem__)

    @cached_property
    def snf(self):
        """The `Presentation` of every relation row."""
        return presentation(self.relations, len(self.generators))

    def _selects(self, tree):
        if tree.kind == FRAMED:
            ok = tree.order == self.n
        elif tree.kind == TWISTED:
            ok = self.flavor == FLAVOR_TWISTED and 2 * tree.order == self.n
        else:
            ok = False
        return ok and (self.k is None or multiplicity(tree) <= self.k)

    def reduce_forest(self, forest):
        """Normal form of the order-n (and matching kind) part of a forest."""
        coords = {}
        for coeff, tree in forest.terms:
            if self._selects(tree):
                j = self.index[tree]
                coords[j] = coords.get(j, 0) + coeff
        return TableElement(self, self.snf.reduce(coords.items()))

    def is_zero(self, forest):
        return self.reduce_forest(forest).is_zero

    def _blocks(self):
        """(content, orbit size, generator count, `Presentation`) of the block
        of each representative content of `content_orbits` that has trees:
        its generators are the trees of its content, framed then twisted,
        and its rows those the trees seed."""
        table = self._table
        counts, labels = table.ids.label_counts, table.ids.labels
        blocks = {}  # content code of each representative -> (content, size, framed, twisted)
        for content, size in content_orbits(self.m, self.n + 2):
            if self.k is None or content.count(1) <= self.k:
                blocks[sum(counts[labels[x]] for x in content)] = (content, size, [], [])
        for i, (lo, hi) in enumerate(table.halves):
            block = blocks.get(counts[lo] + counts[hi])
            if block:
                block[2].append(i)
        for j, u in self._twisted.items():
            block = blocks.get(2 * counts[j])
            if block:
                block[3].append((j, u))
        for content, size, framed, twisted in blocks.values():
            at = {u: c for c, u in enumerate(framed + [u for _, u in twisted])}
            if at:
                rows = self._rows(framed, twisted, at.get)
                yield content, size, len(at), presentation(rows, len(at))

    def invariants(self):
        """(free_rank, [torsion orders]) read off the blocks."""
        free, torsion = 0, []
        for _, size, width, snf in self._blocks():
            free += size * (width - len(snf.pivots) - len(snf.diag))
            torsion += [d for d in snf.diag if d > 1] * size
        return free, divisibility_chain(torsion)[0]


table_group = lru_cache(maxsize=None)(TableGroup)
