"""Finitely presented abelian groups of decorated trees.

Invariants come from one of two presentations, each split into blocks by
label content (last paragraph).  The twisted T_n^inf at every order and the
framed T_n at even order read theirs off Lie coordinates (`lie_blocks`);
the framed T_n at odd order, and every normal form, off the table of trees.

On the table, a group is presented by an ordered generator list (canonical
trees) and an integer relation matrix.  Framed groups impose 2t = 0 on
symmetric trees and Jacobi relations; twisted groups add boundary-twist
relations in odd order and interior-twist plus twisted-Jacobi relations in
even order.  Each family walks the trees over the shape ids of `trees` and
yields its relations as lists of (coeff, tree number) terms, a tree number
being a position in the generator list before the k bound: a framed term
is resolved by the pair code of its two halves in the table's `entries`, a
twisted one by its shape id, and each pair shape a term builds by its
branches' pair code in `ShapeIds.pair` (`_resolvers`).  `TreeGroup` alone
turns them into sparse rows, numbering each term's tree by a column map.
Framed odd-order invariants build only the rows that the trees of one
representative content per S_m-orbit seed (`TreeGroup._blocks`), which
also stays the oracle of the Lie blocks.  Normal forms and zero tests read
the `presentation` of every row, built when first read: one coordinate per
generator that no unit pivot eliminates, over the Smith basis of the
columns the residual names, then the rest.  The table, the trees of
`TreeGroup.generators` and the rows are built only when one of these
reads them.

On Lie coordinates (`twisted_block`), x (x) B -> <x, B> maps
L_1 (x) L'_{n+1}, L' the free quasi-Lie ring, onto the framed T_n: every
tree is <x, B> read at any of its leaves x, and read at a leaf, AS and IHX
are antisymmetry and Jacobi.  Its kernel is spanned by the re-rooting
differences, a tree read at x minus the same tree read at another leaf;
the rows keep those of the trees <x, std(w)>, std(w) the standard
bracketing of a Lyndon word w, each reading reduced on the Lyndon basis.
L' is L but for the top brackets [u, u], since a nested one vanishes by
Jacobi and antisymmetry.  So L'_{n+1} = L_{n+1} at even n, where n + 1 is
odd, and at twisted odd n the boundary twists <x, (J, J)> = 0 kill the
rest, Z/2 (x) L_{(n+1)/2} (Levine, AGT 6, 2006); framed odd n keeps it,
and stays on the table.  At twisted even n, twisted IHX makes J -> J^inf
quadratic with polar form <.,.> (Conant-Schneiderman-Teichner,
J. Topology 2014): (J + K)^inf = J^inf + K^inf + <J, K>, and
(-J)^inf = J^inf.  So modulo the framed part the w^inf of the Lyndon words
w of degree n/2 + 1 generate, with 2 w^inf = <w, w> by the interior twist,
and at n = 2 mod 4 so do the (v, v)^inf of the Lyndon words v of degree
(n+2)/4, of order 2, which the Lie value [v, v] = 0 of J does not see.
That the kept differences span all of them is checked, not proved, here:
the tests compare each block's invariants with those of the table's block
of the same content, where an onto map between groups with the same
invariants is an isomorphism, and past the table's reach the rank with
m W(m,n+1) - W(m,n+2) and the torsion with CST's Z/2 (x) L_{(n+2)/4}.
`group --json` lists this generating set (`TreeGroup.generator_texts`).
Each block is built once per process (`lie_block`), for `group` and eta
alike, and a cell whose blocks would make more than MAX_LIE_ROWS rows is
refused before any is built.

Relations, readings and Lyndon rewriting keep a tree's content, the
sorted tuple of its leaf labels, J^inf counting J's twice, as the free Lie
ring's multigrading does (Reutenauer, *Free Lie Algebras*, 1993).  So T_n
and T_n^inf are the sum of one block per content of n + 2 leaves, and a
label permutation carries each block onto another: one block per S_m-orbit
(`content_orbits`) gives the invariants of its whole orbit
(`content_orbit`), its free rank and torsion repeated by the orbit's size
and the torsion merged into one divisibility chain.  The k bound keeps the
blocks whose label counts are at most k.  On the table, `TreeGroup` reads
both the k bound and the trees' contents off one exact code,
`ShapeIds.label_counts`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import factorial, perm
from typing import NamedTuple

from .errors import DomainError, GeneratorNotFoundError, ParameterError, ResourceLimitError
from .forest import IntersectionForest, make_forest
from .freelie import (
    fine_witt,
    leaf_readings,
    lyndon_by_content,
    lyndon_count,
    lyndon_words,
    standard_bracketing,
    word_multiplicity,
)
from .intlinalg import presentation
from .trees import (
    FRAMED,
    MAX_TABLE_ENTRIES,
    TWISTED,
    DecoratedTree,
    framed_generators,
    framed_table,
    framed_tree,
    multiplicity,
    shape_str,
    twisted_generators,
    twisted_tree,
)

FLAVOR_FRAMED = "framed"
FLAVOR_TWISTED = "twisted"

# the most relation rows the Lie-coordinate blocks of one cell may make, at
# about 5 KB each: (3,10) twisted makes about 137,000 in 37 s at a 0.7 GB peak
MAX_LIE_ROWS = 200_000

# the most generators (x, w) `group --json` lists on Lie coordinates: the
# standard bracketings of the Lyndon words are distinct shapes, so
# m W(m, n+1) <= R(1) R(n+1) <= 2 R(n+2), and every cell whose framed table
# is within its budget is within this one
MAX_LIE_GENERATORS = 2 * MAX_TABLE_ENTRIES


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


class GroupElement(NamedTuple):
    group: "TreeGroup"
    coords: tuple  # one per surviving generator, over the residual's Smith basis

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)


class TreeGroup:
    """A graded tree group: its invariants, and the generators and the
    presentation of its relation rows that normal forms read.

    Twisted at every order and framed at even order read their invariants
    off one Lie-coordinate block per S_m-orbit of contents (`lie_blocks`);
    framed odd order reads one block of the table's relation rows per
    orbit (`_blocks`).  The table, and with it `generators`, is built only
    when read: by normal forms, zero tests and framed odd order.
    """

    def __init__(self, m, n, flavor, k=None):
        if flavor not in (FLAVOR_FRAMED, FLAVOR_TWISTED):
            raise ParameterError(f"unknown flavor {flavor!r}")
        if k is not None and k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.m = m
        self.n = n
        self.flavor = flavor
        self.k = k

    @property
    def _table(self):
        """The framed table the trees and relations are read in, not held,
        so that a group pickles."""
        return framed_table(self.m, self.n)

    @property
    def _on_lie(self):
        """Whether the invariants come from Lie-coordinate blocks."""
        return self.flavor == FLAVOR_TWISTED or self.n % 2 == 0

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

    def generator_texts(self) -> list:
        """The generating set the invariants are computed on, as text: the
        canonical trees of `generators` off the table, and on Lie
        coordinates those of `lie_generators`, each printed as written and
        not canonicalized: <x,std(w)>, then std(w)^inf, then
        (std(v),std(v))^inf."""
        if not self._on_lie:
            return [str(t) for t in self.generators]
        pairs, twists = lie_generators(self.m, self.n, self.flavor, self.k)
        words = {w for _, w in pairs}.union(*twists)
        text = {w: shape_str(standard_bracketing(w)) for w in words}
        out = [f"<{x},{text[w]}>" for x, w in pairs]
        for form, twisted in zip(("{0}^inf", "({0},{0})^inf"), twists):
            out += [form.format(text[w]) for w in twisted]
        return out

    def _rows(self, framed, twisted, column):
        """Sparse rows ((column, coeff), ...) of the relations that the
        framed tree numbers `framed` and the twisted (shape id, tree number)
        pairs `twisted` seed, and of every boundary twist, deduplicated and
        sorted.

        column(u) maps the tree number of each term to its column, or to
        None, which drops the term: its tree is zero in the multiplicity
        quotient, or, as a boundary twist's one term, lies outside the block
        the rows are for.
        """
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
        """Sparse rows ((generator index, coeff), ...) of every relation,
        deduplicated and sorted; the k bound drops the terms of the trees it
        removes."""
        columns = self._columns
        framed = [i for i in range(len(self._table.trees)) if columns[i] is not None]
        twisted = [(j, u) for j, u in self._twisted.items() if columns[u] is not None]
        return self._rows(framed, twisted, columns.__getitem__)

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

    def _blocks(self):
        """(content, orbit size, generator count, `Presentation`) of the block
        of each representative content of `content_orbits` that has trees.

        A block's generators are the trees of its content, framed in tree
        order and then twisted, numbered from 0, and its rows are those the
        trees seed.  The k bound keeps the blocks whose label counts are all
        at most k; label 1 counts the most in a representative.
        """
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

    def _lie_blocks(self):
        """(content, orbit size, generator count, `Presentation`) of the
        Lie-coordinate block of each representative content the k bound
        keeps, as `_blocks` gives them off the table."""
        for content, size, block, snf in lie_blocks(self.m, self.n, self.flavor, self.k):
            yield content, size, len(block.images), snf

    @cached_property
    def _invariants(self):
        """(free rank, torsion chain): each block's, repeated by its orbit's size."""
        free, torsion = 0, []
        for _, size, width, snf in self._lie_blocks() if self._on_lie else self._blocks():
            free += size * (width - len(snf.pivots) - len(snf.diag))
            torsion += [d for d in snf.diag if d > 1] * size
        return free, divisibility_chain(torsion)[0]

    def invariants(self):
        """(free_rank, [torsion orders]) of the presented group."""
        free, torsion = self._invariants
        return free, list(torsion)

    def invariants_str(self) -> str:
        free, torsion = self.invariants()
        parts = [f"Z^{free}"] + [f"Z/{d}" for d in torsion]
        return " + ".join(parts)


_groups = lru_cache(maxsize=None)(TreeGroup)


def build_group(m: int, n: int, flavor: str, k=None) -> TreeGroup:
    """The group of (m, n, flavor, k), built once per process: every call
    reaches one cache with all four arguments, so a k left out and k = None
    share an entry."""
    if m < 1 or n < 0:
        raise ParameterError("build_group requires m >= 1, n >= 0")
    return _groups(m, n, flavor, k)


def content_orbits(m: int, total: int):
    """(representative, size) of each S_m-orbit of the contents of `total`
    leaves: per partition p of `total` into at most m parts, the content of
    p_1 ones, p_2 twos and so on, and the orbit's size, m! / (m - len p)!
    over the factorial of each part's multiplicity in p."""
    if m < 1 or total < 1:
        raise ParameterError("content orbits require m >= 1, total >= 1")
    stack = [((), total)]
    while stack:
        parts, rest = stack.pop()
        if not rest:
            size = perm(m, len(parts))
            for c in set(parts):
                size //= factorial(parts.count(c))
            yield tuple(x for x, c in enumerate(parts, 1) for _ in range(c)), size
        elif len(parts) < m:
            top = min(rest, parts[-1]) if parts else rest
            stack += [(parts + (c,), rest - c) for c in range(1, top + 1)]


def divisibility_chain(factors):
    """The sum of the Z/d, d in `factors` (Z for d = 0), as its invariant
    factors, one divisibility chain d > 1 and then 0s, and the `Presentation`
    over the indices of `factors` whose summands generate them."""
    group = presentation([((i, d),) for i, d in enumerate(factors) if d], len(factors))
    chain = [d for d in group.diag if d > 1]
    return chain + [0] * (len(group.survivors) - len(group.diag)), group


def content_orbit(m: int, content: tuple) -> list:
    """Each content of a representative's S_m-orbit, sorted, with the map
    `labels`, x to labels[x - 1], that carries the representative onto it."""
    counts = [content.count(x) for x in range(1, content[-1] + 1)]
    maps = [()]
    for c in sorted(set(counts), reverse=True):
        maps = [s + t for s in maps
                for t in combinations([x for x in range(1, m + 1) if x not in s], counts.count(c))]
    return sorted((tuple(sorted(s[x - 1] for x in content)), s) for s in maps)


def _relabel(shape, labels):
    if isinstance(shape, int):
        return labels[shape - 1]
    return _relabel(shape[0], labels), _relabel(shape[1], labels)


class TwistedBlock(NamedTuple):
    """The block of one content of the twisted T_n^inf on Lie coordinates.

    Generators, numbered in this order: (x, w) for each pair in `framed`, a
    label x and a Lyndon word w of degree n + 1 whose letters and x make up
    `content`, then J^inf for each shape J in `twisted`.  `relations` are
    sparse rows ((generator, coeff), ...) over them.  `images` holds eta of
    each generator as a {column: coeff} row whose keys (label, Lyndon word)
    are numbered as the generators (x, w) are.
    """

    m: int
    content: tuple
    framed: tuple
    twisted: tuple  # std(w) for the w^inf, then (std(v), std(v)) for the (v,v)^inf
    relations: tuple
    images: tuple

    def forest(self, row, labels):
        """The forest of a sparse row ((generator, coeff), ...), each label x
        read as labels[x - 1]: (x, w) is <x, std(w)>, std the standard
        bracketing, and the others are the J^inf of `twisted`."""
        framed, terms = len(self.framed), []
        for g, c in row:
            if g < framed:
                x, w = self.framed[g]
                tree, sign = framed_tree(labels[x - 1], _relabel(standard_bracketing(w), labels))
                terms.append((c * sign, tree))
            else:
                terms.append((c, twisted_tree(_relabel(self.twisted[g - framed], labels))))
        return make_forest(self.m, terms)


def twisted_block(m: int, n: int, content: tuple, flavor=FLAVOR_TWISTED) -> TwistedBlock:
    """The block of a content of the twisted T_n^inf, or of the framed T_n
    at even n, and eta on it.

    The rows (see the module docstring) are, for each generator (x, w), the
    generator minus the reading of <x, std(w)> at each other leaf, then,
    twisted only, 2 w^inf minus each reading of <std(w), std(w)>, then
    2 (v,v)^inf, deduplicated up to sign.  eta comes with the readings:
    eta(x, w) is the sum of every reading of <x, std(w)>, and eta(w^inf)
    half that of <std(w), std(w)>, whose two halves read alike, so the sum
    of one half's readings; eta((v,v)^inf) = 0.
    """
    memo = {}  # basis-pair brackets, as for `lie_bracket`
    framed, column = [], {}  # column: label -> {Lyndon word: generator}
    for x in sorted(set(content)):
        i = content.index(x)
        for w in lyndon_by_content(m, n + 1).get(content[:i] + content[i + 1:], ()):
            column.setdefault(x, {})[w] = len(framed)
            framed.append((x, w))
    rows = {}  # each sparse row, its first entry positive, in the order made

    def read(g, scale, readings):
        """eta's image summed from the readings y (x) B, and the row
        scale * e_g - y (x) B of each."""
        image = {}
        for y, b in readings:
            row = {g: scale}
            for u, c in b.items():
                if c:
                    j = column[y][u]
                    image[j] = image.get(j, 0) + c
                    row[j] = row.get(j, 0) - c
            if not row[g]:
                del row[g]
            if row:
                row = tuple(sorted(row.items()))
                rows[row if row[0][1] > 0 else tuple((j, -c) for j, c in row)] = None
        return image

    images = []
    for g, (x, w) in enumerate(framed):
        image = read(g, 1, leaf_readings(w, {(x,): 1}, memo))
        image[g] = image.get(g, 0) + 1  # the reading at x itself
        images.append(image)
    half, quarter, twisted = content[::2], content[::4], []
    twists = flavor == FLAVOR_TWISTED
    if twists and n % 2 == 0 and tuple(sorted(half * 2)) == content:
        for w in lyndon_by_content(m, n // 2 + 1).get(half, ()):
            # <w, w> read at each leaf of one half; the other half reads alike
            images.append(read(len(images), 2, leaf_readings(w, {w: 1}, memo)))
            twisted.append(standard_bracketing(w))
    if twists and n % 4 == 2 and tuple(sorted(quarter * 4)) == content:
        for v in lyndon_by_content(m, (n + 2) // 4).get(quarter, ()):
            rows[((len(images), 2),)] = None
            images.append({})
            twisted.append((standard_bracketing(v),) * 2)
    images = tuple({j: c for j, c in image.items() if c} for image in images)
    return TwistedBlock(m, content, tuple(framed), tuple(twisted), tuple(rows), images)


@lru_cache(maxsize=None)
def lie_block(m: int, n: int, flavor: str, content: tuple):
    """(`twisted_block`, its relations' `Presentation`) of one content,
    built once per process for `group` and eta alike."""
    block = twisted_block(m, n, content, flavor)
    return block, presentation(block.relations, len(block.images))


def _twist_degrees(n: int, flavor: str) -> list:
    """(degree, times) of the Lyndon words the twisted generators are made
    of, each counting its word's labels `times` times: twisted at even n,
    w of degree n/2 + 1 for w^inf, twice, and at n = 2 mod 4, v of degree
    (n + 2)/4 for (v,v)^inf, four times."""
    if flavor != FLAVOR_TWISTED or n % 2:
        return []
    return [(n // 2 + 1, 2)] + ([((n + 2) // 4, 4)] if n % 4 == 2 else [])


def _block_width(n: int, flavor: str, content: tuple) -> int:
    """The generator count of a content's Lie-coordinate block, by the
    fine-graded Witt count: W(a - e_x) over each label x of the content's
    label counts a, then W(a / times) for the twisted generators
    (`_twist_degrees`) where times divides a."""
    counts = [content.count(x) for x in range(1, content[-1] + 1)]
    width = sum(fine_witt(counts[:x] + [c - 1] + counts[x + 1:]) for x, c in enumerate(counts) if c)
    for _, times in _twist_degrees(n, flavor):
        if all(c % times == 0 for c in counts):
            width += fine_witt([c // times for c in counts])
    return width


def lie_blocks(m: int, n: int, flavor: str, k=None) -> list:
    """(content, orbit size, block, `Presentation`) of the `lie_block` of
    each representative content of `content_orbits` whose label counts are
    at most k; label 1 counts the most in a representative.

    A cell whose blocks would make more than MAX_LIE_ROWS rows, about
    n + 1 per generator, or one of whose degrees has more Lyndon words than
    their budget, is refused before any is built.  The generators are
    counted over the whole cell, and only past the budget over each
    representative (`_block_width`).
    """
    # the whole cell's generators, each degree within the Lyndon budget so
    # that the counts below are cheap; without any, as on one label past
    # order 2, there is no block
    width = m * lyndon_count(m, n + 1)
    width += sum(lyndon_count(m, d) for d, _ in _twist_degrees(n, flavor))
    if not width:
        return []
    kept = [(c, size) for c, size in content_orbits(m, n + 2) if k is None or c.count(1) <= k]
    rows = (n + 1) * width  # over every block, so over the representatives too
    if rows > MAX_LIE_ROWS:
        rows = (n + 1) * sum(_block_width(n, flavor, c) for c, _ in kept)
    if rows > MAX_LIE_ROWS:
        raise ResourceLimitError(
            f"the Lie-coordinate blocks of {flavor} order {n} at m = {m} make about"
            f" {rows:,} relation rows, over the budget of {MAX_LIE_ROWS:,}"
        )
    return [(c, size, *lie_block(m, n, flavor, c)) for c, size in kept]


def lie_generators(m: int, n: int, flavor: str, k=None):
    """The generators of the cell on Lie coordinates that the k bound keeps,
    as (pairs, twists): pairs holds the (x, w) of each label x and Lyndon
    word w of degree n + 1, x outer, and twists the Lyndon words of each
    kind of twisted generator, as `_twist_degrees` lists them: the w of the
    w^inf, then the v of the (v,v)^inf.  Each list of words is in Lyndon
    word order, and a generator is kept when its tree's labels, J^inf
    counting J's twice, repeat at most k times.

    More than MAX_LIE_GENERATORS pairs are refused before any is listed.
    """
    count = m * lyndon_count(m, n + 1)
    if count > MAX_LIE_GENERATORS:
        raise ResourceLimitError(
            f"{flavor} order {n} at m = {m} has {count:,} generators (x, w) on Lie coordinates,"
            f" over the budget of {MAX_LIE_GENERATORS:,}"
        )

    def words(degree, times):
        return [w for w in lyndon_words(m, degree)
                if k is None or word_multiplicity(w * times) <= k]

    pairs = [(x, w) for x in range(1, m + 1) for w in lyndon_words(m, n + 1)
             if k is None or word_multiplicity(w + (x,)) <= k]
    return pairs, [words(d, times) for d, times in _twist_degrees(n, flavor)]
