"""Finitely presented abelian groups of decorated trees, on Lie coordinates.

x (x) B -> <x, B> maps L_1 (x) L'_{n+1}, L' the free quasi-Lie ring, onto
the framed T_n: every tree is <x, B> read at any of its leaves x, and read
at a leaf, AS and IHX are antisymmetry and Jacobi.  Its kernel is spanned
by the re-rooting differences, a tree read at x minus the same tree read at
another leaf; the rows of a block (`twisted_block`) keep those of the trees
<x, B>, B a basis element of L'_{n+1}, each reading reduced on that basis.
L' is L but for the top brackets [u, u], since a nested one vanishes by
Jacobi and antisymmetry: L'_{2d} = L_{2d} + Z/2 (x) L_d, with basis the
Lyndon words and the squares [v, v] of those of degree d (Levine, AGT 6,
2006; `freelie.quasi_memo`).  So L'_{n+1} = L_{n+1} at even n, where n + 1
is odd; at framed odd n the generators are the (x, w) and the (x, [v, v])
of order 2, and at twisted odd n the boundary twists <x, (J, J)> = 0 kill
the squares.  At twisted even n, twisted IHX makes J -> J^inf quadratic
with polar form <.,.> (Conant-Schneiderman-Teichner, J. Topology 2014):
(J + K)^inf = J^inf + K^inf + <J, K>, and (-J)^inf = J^inf.  So modulo the
framed part the w^inf of the Lyndon words w of degree n/2 + 1 generate,
with 2 w^inf = <w, w> by the interior twist, and at n = 2 mod 4 so do the
(v, v)^inf of the Lyndon words v of degree (n+2)/4, of order 2, which the
Lie value [v, v] = 0 of J does not see.  That the kept differences span all
of them is checked, not proved, here: the tests compare each block's
invariants with those of the framed table's block of the same content, an
oracle the tests keep, where an onto map between groups with the same
invariants is an isomorphism, and past the table's reach the rank with
m W(m,n+1) - W(m,n+2) and the torsion with m W(m,(n+1)/2) summands Z/2 at
framed odd n and CST's Z/2 (x) L_{(n+2)/4} at twisted n = 2 mod 4.
These four families are stated once (`_families`) for every block, count
and listing; `group --json` lists them (`TreeGroup.generator_texts`).  A
block depends only on its order, flavor and content, m deciding only which
contents occur, so each is built once per process (`lie_block`), for every
m, and for `group`, normal forms and eta alike; a cell whose blocks would
make more than MAX_LIE_ROWS rows is refused before any is built.

A normal form reads each tree into the block of its content
(`TreeGroup.reduce_forest`): a framed tree <A, B> at the first leaf y of A,
as y (x) the rest on the basis of L', and a J^inf by the quadratic
refinement: J = sum c_i P_i in L' gives sum c_i^2 P_i^inf +
sum_{i<j} c_i c_j <P_i, P_j>, where the P^inf of a square [v, v] is its
(v, v)^inf and every <P, [v, v]> vanishes, the square nested in its
reading.  Only the blocks a forest touches are built, and each block's
`Presentation` reduces the part of the forest in it.

Relations, readings and Lyndon rewriting keep a tree's content, the
sorted tuple of its leaf labels, J^inf counting J's twice, as the free Lie
ring's multigrading does (Reutenauer, *Free Lie Algebras*, 1993).  So T_n
and T_n^inf are the sum of one block per content of n + 2 leaves, and a
label permutation carries each block onto another: one block per S_m-orbit
(`content_orbits`) gives the invariants of its whole orbit
(`content_orbit`), its free rank and torsion repeated by the orbit's size
and the torsion merged into one divisibility chain, and a tree of any
content is read, relabeled, in its representative's block.  The k bound
keeps the blocks whose label counts are at most k.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial, perm
from typing import NamedTuple

from .errors import DomainError, ParameterError, ResourceLimitError
from .forest import IntersectionForest
from .freelie import (
    fine_witt,
    is_square,
    lie_coordinates,
    lyndon_count,
    lyndon_words,
    lyndon_words_of,
    quasi_memo,
    standard_bracketing,
    tree_readings,
    word_multiplicity,
)
from .intlinalg import presentation
from .trees import FRAMED, TWISTED, DecoratedTree, framed_tree, multiplicity, shape_str, twisted_tree

FLAVOR_FRAMED = "framed"
FLAVOR_TWISTED = "twisted"

# the most relation rows the Lie-coordinate blocks of one cell may make, at
# about 5 KB each: (3,10) twisted makes about 137,000 in 37 s at a 0.7 GB peak
MAX_LIE_ROWS = 200_000

# the most generators `group --json` lists: each costs about 150 bytes while
# the listing is made and printed (framed (200,1) lists 4,020,000 at a 617 MB
# peak), so 8,000,000 take about 1.2 GB
MAX_LIE_GENERATORS = 8_000_000


class GroupElement(NamedTuple):
    group: "TreeGroup"
    # (content, coordinates) of each content whose part of the forest is
    # nonzero, by content: the part's coordinates over the survivors of its
    # representative's block, as that block's `Presentation` reduces it
    coords: tuple

    @property
    def is_zero(self):
        return not self.coords


def _representative(content: tuple):
    """(representative, labels) of a content: its S_m-orbit's representative
    in `content_orbits`, and the first of `_relabelings`, x -> labels[x - 1],
    which carries the content onto it, labels ordered by count, then by
    label."""
    labels = next(_relabelings(content))
    return tuple(sorted(labels[x - 1] for x in content)), labels


def _relabelings(content: tuple):
    """Every relabeling x -> labels[x - 1] that carries a content onto its
    representative, lazily: the labels of each count, most frequent first,
    permuted among themselves, first the relabeling that keeps each count's
    labels in order."""
    counts = {x: content.count(x) for x in set(content)}
    tied = [sorted(x for x in counts if counts[x] == c) for c in sorted(set(counts.values()), reverse=True)]

    def choose(i, first, labels):
        if i == len(tied):
            yield list(labels)
            return
        for p in permutations(range(first, first + len(tied[i]))):
            for x, y in zip(tied[i], p):
                labels[x - 1] = y
            yield from choose(i + 1, first + len(tied[i]), labels)

    return choose(0, 1, [0] * content[-1])


class TreeGroup:
    """A graded tree group as a view over the Lie-coordinate blocks of its
    cell (`lie_blocks`): its invariants, its generating set and the normal
    forms of forests.

    Invariants read one block per S_m-orbit of contents; a normal form
    reads only the blocks its forest touches, each built when first read,
    and keeps each canonical tree's coordinates in its block.
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
        self._built = {}  # representative -> (block, `Presentation`) read so far
        self._readings = {}  # canonical tree -> (content, representative, {generator: coeff})
        # a framed reading at odd n, or a J at n = 2 mod 4, has squares in L'
        squares = n % 2 if flavor == FLAVOR_FRAMED else n % 4 == 2
        self._memo = quasi_memo() if squares else {}

    def _lie_blocks(self):
        """(content, orbit size, generator count, `Presentation`) of the
        block of each representative content the k bound keeps."""
        for content, size, block, snf in lie_blocks(self.m, self.n, self.flavor, self.k):
            self._built[content] = block, snf
            yield content, size, len(block.images), snf

    @cached_property
    def snf(self):
        """The `Presentation` of each representative block, by content:
        reading it builds and factors every block of the cell."""
        return {content: snf for content, _, _, snf in self._lie_blocks()}

    @property
    def relations(self):
        """The relation rows of the blocks this group has read so far, block
        by block; reading it builds nothing."""
        return [row for block, _ in self._built.values() for row in block.relations]

    def generator_texts(self) -> list:
        """The generating set the invariants are computed on, as text, in
        the order of `lie_generators`, each tree printed as written and not
        canonicalized: <x,std(w)>, at framed odd order <x,(std(v),std(v))>,
        then std(w)^inf and (std(v),std(v))^inf."""
        pairs, twisted = lie_generators(self.m, self.n, self.flavor, self.k)
        words = {w for _, w in pairs}.union(twisted)
        text = {w: shape_str(_word_shape(w)) for w in words}
        return [f"<{x},{text[w]}>" for x, w in pairs] + [f"{text[w]}^inf" for w in twisted]

    def _block(self, content):
        """(`Presentation`, `TwistedBlock.index`) of the block of a
        representative content, built when first read; a block of more than
        MAX_LIE_ROWS rows is refused before it is built."""
        if content not in self._built:
            _refuse_rows((self.n + 1) * _block_width(self.n, self.flavor, content),
                         f"the Lie-coordinate block of content {content} at {self.flavor} order {self.n}"
                         " makes")
            self._built[content] = lie_block(self.n, self.flavor, content)
        block, snf = self._built[content]
        return snf, block.index

    def _read(self, tree: DecoratedTree, representative, labels) -> dict:
        """{generator: coeff} of a selected tree, relabeled x -> labels[x - 1],
        in the block of the representative (module docstring)."""
        index, memo, out = self._block(representative)[1], self._memo, {}

        def add(scale, label, reading):
            for word, c in reading.items():
                if c:
                    g = index[label, word]
                    out[g] = out.get(g, 0) + scale * c

        if tree.kind == FRAMED:
            a, b = (_relabel(half, labels) for half in tree.data)
            add(1, *next(tree_readings(a, lie_coordinates(b, memo), memo)))
            return out
        terms = sorted(lie_coordinates(_relabel(tree.data, labels), memo).items())
        for word, c in terms:
            out[index[word]] = c * c
        lie = [(word, c) for word, c in terms if not is_square(word)]
        for i, (word, c) in enumerate(lie[:-1]):
            add(c, *next(tree_readings(standard_bracketing(word), dict(lie[i + 1:]), memo)))
        return out

    def _reading(self, tree: DecoratedTree):
        """(content, representative, {generator: coeff}) of a selected tree,
        read through `_representative`'s relabeling, kept per tree."""
        out = self._readings.get(tree)
        if out is None:
            content = tuple(sorted(tree.leaves() * (2 if tree.kind == TWISTED else 1)))
            representative, labels = _representative(content)
            out = content, representative, self._read(tree, representative, labels)
            self._readings[tree] = out
        return out

    def _parts(self, forest: IntersectionForest) -> dict:
        """content -> [(coeff, tree)] of the order-n (and matching kind) part."""
        if forest.m != self.m:
            raise DomainError("index count mismatch")
        parts = {}
        for coeff, tree in forest.terms:
            if self._selects(tree):
                parts.setdefault(self._reading(tree)[0], []).append((coeff, tree))
        return parts

    def reduce_forest(self, forest: IntersectionForest) -> GroupElement:
        """Normal form of the order-n (and matching kind) part of a forest,
        one content at a time; a forest with no such part builds no block."""
        coords = []
        for content, terms in sorted(self._parts(forest).items()):
            representative = self._reading(terms[0][1])[1]
            reduced = self._reduce(representative, terms, lambda tree: self._reading(tree)[2])
            if any(reduced):
                coords.append((content, reduced))
        return GroupElement(self, tuple(coords))

    def witness(self, forest: IntersectionForest) -> list:
        """(representative, coordinates) of each content whose part of the
        forest is nonzero, sorted: the least coordinates the part takes over
        every relabeling onto the representative (`_relabelings`), so that
        relabeling the forest by S_m leaves the witness as it is."""
        out = []
        for content, terms in self._parts(forest).items():
            representative = _representative(content)[0]
            best = min(self._reduce(representative, terms,
                                    lambda tree: self._read(tree, representative, labels))
                       for labels in _relabelings(content))
            if any(best):
                out.append((representative, best))
        return sorted(out)

    def _reduce(self, representative, terms, read) -> tuple:
        """The normal form of sum c * read(tree) over the (c, tree) of `terms`,
        each read(tree) {generator: coeff} in the representative's block."""
        vector = {}
        for coeff, tree in terms:
            for g, c in read(tree).items():
                vector[g] = vector.get(g, 0) + coeff * c
        return self._block(representative)[0].reduce(vector.items())

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
    def _invariants(self):
        """(free rank, torsion chain): each block's, repeated by its orbit's size."""
        free, torsion = 0, []
        for _, size, width, snf in self._lie_blocks():
            free += size * (width - len(snf.pivots) - len(snf.diag))
            torsion += [d for d in snf.diag if d > 1] * size
        torsion.sort()
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            torsion = divisibility_chain(torsion)[0]
        return free, torsion  # sorted, it is a chain already, as where every d is 2

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


def _word_shape(word):
    """The rooted shape of a basis key: std(w) for a Lyndon word w, and
    (std(v), std(v)) for a square vv."""
    if is_square(word):
        return (standard_bracketing(word[:len(word) // 2]),) * 2
    return standard_bracketing(word)


class TwistedBlock(NamedTuple):
    """The block of one content of a tree group on Lie coordinates, one for
    every m, which decides only whether the content occurs.

    Generators, numbered in this order, one run per family of `_families`:
    (x, w) for each pair in `framed`, a label x and a basis key w of
    L'_{n+1}, a Lyndon word or, at framed odd n, a square vv
    (`freelie.quasi_memo`), whose letters and x make up `content`, then
    J^inf for each key in `twisted`: a Lyndon word w of degree n/2 + 1 for
    w^inf, then a square vv for (v,v)^inf.  `index` numbers the generators
    by these keys, (x, w) and w.  `relations` are sparse rows
    ((generator, coeff), ...) over them.  `images` holds eta of each
    generator as a {column: coeff} row whose keys (label, Lyndon word) are
    numbered as the generators (x, w) are.
    """

    content: tuple
    framed: tuple
    twisted: tuple
    relations: tuple
    images: tuple
    index: dict

    def terms(self, row, labels) -> list:
        """The (coeff, tree) terms of a sparse row ((generator, coeff), ...),
        each label x read as labels[x - 1]: (x, w) is <x, std(w)>, std the
        standard bracketing, and the others are the J^inf of `twisted`."""
        framed, terms = len(self.framed), []
        for g, c in row:
            if g < framed:
                x, w = self.framed[g]
                tree, sign = framed_tree(labels[x - 1], _relabel(_word_shape(w), labels))
                terms.append((c * sign, tree))
            else:
                terms.append((c, twisted_tree(_relabel(_word_shape(self.twisted[g - framed]), labels))))
        return terms


def twisted_block(n: int, content: tuple, flavor=FLAVOR_TWISTED) -> TwistedBlock:
    """The block of a content of the twisted T_n^inf or the framed T_n, and
    eta on it.

    The generators are those of `_families` whose words are made of the
    content's own labels.  The rows (see the module docstring) are, for
    each generator (x, w), the generator minus the reading of <x, std(w)>
    at each other leaf, and for a square w also 2 (x, w), then, twisted
    only, 2 w^inf minus each reading of <std(w), std(w)>, then 2 (v,v)^inf,
    deduplicated up to sign.  eta comes with the readings: eta(x, w) is the
    sum of every reading of <x, std(w)>, and eta(w^inf) half that of
    <std(w), std(w)>, whose two halves read alike, so the sum of one half's
    readings; eta((v,v)^inf) = 0.  Each tree is read in one walk
    (`tree_readings`), its subtrees' coordinates kept for the whole block.
    """
    # basis-pair brackets, as for `lie_bracket`, and the coordinates of each subtree read
    memo, known = quasi_memo() if flavor == FLAVOR_FRAMED and n % 2 else {}, {}
    rests = [(x, content[:i] + content[i + 1:]) for x in sorted(set(content)) for i in [content.index(x)]]
    framed, twisted = [], []
    for _, times, labeled in _families(n, flavor):
        if labeled:
            framed += [(x, w * times) for x, rest in rests if tuple(sorted(rest[::times] * times)) == rest
                       for w in lyndon_words_of(rest[::times])]
        elif tuple(sorted(content[::times] * times)) == content:
            twisted += [w * (times // 2) for w in lyndon_words_of(content[::times])]
    index = {key: g for g, key in enumerate(framed + twisted)}
    rows = {}  # each sparse row, its first entry positive, in the order made

    def read(g, scale, readings):
        """eta's image summed from the readings y (x) B, and the row
        scale * e_g - y (x) B of each."""
        image = {}
        for y, b in readings:
            row = {g: scale}
            for u, c in b.items():
                if c:
                    j = index[y, u]
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
        image = read(g, 1, tree_readings(_word_shape(w), {(x,): 1}, memo, known))
        image[g] = image.get(g, 0) + 1  # the reading at x itself
        images.append(image)
        if is_square(w):
            rows[((g, 2),)] = None
    for g, w in enumerate(twisted, len(framed)):
        if is_square(w):
            rows[((g, 2),)] = None
            images.append({})
        else:
            # <w, w> read at each leaf of one half; the other half reads alike
            images.append(read(g, 2, tree_readings(_word_shape(w), {w: 1}, memo, known)))
    images = tuple({j: c for j, c in image.items() if c} for image in images)
    return TwistedBlock(content, tuple(framed), tuple(twisted), tuple(rows), images, index)


@lru_cache(maxsize=None)
def lie_block(n: int, flavor: str, content: tuple):
    """(`twisted_block`, its relations' `Presentation`) of one content,
    built once per process for every m, and for `group`, normal forms and
    eta alike.  At even n a content that is not twice a half has no
    twisted generator, so its framed block is its twisted one."""
    if flavor == FLAVOR_FRAMED and n % 2 == 0 and tuple(sorted(content[::2] * 2)) != content:
        return lie_block(n, FLAVOR_TWISTED, content)
    block = twisted_block(n, content, flavor)
    return block, presentation(block.relations, len(block.images))


def _families(n: int, flavor: str) -> list:
    """(degree, times, labeled) of each generator family of a cell, in
    generator order, keyed by the Lyndon words v of the degree, which the
    family's trees read `times` times: a labeled key is (x, v * times),
    (x, w) and at framed odd n (x, vv); an unlabeled one is v * (times / 2),
    w for w^inf at twisted even n and vv for (v,v)^inf at n = 2 mod 4."""
    out = [(n + 1, 1, True)]
    if flavor == FLAVOR_FRAMED and n % 2:
        out.append(((n + 1) // 2, 2, True))
    if flavor == FLAVOR_TWISTED and n % 2 == 0:
        out.append((n // 2 + 1, 2, False))
        if n % 4 == 2:
            out.append(((n + 2) // 4, 4, False))
    return out


def _block_width(n: int, flavor: str, content: tuple) -> int:
    """The generator count of a content's Lie-coordinate block, by the
    fine-graded Witt count: per family of `_families`, W(a / times) for the
    content's label counts a, less e_x for each label x of the content
    where labeled, wherever times divides them."""
    counts = [content.count(x) for x in range(1, content[-1] + 1)]
    rests = [counts[:x] + [c - 1] + counts[x + 1:] for x, c in enumerate(counts) if c]
    width = 0
    for _, times, labeled in _families(n, flavor):
        for rest in rests if labeled else [counts]:
            if all(r % times == 0 for r in rest):
                width += fine_witt([r // times for r in rest])
    return width


def _refuse_rows(rows: int, blocks: str):
    """Refuse the blocks that `blocks` names, before any is built, when
    they would make more than MAX_LIE_ROWS relation rows."""
    if rows > MAX_LIE_ROWS:
        raise ResourceLimitError(
            f"{blocks} about {rows:,} relation rows, over the budget of {MAX_LIE_ROWS:,}")


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
    if m < 1 or n < 0:
        raise ParameterError("Lie-coordinate blocks require m >= 1, n >= 0")
    # the whole cell's generators, each degree within the Lyndon budget so
    # that the counts below are cheap; without any, as on one label past
    # order 2, there is no block
    width = sum((m if labeled else 1) * lyndon_count(m, degree)
                for degree, _, labeled in _families(n, flavor))
    if not width:
        return []
    kept = [(c, size) for c, size in content_orbits(m, n + 2) if k is None or c.count(1) <= k]
    rows = (n + 1) * width  # over every block, so over the representatives too
    if rows > MAX_LIE_ROWS:
        rows = (n + 1) * sum(_block_width(n, flavor, c) for c, _ in kept)
    _refuse_rows(rows, f"the Lie-coordinate blocks of {flavor} order {n} at m = {m} make")
    return [(c, size, *lie_block(n, flavor, c)) for c, size in kept]


def lie_generators(m: int, n: int, flavor: str, k=None):
    """The generators of the cell on Lie coordinates that the k bound keeps,
    as (pairs, twisted), one run per family of `_families`: pairs holds the
    (x, w) of each label x and Lyndon word w of degree n + 1, x outer, then
    at framed odd n the (x, vv) of each Lyndon word v of degree (n + 1)/2,
    and twisted the keys of the twisted generators: the w of the w^inf,
    then the vv of the (v,v)^inf.  Each run of words is in Lyndon word
    order, and a generator is kept when its tree's labels, J^inf counting
    J's twice, repeat at most k times.

    More than MAX_LIE_GENERATORS pairs are refused before any is listed.
    """
    families = _families(n, flavor)
    count = sum(m * lyndon_count(m, degree) for degree, _, labeled in families if labeled)
    if count > MAX_LIE_GENERATORS:
        raise ResourceLimitError(
            f"{flavor} order {n} at m = {m} has {count:,} generators (x, w) on Lie coordinates,"
            f" over the budget of {MAX_LIE_GENERATORS:,}"
        )
    pairs, twisted = [], []
    for degree, times, labeled in families:
        words = lyndon_words(m, degree)
        if labeled:
            pairs += [(x, w * times) for x in range(1, m + 1) for w in words
                      if k is None or word_multiplicity(w * times + (x,)) <= k]
        else:
            twisted += [w * (times // 2) for w in words if k is None or word_multiplicity(w * times) <= k]
    return pairs, twisted
