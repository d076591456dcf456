"""Decorated unitrivalent trees and their sign-tracked canonical forms.

A *rooted shape* is a nested binary bracketing: either an integer label
(>= 1) or a pair ``(left, right)`` of shapes.  The left/right order of a
pair encodes the cyclic orientation at that trivalent vertex; swapping the
two branches is an antisymmetry (AS) move and flips the sign.

A framed tree is an unordered pair of rooted shapes glued at a non-vertex
point of an edge (the inner product).  The same abstract framed tree can be
presented with the gluing point on any of its edges; canonicalization
minimizes over all such presentations, so equality of framed trees is
independent of the splitting edge.

A twisted tree is a rooted shape whose root carries the twist mark.  Its
sign is discarded at canonicalization: reversing the orientation of a
twisted tree does not change it (the symmetry relation), so twisted trees
are pure shapes.

Generators come from integer shape ids.  `shape_ids(m, order)` numbers
every AS-canonical rooted shape of order <= `order` on the labels 1..m
densely in `shape_key` order, so comparing ids compares keys.  It is built
order by order from pairs of smaller ids, with no nested keys, and a pair
of two canonical shapes canonicalizes by one lookup in its pair table; the
order of the two ids gives the AS sign, and an id's ambiguity is stored.

`framed_table(m, order)` walks each framed tree of an order once along its
2n+1 edges, one pair lookup per edge, and maps every presentation, an int
pair of canonical halves, to the tree's generator index and sign.  The
framed generators are read off it, and the relations of `groups` resolve
their terms to generator indices through these ids and tables without
building or hashing a nested shape.

Both tables are immutable, cached per (m, order) and bounded by the order
they were built for.  `_canon`, `canonical_framed`, `framed_tree` and
`twisted_tree` canonicalize ad-hoc nested shapes, such as the trees the
parser and `rewrite` bring, up to any nesting depth: each vertex key is
built once from the keys its two branches returned.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .errors import DomainError, ParameterError

FRAMED = "framed"
ROOTED = "rooted"
TWISTED = "twisted"


# ---------------------------------------------------------------------------
# rooted shapes


def shape_key(shape):
    """Total order on rooted shapes (pairs before labels, then recursive)."""
    if isinstance(shape, int):
        return (1, shape)
    return (0, shape_key(shape[0]), shape_key(shape[1]))


def shape_order(shape) -> int:
    """Number of trivalent vertices of a rooted shape."""
    if isinstance(shape, int):
        return 0
    return 1 + shape_order(shape[0]) + shape_order(shape[1])


def shape_leaves(shape) -> tuple:
    """Labels of the non-root univalent vertices, in reading order."""
    if isinstance(shape, int):
        return (shape,)
    return shape_leaves(shape[0]) + shape_leaves(shape[1])


def validate_shape(shape, m=None):
    if isinstance(shape, int):
        if shape < 1:
            raise ParameterError(f"labels must be >= 1, got {shape}")
        if m is not None and shape > m:
            raise ParameterError(f"label {shape} out of range 1..{m}")
        return
    if not (isinstance(shape, tuple) and len(shape) == 2):
        raise ParameterError(f"malformed rooted shape {shape!r}")
    validate_shape(shape[0], m)
    validate_shape(shape[1], m)


def _canon(shape):
    """AS-canonicalize a rooted shape, building each vertex key once.

    Returns ``(canonical_shape, key, sign, ambiguous)`` where key is
    ``shape_key(canonical_shape)``, assembled from the branch keys.
    """
    if isinstance(shape, int):
        return shape, (1, shape), 1, False
    a, ka, sa, amb_a = _canon(shape[0])
    b, kb, sb, amb_b = _canon(shape[1])
    sign = sa * sb
    amb = amb_a or amb_b or ka == kb
    if kb < ka:
        a, b, ka, kb = b, a, kb, ka
        sign = -sign
    return (a, b), (0, ka, kb), sign, amb


def canonical_rooted(shape):
    """AS-canonicalize a rooted shape.

    Returns ``(canonical_shape, sign, ambiguous)``; ambiguous means some
    trivalent vertex has equal canonical branches, so the canonical form is
    reachable with either sign.
    """
    canon, _, sign, amb = _canon(shape)
    return canon, sign, amb


# ---------------------------------------------------------------------------
# framed presentations

def presentations(half_a, half_b):
    """All presentations of the framed tree <half_a, half_b>.

    Each edge of the abstract unrooted tree yields one splitting; moving the
    splitting point across a trivalent vertex re-reads the same cyclic
    orientations, so no signs arise here.
    """
    seen = set()
    stack = [(half_a, half_b)]
    out = []
    while stack:
        pres = stack.pop()
        if pres in seen:
            continue
        seen.add(pres)
        out.append(pres)
        a, b = pres
        if isinstance(a, tuple):
            stack.append((a[0], (a[1], b)))
            stack.append((a[1], (b, a[0])))
        if isinstance(b, tuple):
            stack.append((b[0], (b[1], a)))
            stack.append((b[1], (a, b[0])))
    return out


def canonical_framed(half_a, half_b):
    """Canonicalize a framed tree.

    Returns ``(pair, sign, torsion)`` where pair is the lexicographically
    minimal presentation (halves AS-canonicalized and ordered without sign).
    torsion is set when the minimal presentation is reachable with both
    signs, in which case the reported sign is +1 and the tree satisfies
    2t = 0 at group level.
    """
    best_key = None
    best_pair = None
    signs = set()
    for p, q in presentations(half_a, half_b):
        cp, kp, sp, amb_p = _canon(p)
        cq, kq, sq, amb_q = _canon(q)
        if kq < kp:
            cp, cq, kp, kq = cq, cp, kq, kp
        key = (kp, kq)
        pres_signs = {sp * sq, -sp * sq} if (amb_p or amb_q) else {sp * sq}
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (cp, cq)
            signs = set(pres_signs)
        elif key == best_key:
            signs |= pres_signs
    torsion = len(signs) == 2
    sign = 1 if torsion else signs.pop()
    return best_pair, sign, torsion


def leaf_rootings(half_a, half_b):
    """Root the framed tree <half_a, half_b> at each univalent vertex.

    Returns a list of ``(label, rooted_shape)`` in leaf reading order,
    where rooted_shape is the rest of the tree read from that leaf with the
    stored orientations.
    """
    out = []

    def walk(shape, outside):
        if isinstance(shape, int):
            out.append((shape, outside))
        else:
            left, right = shape
            walk(left, (right, outside))
            walk(right, (outside, left))

    walk(half_a, half_b)
    walk(half_b, half_a)
    return out


# ---------------------------------------------------------------------------
# decorated trees


class DecoratedTree(NamedTuple):
    """A canonical framed, rooted, or twisted tree.

    Instances are only built by the canonicalizing factories below, so two
    equal trees always compare equal structurally.  ``data`` is a rooted
    shape for rooted/twisted kinds and a pair of rooted shapes for framed.
    """

    kind: str
    data: tuple
    torsion: bool = False

    @property
    def order(self) -> int:
        if self.kind == FRAMED:
            return shape_order(self.data[0]) + shape_order(self.data[1])
        return shape_order(self.data)

    @property
    def degree(self) -> int:
        return self.order + 1

    def leaves(self) -> tuple:
        if self.kind == FRAMED:
            return shape_leaves(self.data[0]) + shape_leaves(self.data[1])
        return shape_leaves(self.data)

    def sort_key(self):
        kind_rank = {FRAMED: 0, TWISTED: 1, ROOTED: 2}[self.kind]
        if self.kind == FRAMED:
            return (self.order, kind_rank, shape_key(self.data[0]), shape_key(self.data[1]))
        return (self.order, kind_rank, shape_key(self.data))

    def __str__(self) -> str:
        if self.kind == FRAMED:
            return f"<{shape_str(self.data[0])},{shape_str(self.data[1])}>"
        if self.kind == TWISTED:
            return f"{shape_str(self.data)}^inf"
        return shape_str(self.data)


def shape_str(shape) -> str:
    if isinstance(shape, int):
        return str(shape)
    return f"({shape_str(shape[0])},{shape_str(shape[1])})"


def framed_tree(half_a, half_b):
    """Canonical framed tree <half_a, half_b>; returns (tree, sign)."""
    validate_shape(half_a)
    validate_shape(half_b)
    pair, sign, torsion = canonical_framed(half_a, half_b)
    return DecoratedTree(FRAMED, pair, torsion), sign


def rooted_tree(shape):
    """Canonical rooted tree; returns (tree, sign)."""
    validate_shape(shape)
    canon, sign, _ = canonical_rooted(shape)
    return DecoratedTree(ROOTED, canon), sign


def twisted_tree(shape):
    """Canonical twisted tree (sign-free by the symmetry relation)."""
    validate_shape(shape)
    canon, _, _ = canonical_rooted(shape)
    return DecoratedTree(TWISTED, canon)


def canonicalize_tree(tree: DecoratedTree):
    """Re-canonicalize; idempotent with sign +1 on already-canonical input."""
    if tree.kind == FRAMED:
        return framed_tree(*tree.data)
    if tree.kind == ROOTED:
        return rooted_tree(tree.data)
    return twisted_tree(tree.data), 1


# ---------------------------------------------------------------------------
# statistics and products


class TreeStats(NamedTuple):
    order: int
    degree: int
    r: dict
    r_max: int
    mono_labeled: bool


def tree_stats(tree: DecoratedTree) -> TreeStats:
    """Order, degree and per-index multiplicities.

    Twisted trees count each label twice (the multiplicity of J^inf is that
    of <J,J>).
    """
    labels = tree.leaves()
    factor = 2 if tree.kind == TWISTED else 1
    r = {}
    for lab in labels:
        r[lab] = r.get(lab, 0) + factor
    r_max = max(r.values()) if r else 0
    mono = len(r) == 1
    return TreeStats(tree.order, tree.degree, r, r_max, mono)


def multiplicity(tree: DecoratedTree) -> int:
    return tree_stats(tree).r_max


def rooted_product(i_tree: DecoratedTree, j_tree: DecoratedTree):
    """(I,J): identify the roots and sprout a new rooted edge."""
    if i_tree.kind != ROOTED or j_tree.kind != ROOTED:
        raise DomainError("rooted_product requires rooted trees")
    canon, sign, _ = canonical_rooted((i_tree.data, j_tree.data))
    return DecoratedTree(ROOTED, canon), sign


def inner_product(i_tree: DecoratedTree, j_tree: DecoratedTree):
    """<I,J>: identify the roots to a non-vertex point."""
    if i_tree.kind != ROOTED or j_tree.kind != ROOTED:
        raise DomainError("inner_product requires rooted trees")
    return framed_tree(i_tree.data, j_tree.data)


# ---------------------------------------------------------------------------
# enumeration


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
    ``labels`` maps a label to its id.  ``pair`` maps the branches (a, b),
    a <= b, of each pair shape to its id, so `join` canonicalizes the pair
    of two canonical shapes a, b with one lookup, of (a, b) with sign +1
    when a <= b and of (b, a) with sign -1 otherwise.  The pair is
    ambiguous when a == b or either branch is.
    """

    def __init__(self, m: int, order: int):
        pairs, orders = _pair_shapes(m, order)
        self.kids = tuple(pairs) + (None,) * m
        self.orders = orders
        self.labels = MappingProxyType({lab: len(pairs) + lab - 1 for lab in range(1, m + 1)})
        ids = range(len(orders))
        self.pair = MappingProxyType(dict(zip(pairs, ids)))
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

    def join(self, a, b):
        """``(id, sign)`` of the pair shape (a, b) of branches given as ``(id, sign)``."""
        (i, si), (j, sj) = a, b
        if i <= j:
            return self.pair[i, j], si * sj
        return self.pair[j, i], -si * sj

    def canon(self, shape):
        """``(id, sign)`` of a nested rooted shape; KeyError if no id names it."""
        if isinstance(shape, int):
            return self.labels[shape], 1
        return self.join(self.canon(shape[0]), self.canon(shape[1]))

    def edges(self, a: int, b: int) -> list:
        """The 2n+1 edges of the framed tree <a, b> of canonical ids a, b.

        Each edge is ``(x, rest, branches)``: one half is the canonical shape
        x, the other reads as rest = ``(id, sign)``, sign * the canonical
        shape id, and branches holds the ``(id, sign)`` of the other half's
        two branches in that reading, or None when it is a leaf.  Walking
        from <a, b>, the branches of each other half are canonical shapes or
        halves already read, so every edge costs one `join`.
        """
        kids, join = self.kids, self.join
        out = [(a, (b, 1), kids[b] and ((kids[b][0], 1), (kids[b][1], 1)))]
        # pair vertices (canonical shape ids) and how the rest of the tree reads from each
        stack = [(v, (w, 1)) for v, w in ((a, b), (b, a)) if kids[v]]
        while stack:
            v, rest = stack.pop()
            x, y = kids[v]
            # the cyclic order at v is (x, y, rest): from x the tree reads
            # (y, rest), from y it reads (rest, x)
            for half, branches in ((x, ((y, 1), rest)), (y, (rest, (x, 1)))):
                other = join(*branches)
                out.append((half, other, branches))
                if kids[half]:
                    stack.append((half, other))
        return out


@lru_cache(maxsize=None)
def shape_ids(m: int, order: int) -> ShapeIds:
    """The shape ids of orders 0..order, shared by every caller."""
    return ShapeIds(m, order)


class FramedTable:
    """Every framed tree of one order and every presentation of each.

    ``trees`` are the canonical framed trees in generator order, with their
    ``torsion`` flags and their canonical ``halves`` as id pairs.
    ``entries`` maps the halves (lo, hi), lo <= hi, of every presentation
    to ``(index, sign)`` with <lo, hi> = sign * trees[index]; a torsion tree
    stores +1.  ``ids`` are the shape ids the keys are read in.

    Id pairs are visited in increasing order, and a pair already read as a
    presentation of an earlier tree is skipped, so each tree is met first
    at its minimal presentation, its canonical form, and walked once.
    """

    def __init__(self, m: int, order: int):
        self.ids = ids = shape_ids(m, order)
        entries = {}
        halves = []
        torsion = []
        for lo, o in enumerate(ids.orders):
            rights = ids.by_order[order - o]
            for hi in rights[bisect_left(rights, lo):]:
                if (lo, hi) in entries:
                    continue
                reads = []
                signs = set()
                for p, (q, sign), _ in ids.edges(lo, hi):
                    key = (p, q) if p <= q else (q, p)
                    reads.append((key, sign))
                    if key == (lo, hi):
                        signs.add(sign)
                        if ids.ambiguous[p] or ids.ambiguous[q]:
                            signs.add(-sign)
                index = len(halves)
                halves.append((lo, hi))
                torsion.append(len(signs) == 2)
                plus = (index, 1)
                minus = plus if torsion[index] else (index, -1)
                for key, sign in reads:
                    entries[key] = plus if sign > 0 else minus
        self.entries = MappingProxyType(entries)
        self.halves = tuple(halves)
        self.torsion = tuple(torsion)
        self.trees = tuple(
            DecoratedTree(FRAMED, (ids.shapes[lo], ids.shapes[hi]), t)
            for (lo, hi), t in zip(halves, torsion)
        )

    def term(self, a: int, sa: int, b: int, sb: int):
        """``(index, sign)`` with <sa * a, sb * b> = sign * trees[index]."""
        index, sign = self.entries[(a, b) if a <= b else (b, a)]
        return index, 1 if self.torsion[index] else sign * sa * sb


@lru_cache(maxsize=None)
def framed_table(m: int, order: int) -> FramedTable:
    """The framed trees of an order and their presentations, shared by every caller."""
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
