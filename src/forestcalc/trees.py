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
An ordered pair of ids a <= b is keyed by one int, its pair code
a * size + b, size the number of ids, so no lookup builds or hashes a tuple.

`framed_table(m, order)` walks each framed tree of an order once along its
2n+1 edges, one pair lookup per edge, and maps every presentation, the
pair code of its canonical halves, to the tree's generator index and sign.
The framed generators are read off it, and the relations of `groups`
resolve their terms to generator indices through these codes and tables
without building or hashing a nested shape.

Both tables are immutable, cached per (m, order) and bounded by the order
they were built for.  The shape ids give, when first read, each id's content
code (`ShapeIds.label_counts`): its leaf labels counted, each label in its
own bit field of one int, summed bottom-up from the ids' branches.  The code
is exact for every label, and two halves' codes, or twice a shape's, add
without a carry, so `groups` reads the k bound and splits the trees by
content without walking a nested shape.

`_canon`, `canonical_framed`, `framed_tree` and `twisted_tree`
canonicalize ad-hoc nested shapes, such as the trees `rewrite`, `groups`
and `eta` bring, up to any nesting depth: each vertex key is built once
from the keys its two branches returned.  A `_canon` record holds a
shape's canonical form, key, sign, ambiguity and branches' records, and
`_join` makes a vertex's record from its branches'.  The edge walk of
`canonical_framed_records` takes the two halves' records, so the forest
parser, which builds each record as the vertex's ")" closes, hands them
over without a second walk of the nested shape.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .errors import ParameterError, ResourceLimitError

# the most presentations a framed table may hold; 2,000,000 take about 0.8 GB
MAX_TABLE_ENTRIES = 4_000_000

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

    Returns ``(canonical_shape, key, sign, ambiguous, branches)``: key is
    ``shape_key(canonical_shape)``, built from the branch keys, and branches
    the `_canon` of the two branches as given, None for a label.
    """
    if isinstance(shape, int):
        return shape, (1, shape), 1, False, None
    return _join(_canon(shape[0]), _canon(shape[1]))


def _join(a, b):
    """The `_canon` of the pair shape of two shapes a, b given by their `_canon`."""
    ca, ka, sa, amb_a, _ = a
    cb, kb, sb, amb_b, _ = b
    amb = amb_a or amb_b or ka == kb
    if kb < ka:
        return (cb, ca), (0, kb, ka), -sa * sb, amb, (a, b)
    return (ca, cb), (0, ka, kb), sa * sb, amb, (a, b)


def canonical_rooted(shape):
    """AS-canonicalize a rooted shape.

    Returns ``(canonical_shape, sign, ambiguous)``; ambiguous means some
    trivalent vertex has equal canonical branches, so the canonical form is
    reachable with either sign.
    """
    canon, _, sign, amb, _ = _canon(shape)
    return canon, sign, amb


# ---------------------------------------------------------------------------
# framed presentations

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


def canonical_framed(half_a, half_b):
    """Canonicalize a framed tree.

    Returns ``(pair, sign, torsion)`` where pair is the lexicographically
    minimal presentation (halves AS-canonicalized and ordered without sign).
    torsion is set when the minimal presentation is reachable with both
    signs, in which case the reported sign is +1 and the tree satisfies
    2t = 0 at group level.
    """
    pair, _, sign, torsion = canonical_framed_records(_canon(half_a), _canon(half_b))
    return pair, sign, torsion


def canonical_framed_records(a, b):
    """`canonical_framed` of the halves given by their `_canon` records.

    Returns ``(pair, key, sign, torsion)``, key the shape keys of pair's two
    halves.  The 2n+1 edges are read in one walk, as `FramedTable` walks
    ids: the records hold every subtree of the halves canonicalized once,
    bottom-up; the walk carries the canonical rest of the tree down to each
    vertex v = (x, y), where the cyclic order (x, y, rest) reads (y, rest)
    from x and (rest, x) from y, each joined from its two branches with one
    key comparison.  The minimal presentation is torsion when it is read
    at an ambiguous pair of halves or with both signs.
    """
    edges = [(a, b), (b, a)]  # (half, rest): the first edge both ways, then 2 per vertex
    for v, rest in edges:
        if v[4]:
            x, y = v[4]
            edges += (x, _join(y, rest)), (y, _join(rest, x))
    best = None
    for p, q in edges:
        if q[1] < p[1]:
            p, q = q, p
        key = p[1], q[1]
        if best is None or key < best:
            best, pair, sign, torsion = key, (p[0], q[0]), p[2] * q[2], p[3] or q[3]
        elif not torsion and key == best:
            torsion = p[3] or q[3] or p[2] * q[2] != sign
    return pair, best, 1 if torsion else sign, torsion


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


# ---------------------------------------------------------------------------
# statistics


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
