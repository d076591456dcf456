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

Canonicalization builds each vertex's sort key once, from the keys its two
branches returned, and generators are enumerated from AS-canonical rooted
halves only: every labeled shape is AS-equivalent to exactly one of them,
so no raw shape is enumerated.

`framed_table(m, order)` canonicalizes each framed tree of an order once
and records all of its presentations by their canonical halves, so the
framed generators are read off it and a framed term of a relation costs two
rooted canonicalizations and a lookup (`lookup_framed`) instead of a pass
over every presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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


def _framed_pass(half_a, half_b):
    """Canonicalize <half_a, half_b> with one `_canon` per presentation half.

    Returns ``(pair, sign, torsion, reads)``: pair, sign and torsion as
    `canonical_framed` gives them, and reads the ``(halves, sign)`` of every
    presentation, where halves are its two canonical halves ordered by key
    and sign is the product of their AS signs, so that
    <halves> = sign * <half_a, half_b>.
    """
    best_key = None
    best_pair = None
    signs = set()
    reads = []
    for p, q in presentations(half_a, half_b):
        cp, kp, sp, amb_p = _canon(p)
        cq, kq, sq, amb_q = _canon(q)
        if kq < kp:
            cp, cq, kp, kq = cq, cp, kq, kp
        key = (kp, kq)
        reads.append(((cp, cq), sp * sq))
        pres_signs = {sp * sq, -sp * sq} if (amb_p or amb_q) else {sp * sq}
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (cp, cq)
            signs = set(pres_signs)
        elif key == best_key:
            signs |= pres_signs
    torsion = len(signs) == 2
    sign = 1 if torsion else signs.pop()
    return best_pair, sign, torsion, reads


def canonical_framed(half_a, half_b):
    """Canonicalize a framed tree.

    Returns ``(pair, sign, torsion)`` where pair is the lexicographically
    minimal presentation (halves AS-canonicalized and ordered without sign).
    torsion is set when the minimal presentation is reachable with both
    signs, in which case the reported sign is +1 and the tree satisfies
    2t = 0 at group level.
    """
    pair, sign, torsion, _ = _framed_pass(half_a, half_b)
    return pair, sign, torsion


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


def internal_splits(half_a, half_b):
    """Presentations split at an internal edge (both halves non-leaf)."""
    return [
        (p, q)
        for p, q in presentations(half_a, half_b)
        if isinstance(p, tuple) and isinstance(q, tuple)
    ]


# ---------------------------------------------------------------------------
# decorated trees


@dataclass(frozen=True)
class DecoratedTree:
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


@dataclass(frozen=True)
class TreeStats:
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


@lru_cache(maxsize=None)
def canonical_shapes(m: int, order: int) -> tuple:
    """AS-canonical rooted shapes of the given order as (shape, key) pairs.

    A pair is canonical exactly when both branches are and the left key is
    not above the right one, so each shape is built once from smaller
    canonical shapes.  Sorted by key.
    """
    if order == 0:
        return tuple((label, (1, label)) for label in range(1, m + 1))
    out = []
    for left_order in range(order):
        for a, ka in canonical_shapes(m, left_order):
            for b, kb in canonical_shapes(m, order - 1 - left_order):
                if ka <= kb:
                    out.append(((a, b), (0, ka, kb)))
    return tuple(sorted(out, key=lambda sk: sk[1]))


@lru_cache(maxsize=None)
def framed_table(m: int, order: int) -> MappingProxyType:
    """Every presentation of every framed tree of the given order.

    A read-only mapping, shared by every caller, from the two canonical
    halves of a presentation, ordered by key, to ``(tree, sign)`` with
    <halves> = sign * tree; a torsion tree stores +1. Pairs of canonical
    halves A, B with order(A) <= order(B) reach every framed tree, and a
    pair already read as a presentation of an earlier tree is skipped, so
    each tree is canonicalized once.
    """
    # keys hold the shape objects of `canonical_shapes`, which share their
    # subtrees, rather than the fresh copies `_canon` builds
    shared = {
        shape: shape for k in range(order + 1) for shape, _ in canonical_shapes(m, k)
    }
    table = {}
    for left_order in range(order // 2 + 1):
        for left, kl in canonical_shapes(m, left_order):
            for right, kr in canonical_shapes(m, order - left_order):
                if ((left, right) if kl <= kr else (right, left)) in table:
                    continue
                pair, sign, torsion, reads = _framed_pass(left, right)
                tree = DecoratedTree(FRAMED, pair, torsion)
                for (a, b), read_sign in reads:
                    entry = (tree, 1 if torsion else read_sign * sign)
                    table[shared[a], shared[b]] = entry
    return MappingProxyType(table)


def lookup_framed(m: int, order: int, half_a, half_b):
    """`framed_tree(half_a, half_b)` for labels <= m, read from `framed_table`.

    A pair the table lacks (labels above m, or another order) is
    canonicalized directly.
    """
    ca, ka, sa, _ = _canon(half_a)
    cb, kb, sb, _ = _canon(half_b)
    entry = framed_table(m, order).get((ca, cb) if ka <= kb else (cb, ca))
    if entry is None:
        return framed_tree(half_a, half_b)
    tree, sign = entry
    return tree, 1 if tree.torsion else sign * sa * sb


@lru_cache(maxsize=None)
def framed_generators(m: int, order: int) -> tuple:
    """All canonical framed trees of the given order, sorted.

    These are the distinct trees of `framed_table(m, order)`.
    """
    trees = {tree for tree, _ in framed_table(m, order).values()}
    return tuple(sorted(trees, key=DecoratedTree.sort_key))


@lru_cache(maxsize=None)
def twisted_generators(m: int, order: int) -> tuple:
    """All canonical twisted trees of the given order, sorted.

    Twisted trees are unsigned canonical shapes, so these are exactly the
    canonical shapes of that order in key order.
    """
    return tuple(DecoratedTree(TWISTED, shape) for shape, _ in canonical_shapes(m, order))
