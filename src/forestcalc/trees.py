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

`_canon`, `canonical_framed`, `framed_tree` and `twisted_tree`
canonicalize ad-hoc nested shapes, such as the trees `rewrite`, `groups`
and `eta` bring, up to any nesting depth: each vertex key is built once
from the keys its two branches returned.  A `_canon` record holds a
shape's canonical form, key, sign, ambiguity and branches' records, and
`_join` makes a vertex's record from its branches'.  The edge walk of
`canonical_framed_records` takes the two halves' records, so the forest
parser, which builds each record as the vertex's ")" closes, hands them
over without a second walk of the nested shape.

No list of every tree of an order is kept: the tree groups of `groups`
read each canonical tree on Lie coordinates, as the free Lie ring reads it
at a leaf.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError

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
    halves.  The 2n+1 edges are read in one walk: the records hold every
    subtree of the halves canonicalized once, bottom-up; the walk carries
    the canonical rest of the tree down to each vertex v = (x, y), where the
    cyclic order (x, y, rest) reads (y, rest) from x and (rest, x) from y,
    each joined from its two branches with one key comparison.  The minimal presentation is torsion when it is read
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
