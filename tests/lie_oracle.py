"""Paths that `forestcalc` replaced, kept as the tests' oracles.

eta by re-rooting, the path that the one-walk eta (`freelie.tree_readings`)
replaced: a framed tree <A, B> is re-rooted at each of its leaves
(`leaf_rootings`), the rest of the tree rebuilt as a rooted shape, and each
shape is reduced from scratch on the Lyndon basis (`reduce_shape`).  A
twisted J^inf is half of <J, J>, both halves read.  `lie_tensor` expands a
Lie element in the tensor algebra.

The k projections (`k_project_lie`, `k_project_tensor`), which drop every
term whose word, with the root label for a tensor, repeats a letter more
than k times; the multigrading makes them the identity on what eta and the
Magnus expansion compute from k-filtered inputs.

Duval's successor rule, then a sort, for the Lyndon words of a degree
(`duval_lyndon_words`), and the suffix-by-suffix Lyndon test (`is_lyndon`),
which `freelie`'s prenecklace recursion and `_split` replaced.

The word walk that read the generators of the tree groups' blocks
(`leaf_readings`), cutting each Lyndon word at its standard factorization
and a square at its middle, which `freelie.tree_readings` on the word's
shape replaced.
"""

from functools import lru_cache

from forestcalc.errors import DomainError, NotPrimitiveError, OrderMismatchError, ParameterError
from forestcalc.forest import make_forest
from forestcalc.freelie import (
    LieElement,
    TensorElement,
    _add_bracket,
    _split,
    is_square,
    lie_coordinates,
    shape_tensor,
    standard_bracketing,
    word_multiplicity,
)
from forestcalc.trees import FRAMED, TWISTED, multiplicity, shape_leaves


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


def reduce_shape(m: int, degree: int, shape) -> LieElement:
    """Basis reduction of the bracket of a rooted shape with `degree` leaves.

    A bracket keeps every letter's multiplicity, so all words of a nonzero
    result hold the shape's leaves: if they are not `degree` labels in
    1..m, the bracket is no element of that piece and NotPrimitiveError is
    raised.  A zero bracket is zero in any degree.
    """
    if m < 1 or degree < 1:
        raise ParameterError("reduce_shape requires m >= 1, degree >= 1")
    coeffs = lie_coordinates(shape, {})
    word = next(iter(coeffs), None)
    if word is not None and (len(word) != degree or not all(0 < i <= m for i in word)):
        raise NotPrimitiveError(f"shape {shape} is not a bracket of degree {degree} on 1..{m}")
    return LieElement.make(m, degree, coeffs)


@lru_cache(maxsize=None)
def shape_to_lie(m: int, shape) -> LieElement:
    """Basis reduction of the bracket determined by a rooted shape, cached."""
    return reduce_shape(m, len(shape_leaves(shape)), shape)


def _eta_framed_raw(m: int, pair) -> dict:
    """Raw tensor coefficients of eta on a framed pair, no basis reduction."""
    acc = {}
    for label, shape in leaf_rootings(*pair):
        for w, c in shape_to_lie(m, shape).coeffs:
            acc[label, w] = acc.get((label, w), 0) + c
    return acc


def eta_tree(m: int, n: int, tree, coeff: int = 1) -> TensorElement:
    """eta of a single canonical tree of generating order n."""
    if tree.kind == FRAMED:
        if tree.order != n:
            raise OrderMismatchError(f"framed tree {tree} has order {tree.order} != {n}")
        acc = {k: coeff * c for k, c in _eta_framed_raw(m, tree.data).items()}
        return TensorElement.make(m, n + 1, acc)
    if tree.kind == TWISTED:
        if 2 * tree.order != n:
            raise OrderMismatchError(f"twisted tree {tree} has order {tree.order} != {n}/2")
        acc = {}
        for key, c in _eta_framed_raw(m, (tree.data, tree.data)).items():
            acc[key], rem = divmod(coeff * c, 2)
            assert not rem, f"odd coefficient halving eta(<J,J>) for {tree}"
        return TensorElement.make(m, n + 1, acc)
    raise DomainError("eta is defined on framed and twisted trees")


def eta(forest, n: int) -> TensorElement:
    out = TensorElement.zero(forest.m, n + 1)
    for coeff, tree in forest.terms:
        out = out + eta_tree(forest.m, n, tree, coeff)
    return out


def eta_k(forest, n: int, k: int) -> TensorElement:
    kept = make_forest(forest.m, [(c, t) for c, t in forest.terms if multiplicity(t) <= k])
    return k_project_tensor(eta(kept, n), k)


def lie_tensor(x: LieElement) -> dict:
    """Expansion of a Lie element in the tensor algebra (word -> coefficient)."""
    acc = {}
    for word, c in x.coeffs:
        for w, y in shape_tensor(standard_bracketing(word)):
            acc[w] = acc.get(w, 0) + c * y
    return {w: c for w, c in acc.items() if c}


def k_project_lie(x: LieElement, k: int) -> LieElement:
    """Drop basis terms whose bracket repeats some generator more than k times."""
    return LieElement.make(
        x.m, x.degree, {w: c for w, c in x.coeffs if word_multiplicity(w) <= k}
    )


def k_project_tensor(x: TensorElement, k: int) -> TensorElement:
    """Drop terms of multiplicity > k; the root label counts too."""
    return TensorElement.make(
        x.m, x.degree, {(i, w): c for (i, w), c in x.coeffs if word_multiplicity(w + (i,)) <= k}
    )


def duval_lyndon_words(m: int, n: int) -> tuple:
    """All Lyndon words of length n over 1..m, lexicographically sorted (Duval)."""
    words = []
    w = [1]
    while w:
        if len(w) == n:
            words.append(tuple(w))
        # extend periodically to length n, then increment
        base = list(w)
        while len(w) < n:
            w.append(base[(len(w)) % len(base)])
        while w and w[-1] == m:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(sorted(words))


def is_lyndon(word) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


def leaf_readings(word, outside, memo) -> list:
    """P_word with `outside` grafted at its root, read at every leaf.

    Read at a leaf, the tree is the bracket of everything else: going into
    the left branch P_a of a vertex (P_a, P_b) brackets the outside y to
    [P_b, y], into the right branch to [y, P_a] = -[P_a, y], one rewriting
    per vertex.  Outside and readings are Lie elements as {Lyndon word:
    coeff} dicts, which may hold zeros.  Returns (label, reading) in leaf
    reading order.  `memo` is the caller's, as for `lie_bracket`.  A square
    word vv reads as [P_v, P_v].
    """
    return _leaf_readings(word, outside, memo, len(word) // 2 if is_square(word) else None)


def _leaf_readings(word, outside, memo, split=None) -> list:
    if len(word) == 1:
        return [(word[0], outside)]
    split = split or _split(word)
    a, b = word[:split], word[split:]
    left, right = {}, {}
    _add_bracket(left, 1, b, outside.items(), memo)
    _add_bracket(right, -1, a, outside.items(), memo)
    return _leaf_readings(a, left, memo) + _leaf_readings(b, right, memo)
