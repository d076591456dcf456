"""Free Lie algebra over the integers with the Lyndon-word basis.

Degree-n elements live in the span of the standard (Chen-Fox-Lyndon)
bracketings P_w of the Lyndon words w of length n over the alphabet 1..m.
Brackets are taken on that basis by rewriting, with no tensor built
(Reutenauer, *Free Lie Algebras*, ch. 4-5): for Lyndon words u < v, where
u = u1 u2 is the standard factorization,

- [P_u, P_v] = P_uv if u is a letter or u2 >= v;
- otherwise [P_u, P_v] = [P_u1, [P_u2, P_v]] + [[P_u1, P_v], P_u2] (Jacobi),

with [P_v, P_u] = -[P_u, P_v] and [P_u, P_u] = 0.  The memo of these
basis-pair brackets belongs to the caller and is dropped with it.

The tensor algebra stays for the Magnus expansion and as an oracle: the
expansion of P_w is w plus lexicographically larger words, so integer
elimination along sorted Lyndon words (`tensor_to_lie`) is exact and
detects non-primitive tensors.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import NamedTuple

from .errors import NotPrimitiveError, ParameterError
from .intlinalg import left_kernel, presentation
from .trees import shape_leaves


@lru_cache(maxsize=None)
def lyndon_words(m: int, n: int) -> tuple:
    """All Lyndon words of length n over 1..m, lexicographically sorted (Duval)."""
    if m < 1 or n < 1:
        raise ParameterError("lyndon_words requires m >= 1, n >= 1")
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


def _split(word) -> int:
    """Where the standard factorization of a word of length >= 2 cuts it.

    The right factor is the longest proper Lyndon suffix, which is the least
    proper suffix: a longer Lyndon suffix would be less than it.
    """
    return min(range(1, len(word)), key=lambda i: word[i:])


@lru_cache(maxsize=None)
def standard_bracketing(word: tuple):
    """Standard bracketing of a Lyndon word, as a rooted shape."""
    if len(word) == 1:
        return word[0]
    if not word:
        raise ParameterError(f"{word} is not a Lyndon word")
    split = _split(word)
    return (standard_bracketing(word[:split]), standard_bracketing(word[split:]))


def _is_lyndon(word) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


def _commutator(left, right) -> dict:
    """ab - ba in the tensor algebra, for (word, coeff) pairs a and b."""
    acc = {}
    for wa, ca in left:
        for wb, cb in right:
            acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
            acc[wb + wa] = acc.get(wb + wa, 0) - ca * cb
    return acc


@lru_cache(maxsize=None)
def shape_tensor(shape) -> tuple:
    """Tensor-algebra expansion of a rooted shape, as sorted (word, coeff) pairs."""
    if isinstance(shape, int):
        return (((shape,), 1),)
    acc = _commutator(shape_tensor(shape[0]), shape_tensor(shape[1]))
    return tuple(sorted((w, c) for w, c in acc.items() if c))


class SparseVector(NamedTuple):
    """Sparse integer vector of a graded piece: sorted (key, coeff) pairs.

    ``coeffs`` holds no zeros.  Arithmetic keeps the operand's class, ``m``
    and ``degree``; equality compares the class too, so a Lie element never
    equals a tensor, or a plain tuple, with the same fields.
    """

    m: int
    degree: int
    coeffs: tuple  # sorted ((key, coeff), ...), no zeros

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def make(cls, m, degree, mapping):
        return cls(m, degree, tuple(sorted((k, c) for k, c in mapping.items() if c)))

    @classmethod
    def zero(cls, m, degree):
        return cls(m, degree, ())

    @property
    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs

    def _combine(self, other, sign):
        acc = dict(self.coeffs)
        for key, c in other.coeffs:
            acc[key] = acc.get(key, 0) + sign * c
        return self.make(self.m, self.degree, acc)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        return self.make(self.m, self.degree, {k: c * x for k, x in self.coeffs})


class LieElement(SparseVector):
    """Homogeneous integer element of the free Lie algebra on X1..Xm.

    Keys are Lyndon words (basis brackets); ``degree`` is their length.
    """

    __slots__ = ()

    def tensor(self) -> dict:
        """Expansion in the tensor algebra (word -> coefficient)."""
        acc = {}
        for word, c in self.coeffs:
            for w, x in shape_tensor(standard_bracketing(word)):
                acc[w] = acc.get(w, 0) + c * x
        return {w: c for w, c in acc.items() if c}

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c:+d}*{bracket_str(w)}" for w, c in self.coeffs)


def bracket_str(word) -> str:
    return _bracket_shape_str(standard_bracketing(tuple(word)))


def _bracket_shape_str(shape) -> str:
    if isinstance(shape, int):
        return f"x{shape}"
    return f"[{_bracket_shape_str(shape[0])},{_bracket_shape_str(shape[1])}]"


def tensor_to_lie(m: int, degree: int, tensor: dict) -> LieElement:
    """Invert the tensor expansion on the Lie subspace.

    Eliminates along the residue's least word, kept in a heap: the
    expansion of a Lyndon word's standard bracketing is the word plus
    lexicographically larger ones, so a least word that is a Lyndon word of
    the degree over 1..m takes its coefficient from the residue, and any
    other least word stays in the residue for good, so the tensor is not a
    Lie element.
    """
    if m < 1 or degree < 1:
        raise ParameterError("tensor_to_lie requires m >= 1, degree >= 1")
    residue = {w: c for w, c in tensor.items() if c}
    heap = list(residue)
    heapq.heapify(heap)
    out = {}
    while heap:
        word = heapq.heappop(heap)
        c = residue[word]
        if not c:
            continue
        if len(word) != degree or not all(0 < i <= m for i in word) or not _is_lyndon(word):
            raise NotPrimitiveError("tensor is not primitive (no Lie preimage)")
        out[word] = c
        for w, x in shape_tensor(standard_bracketing(word)):
            old = residue.get(w, 0)
            if not old:
                heapq.heappush(heap, w)
            residue[w] = old - c * x
    return LieElement.make(m, degree, out)


def _basis_bracket(u, v, memo) -> tuple:
    """[P_u, P_v] for Lyndon words u < v, as (Lyndon word, coeff) pairs.

    Rewrites by the rule in the module docstring.  `memo` maps (u, v) to the
    result; the caller owns it.
    """
    out = memo.get((u, v))
    if out is None:
        split = len(u) > 1 and _split(u)
        if not split or u[split:] >= v:
            out = ((u + v, 1),)
        else:
            u1, u2 = u[:split], u[split:]
            acc = {}
            _add_bracket(acc, 1, u1, _basis_bracket(u2, v, memo), memo)
            _add_bracket(acc, -1, u2, _basis_bracket(u1, v, memo), memo)
            out = tuple((w, c) for w, c in acc.items() if c)
        memo[u, v] = out
    return out


def _add_bracket(acc, scale, u, x, memo):
    """acc += scale * [P_u, x], for x given as (Lyndon word, coeff) pairs."""
    for w, c in x:
        if u < w:
            pairs, c = _basis_bracket(u, w, memo), scale * c
        elif w < u:
            pairs, c = _basis_bracket(w, u, memo), -scale * c
        else:
            continue
        for z, y in pairs:
            acc[z] = acc.get(z, 0) + c * y


def _bracket(x, y, memo) -> dict:
    """[x, y] as word -> nonzero coeff, for x, y given as (Lyndon word, coeff) pairs."""
    acc = {}
    for u, c in x:
        _add_bracket(acc, c, u, y, memo)
    return {w: c for w, c in acc.items() if c}


def lie_bracket(a: LieElement, b: LieElement, memo=None) -> LieElement:
    """[a, b] on the Lyndon basis.

    `memo` holds basis-pair brackets (see `_basis_bracket`): a caller that
    takes many brackets may pass one dict to all of them and drop it after;
    None takes a fresh one.
    """
    memo = {} if memo is None else memo
    return LieElement.make(a.m, a.degree + b.degree, _bracket(a.coeffs, b.coeffs, memo))


def _reduce(shape, memo) -> dict:
    if isinstance(shape, int):
        return {(shape,): 1}
    return _bracket(_reduce(shape[0], memo).items(), _reduce(shape[1], memo).items(), memo)


def reduce_shape(m: int, degree: int, shape) -> LieElement:
    """Basis reduction of the bracket of a rooted shape with `degree` leaves.

    Each vertex brackets the Lie coordinates of its branches on the basis,
    with one memo of basis-pair brackets for the call.  A bracket keeps
    every letter's multiplicity, so all words of a nonzero result hold the
    shape's leaves: if they are not `degree` labels in 1..m, the bracket is
    no element of that piece and NotPrimitiveError is raised.  A zero
    bracket is zero in any degree.
    """
    if m < 1 or degree < 1:
        raise ParameterError("reduce_shape requires m >= 1, degree >= 1")
    coeffs = _reduce(shape, {})
    word = next(iter(coeffs), None)
    if word is not None and (len(word) != degree or not all(0 < i <= m for i in word)):
        raise NotPrimitiveError(f"shape {shape} is not a bracket of degree {degree} on 1..{m}")
    return LieElement.make(m, degree, coeffs)


@lru_cache(maxsize=None)
def shape_to_lie(m: int, shape) -> LieElement:
    """Basis reduction of the bracket determined by a rooted shape, cached."""
    return reduce_shape(m, len(shape_leaves(shape)), shape)


def word_multiplicity(word) -> int:
    return max(word.count(i) for i in set(word)) if word else 0


def k_project_lie(x: LieElement, k: int) -> LieElement:
    """Drop basis terms whose bracket repeats some generator more than k times."""
    return LieElement.make(
        x.m, x.degree, {w: c for w, c in x.coeffs if word_multiplicity(w) <= k}
    )


# ---------------------------------------------------------------------------
# tensor space L1 (x) L_{n+1}


class TensorElement(SparseVector):
    """Integer element of L1 (x) L_{degree}: root-labeled trees, basis-reduced.

    Keys are (root label, Lyndon word) pairs; ``degree`` is the degree of
    the right-hand Lie factor (= n + 1).
    """

    __slots__ = ()

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c:+d}*x{i} (x) {bracket_str(w)}" for (i, w), c in self.coeffs
        )


def tensor_of(i: int, lie: LieElement) -> TensorElement:
    return TensorElement.make(lie.m, lie.degree, {(i, w): c for w, c in lie.coeffs})


def bracket_map(x: TensorElement) -> LieElement:
    """L1 (x) L_{n+1} -> L_{n+2}, (Xi, B) -> [Xi, B]."""
    acc, memo = {}, {}
    for (i, word), c in x.coeffs:
        _add_bracket(acc, c, (i,), ((word, 1),), memo)
    return LieElement.make(x.m, x.degree + 1, acc)


def tensor_multiplicity(key) -> int:
    i, word = key
    return word_multiplicity(word + (i,))


def k_project_tensor(x: TensorElement, k: int) -> TensorElement:
    """Drop terms of multiplicity > k; the root label counts too."""
    return TensorElement.make(
        x.m, x.degree, {key: c for key, c in x.coeffs if tensor_multiplicity(key) <= k}
    )


# ---------------------------------------------------------------------------
# the bracket kernel D_n


class BracketKernel(NamedTuple):
    """Integer basis of the kernel of the (possibly restricted) bracket map.

    `rows` is the kernel lattice's unique basis in row Hermite form, as
    `left_kernel` returns it: sparse rows over the positions in `domain`,
    with strictly increasing pivot columns.
    """

    m: int
    n: int
    k: object  # int or None
    domain: tuple  # ordered ((root label, lyndon word), ...)
    rows: tuple  # Hermite-reduced sparse basis rows over `domain`

    @property
    def rank(self):
        return len(self.rows)

    def basis_elements(self):
        return [
            TensorElement.make(self.m, self.n + 1, {self.domain[j]: c for j, c in row})
            for row in self.rows
        ]


def _bracket_rows(m: int, n: int, k):
    """The (restricted) bracket map L1 (x) L_{n+1} -> L_{n+2} as sparse rows.

    Returns ``(domain, target_words, rows)`` with one sparse row
    ((target word index, coeff), ...) per domain key.  Brackets keep every
    letter's multiplicity, so a restricted domain maps into the restricted
    target.
    """
    if k is not None and k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    domain = [
        (i, w)
        for i in range(1, m + 1)
        for w in lyndon_words(m, n + 1)
        if k is None or tensor_multiplicity((i, w)) <= k
    ]
    target_words = [
        w for w in lyndon_words(m, n + 2)
        if k is None or word_multiplicity(w) <= k
    ]
    col = {w: j for j, w in enumerate(target_words)}
    memo = {}  # basis-pair brackets, dropped with the call
    rows = []
    for i, word in domain:
        image = sorted(_bracket((((i,), 1),), ((word, 1),), memo).items())
        rows.append(tuple((col[w], c) for w, c in image))  # words sort as columns
    return domain, target_words, rows


@lru_cache(maxsize=None)
def bracket_kernel(m: int, n: int, k=None) -> BracketKernel:
    """Basis of D_n (or D_n^k) as the exact integer kernel of the bracket map."""
    domain, _, images = _bracket_rows(m, n, k)
    return BracketKernel(m, n, k, tuple(domain), tuple(left_kernel(images)))


def bracket_map_cokernel(m: int, n: int, k=None):
    """Invariant factors of the cokernel of the (restricted) bracket map."""
    _, target_words, rows = _bracket_rows(m, n, k)
    snf = presentation(rows, len(target_words))
    # cokernel: Z/d per factor d > 1 and Z per survivor past the factors
    free = len(snf.survivors) - len(snf.diag)
    return sorted(d for d in snf.diag if d != 1) + [0] * free
