"""Free Lie algebra over the integers with the Lyndon-word basis.

Degree-n elements live in the span of standard (Chen-Fox-Lyndon)
bracketings of Lyndon words of length n over the alphabet 1..m.  Reduction
to the basis goes through the tensor algebra: the expansion of the standard
bracketing of a Lyndon word w is w plus lexicographically larger words, so
integer elimination along sorted Lyndon words is exact and detects
non-primitive tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NotPrimitiveError, ParameterError
from .intlinalg import hermite_factor, invariant_factors, left_kernel, solve_left


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


@lru_cache(maxsize=None)
def standard_bracketing(word: tuple):
    """Standard bracketing of a Lyndon word, as a rooted shape."""
    if len(word) == 1:
        return word[0]
    # standard factorization: longest proper Lyndon suffix
    for split in range(1, len(word)):
        suffix = word[split:]
        if _is_lyndon(suffix):
            return (standard_bracketing(word[:split]), standard_bracketing(suffix))
    raise ParameterError(f"{word} is not a Lyndon word")


def _is_lyndon(word) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


@lru_cache(maxsize=None)
def shape_tensor(shape) -> tuple:
    """Tensor-algebra expansion of a rooted shape, as sorted (word, coeff) pairs."""
    if isinstance(shape, int):
        return (((shape,), 1),)
    left = shape_tensor(shape[0])
    right = shape_tensor(shape[1])
    acc = {}
    for wa, ca in left:
        for wb, cb in right:
            acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
            acc[wb + wa] = acc.get(wb + wa, 0) - ca * cb
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def _dict(pairs):
    return {w: c for w, c in pairs}


@dataclass(frozen=True)
class LieElement:
    """Homogeneous integer element of the free Lie algebra on X1..Xm."""

    m: int
    degree: int
    coeffs: tuple  # sorted ((lyndon word, coeff), ...), no zeros

    @staticmethod
    def make(m, degree, mapping):
        items = tuple(sorted((w, c) for w, c in mapping.items() if c))
        return LieElement(m, degree, items)

    @staticmethod
    def zero(m, degree):
        return LieElement(m, degree, ())

    @staticmethod
    def generator(m, i):
        return LieElement(m, 1, (((i,), 1),))

    @staticmethod
    def basis(m, word):
        return LieElement(m, len(word), ((tuple(word), 1),))

    @property
    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs

    def __add__(self, other):
        acc = _dict(self.coeffs)
        for w, c in other.coeffs:
            acc[w] = acc.get(w, 0) + c
        return LieElement.make(self.m, self.degree, acc)

    def __sub__(self, other):
        acc = _dict(self.coeffs)
        for w, c in other.coeffs:
            acc[w] = acc.get(w, 0) - c
        return LieElement.make(self.m, self.degree, acc)

    def scale(self, c):
        return LieElement.make(self.m, self.degree, {w: c * x for w, x in self.coeffs})

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

    Eliminates along Lyndon words in lexicographic order (each basis
    expansion is triangular with unit diagonal); a nonzero residue means
    the tensor is not a Lie element.
    """
    residue = {w: c for w, c in tensor.items() if c}
    out = {}
    for word in lyndon_words(m, degree):
        c = residue.get(word, 0)
        if c:
            out[word] = c
            for w, x in shape_tensor(standard_bracketing(word)):
                residue[w] = residue.get(w, 0) - c * x
    if any(residue.values()):
        raise NotPrimitiveError("tensor is not primitive (no Lie preimage)")
    return LieElement.make(m, degree, out)


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """[a, b], basis-reduced through the tensor algebra."""
    ta, tb = a.tensor(), b.tensor()
    acc = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
            acc[wb + wa] = acc.get(wb + wa, 0) - ca * cb
    return tensor_to_lie(a.m, a.degree + b.degree, acc)


@lru_cache(maxsize=None)
def shape_to_lie(m: int, shape) -> LieElement:
    """Basis reduction of the bracket determined by a rooted shape."""
    degree = 1 if isinstance(shape, int) else len(_shape_word(shape))
    return tensor_to_lie(m, degree, _dict(shape_tensor(shape)))


def _shape_word(shape):
    if isinstance(shape, int):
        return (shape,)
    return _shape_word(shape[0]) + _shape_word(shape[1])


def lyndon_basis(m: int, n: int):
    """Ordered basis of degree-n brackets: standard bracketings of Lyndon words."""
    return [LieElement.basis(m, w) for w in lyndon_words(m, n)]


def word_multiplicity(word) -> int:
    return max(word.count(i) for i in set(word)) if word else 0


def k_project_lie(x: LieElement, k: int) -> LieElement:
    """Drop basis terms whose bracket repeats some generator more than k times."""
    return LieElement.make(
        x.m, x.degree, {w: c for w, c in x.coeffs if word_multiplicity(w) <= k}
    )


# ---------------------------------------------------------------------------
# tensor space L1 (x) L_{n+1}


@dataclass(frozen=True)
class TensorElement:
    """Integer element of L1 (x) L_{degree}: root-labeled trees, basis-reduced."""

    m: int
    degree: int  # degree of the right-hand Lie factor (= n + 1)
    coeffs: tuple  # sorted (((root label, lyndon word), coeff), ...)

    @staticmethod
    def make(m, degree, mapping):
        items = tuple(sorted((key, c) for key, c in mapping.items() if c))
        return TensorElement(m, degree, items)

    @staticmethod
    def zero(m, degree):
        return TensorElement(m, degree, ())

    @property
    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs

    def __add__(self, other):
        acc = _dict(self.coeffs)
        for key, c in other.coeffs:
            acc[key] = acc.get(key, 0) + c
        return TensorElement.make(self.m, self.degree, acc)

    def __sub__(self, other):
        acc = _dict(self.coeffs)
        for key, c in other.coeffs:
            acc[key] = acc.get(key, 0) - c
        return TensorElement.make(self.m, self.degree, acc)

    def scale(self, c):
        return TensorElement.make(self.m, self.degree, {k: c * x for k, x in self.coeffs})

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
    acc = {}
    for (i, word), c in x.coeffs:
        reduced = shape_to_lie(x.m, (i, standard_bracketing(word)))
        for w, v in reduced.coeffs:
            acc[w] = acc.get(w, 0) + c * v
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


@dataclass(frozen=True)
class BracketKernel:
    """Integer basis of the kernel of the (possibly restricted) bracket map."""

    m: int
    n: int
    k: object  # int or None
    domain: tuple  # ordered ((root label, lyndon word), ...)
    rows: tuple  # Hermite-reduced basis rows over `domain`
    factor: object = field(compare=False, repr=False)  # hermite_factor of `rows`

    @property
    def rank(self):
        return len(self.rows)

    def basis_elements(self):
        return [
            TensorElement.make(
                self.m, self.n + 1,
                {key: c for key, c in zip(self.domain, row) if c},
            )
            for row in self.rows
        ]

    def coordinates(self, x: TensorElement):
        """Coordinates of x in this basis (x must lie in the kernel lattice)."""
        index = {key: j for j, key in enumerate(self.domain)}
        vec = [0] * len(self.domain)
        for key, c in x.coeffs:
            if key not in index:
                raise NotPrimitiveError(f"term {key} outside the kernel domain")
            vec[index[key]] = c
        return solve_left(self.factor, vec)


def _bracket_matrix(m: int, n: int, k):
    """The (restricted) bracket map L1 (x) L_{n+1} -> L_{n+2} as an integer matrix.

    Returns ``(domain, target_words, matrix)`` with one row per domain key.
    Brackets keep every letter's multiplicity, so a restricted domain maps
    into the restricted target.
    """
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
    matrix = []
    for i, word in domain:
        image = shape_to_lie(m, (i, standard_bracketing(word)))
        row = [0] * len(target_words)
        for w, c in image.coeffs:
            row[col[w]] = c
        matrix.append(row)
    return domain, target_words, matrix


@lru_cache(maxsize=None)
def bracket_kernel(m: int, n: int, k=None) -> BracketKernel:
    """Basis of D_n (or D_n^k) as the exact integer kernel of the bracket map."""
    domain, _, matrix = _bracket_matrix(m, n, k)
    rows = left_kernel(matrix)
    return BracketKernel(m, n, k, tuple(domain), tuple(tuple(r) for r in rows),
                         hermite_factor(rows))


def bracket_map_cokernel(m: int, n: int, k=None):
    """Invariant factors of the cokernel of the (restricted) bracket map."""
    _, target_words, matrix = _bracket_matrix(m, n, k)
    diag = invariant_factors(matrix)
    # cokernel = Z^{cols - rank} plus torsion from nontrivial factors
    free = len(target_words) - len(diag)
    return sorted(d for d in diag if d != 1) + [0] * free
