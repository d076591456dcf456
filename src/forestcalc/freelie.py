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

A memo made by `quasi_memo` takes the brackets in the free quasi-Lie ring
L' instead, where [x, y] = -[y, x] and Jacobi hold but [x, x] need not
vanish: L'_{2d} = L_{2d} + Z/2 (x) L_d, the squares [P_v, P_v] of the
Lyndon words v of degree d (Levine, AGT 6, 2006).  The rewriting above holds
in L' too, and where it meets [P_u, P_u] it keeps the square under the key
uu, a word that is no Lyndon word, with a coefficient read mod 2; for
x = sum c_i P_i, [x, x] = sum c_i^2 [P_i, P_i], as the terms i != j cancel.
A square bracketed again is 0, since [[u, u], z] = -[[u, z], u] - [[z, u], u]
= 0 by Jacobi and antisymmetry, so the memo of every lower degree stays
valid.

A tree is read at each of its leaves as the bracket of everything else,
for the relations and normal forms of the tree groups and for eta, in one
walk: the bracket of all that lies outside a subtree is carried down into
it, one rewriting per vertex, and each subtree's coordinates are reduced
once.  `leaf_readings` walks the standard bracketing of a Lyndon word,
whose subtrees are basis elements, and `tree_readings` any rooted shape.

The tensor algebra stays for the Magnus expansion and as an oracle: the
expansion of P_w is w plus lexicographically larger words, so integer
elimination along sorted Lyndon words (`tensor_to_lie`) is exact and
detects non-primitive tensors.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

from .errors import NotPrimitiveError, ParameterError, ResourceLimitError
from .intlinalg import left_kernel, presentation


# the most Lyndon words one degree may have; 700,000 of length 24 take 0.5 GB
MAX_LYNDON_WORDS = 1_000_000


def _mobius_divisors(n: int) -> list:
    """(d, mu(d)) for the divisors d of n where mu(d) is not 0: the
    products of r distinct primes of n, with mu(d) = (-1)^r."""
    primes, rest, p = [], n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    out = []
    for chosen in range(1 << len(primes)):
        d, sign = 1, 1
        for i, p in enumerate(primes):
            if chosen >> i & 1:
                d, sign = d * p, -sign
        out.append((d, sign))
    return out


def witt(m: int, n: int) -> int:
    """W(m, n), the number of Lyndon words of length n over 1..m, by the
    Witt formula (1/n) sum_{d | n} mu(d) m^(n/d)."""
    return sum(sign * m ** (n // d) for d, sign in _mobius_divisors(n)) // n


def fine_witt(counts) -> int:
    """The number of Lyndon words whose letters are counted by `counts`,
    one count per letter, by the fine-graded Witt formula
    (1/|a|) sum_{d | gcd a} mu(d) (|a|/d)! / prod_i (a_i/d)!."""
    counts = [c for c in counts if c]
    if len(counts) < 2:
        return int(counts == [1])
    total, out = sum(counts), 0
    for d, sign in _mobius_divisors(gcd(*counts)):
        term = factorial(total // d)
        for c in counts:
            term //= factorial(c // d)
        out += sign * term
    return out // total


def lyndon_count(m: int, n: int) -> int:
    """W(m, n), refused past MAX_LYNDON_WORDS.

    On two or more letters W(m, n) >= m^n / 2n by the Witt formula, so
    past length 64 there are over 2^57 and they are refused uncounted.
    """
    if m == 1:
        return int(n == 1)
    count = witt(m, n) if n <= 64 else None
    if count is None or count > MAX_LYNDON_WORDS:
        number = "over 2^57" if count is None else f"{count:,}"
        raise ResourceLimitError(
            f"Lyndon words of length {n} on {m} letters number {number},"
            f" over the budget of {MAX_LYNDON_WORDS:,}"
        )
    return count


@lru_cache(maxsize=None)
def lyndon_words(m: int, n: int) -> tuple:
    """All Lyndon words of length n over 1..m, lexicographically sorted (Duval).

    More than MAX_LYNDON_WORDS of them are refused before any is made
    (`lyndon_count`).
    """
    if m < 1 or n < 1:
        raise ParameterError("lyndon_words requires m >= 1, n >= 1")
    if not lyndon_count(m, n):
        return ()
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


def lyndon_words_of(content) -> tuple:
    """The Lyndon words whose letters are those of `content`, a sorted
    tuple, lexicographically sorted.

    Prenecklaces are extended letter by letter in increasing order, each by
    a letter still left (Fredricksen-Kessler-Maiorana, as in Ruskey,
    Savage and Wang, J. Algorithms 13, 1992): a[t] >= a[t - p], the period p
    kept on a copy of a[t - p] and set to t past it, and a word of n
    letters is a Lyndon word when p = n.  A Lyndon word starts with its
    least letter, and every prefix of one is a prenecklace.
    """
    n, left = len(content), {x: content.count(x) for x in content}
    word, out = [0, content[0]] + [0] * (n - 1), []
    left[content[0]] -= 1

    def extend(t, p):
        if t > n:
            if p == n:
                out.append(tuple(word[1:]))
            return
        for x in left:
            if x >= word[t - p] and left[x]:
                left[x] -= 1
                word[t] = x
                extend(t + 1, p if x == word[t - p] else t)
                left[x] += 1

    extend(2, 1)
    return tuple(out)


def _split(word) -> int:
    """Where the standard factorization of a word of length >= 2 cuts it.

    The right factor is the longest proper Lyndon suffix, which is the least
    proper suffix: a longer Lyndon suffix would be less than it.  That is
    the last factor of the Lyndon factorization of word[1:], found in one
    linear scan (Duval, J. Algorithms 4, 1983).
    """
    size, i = len(word), 1
    while i < size:
        j, k = i + 1, i
        while j < size and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        # factors of length j - k start at i, up to k
        start = i + (k - i) // (j - k) * (j - k)
        i = start + j - k
    return start


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

    def __str__(self):
        if not self.coeffs:
            return "0"
        memo = {}
        return " + ".join(f"{c:+d}*{bracket_str(w, memo)}" for w, c in self.coeffs)


def bracket_str(word, memo=None) -> str:
    """The standard bracketing of a Lyndon word as text, such as [x1,[x1,x2]].

    Each word's text joins its two standard factors' texts.  `memo` maps the
    words printed so far to their texts; a caller printing many words may
    share one.
    """
    word = tuple(word)
    if memo is None:
        memo = {}
    text = memo.get(word)
    if text is None:
        if len(word) == 1:
            text = f"x{word[0]}"
        else:
            split = _split(word)
            text = f"[{bracket_str(word[:split], memo)},{bracket_str(word[split:], memo)}]"
        memo[word] = text
    return text


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


# the key whose presence marks a memo of brackets in the quasi-Lie ring
_QUASI = "quasi"


def quasi_memo() -> dict:
    """An empty memo of basis-pair brackets in the quasi-Lie ring L', whose
    brackets keep the squares (see the module docstring)."""
    return {_QUASI: True}


def is_square(word) -> bool:
    """Whether a key is the square uu of a word u, which no Lyndon word is."""
    half = len(word) // 2
    return word[:half] == word[half:]


def _basis_bracket(u, v, memo) -> tuple:
    """[P_u, P_v] for Lyndon words u < v, as (Lyndon word, coeff) pairs,
    and in L' as squares uu too.

    Rewrites by the rule in the module docstring.  `memo` maps (u, v) to the
    result; the caller owns it.  In L' a square u or v, a bracket of a
    lower degree, brackets to 0.
    """
    out = memo.get((u, v))
    if out is None:
        split = len(u) > 1 and _split(u)
        if _QUASI in memo and (is_square(u) or is_square(v)):
            out = ()
        elif not split or u[split:] >= v:
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
            if _QUASI in memo and not is_square(u):
                acc[u + u] = acc.get(u + u, 0) + scale * c
            continue
        for z, y in pairs:
            acc[z] = acc.get(z, 0) + c * y


def _bracket(x, y, memo) -> dict:
    """[x, y] as word -> nonzero coeff, for x, y given as (Lyndon word, coeff) pairs."""
    acc = {}
    for u, c in x:
        _add_bracket(acc, c, u, y, memo)
    return {w: c for w, c in acc.items() if c}


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


def lie_bracket(a: LieElement, b: LieElement, memo=None) -> LieElement:
    """[a, b] on the Lyndon basis.

    `memo` holds basis-pair brackets (see `_basis_bracket`): a caller that
    takes many brackets may pass one dict to all of them and drop it after;
    None takes a fresh one.
    """
    memo = {} if memo is None else memo
    return LieElement.make(a.m, a.degree + b.degree, _bracket(a.coeffs, b.coeffs, memo))


def lie_coordinates(shape, memo, known=None) -> dict:
    """The bracket of a rooted shape on the Lyndon basis, as {word: coeff},
    and on a `quasi_memo` in L', squares included.

    Each subtree is reduced once, bottom-up, as the bracket of its
    branches' coordinates, and kept in `known`, {shape: coordinates}, which
    a caller reading many subtrees of one tree may share between calls;
    None takes a fresh one.  The dicts returned are shared: read only.
    """
    known = {} if known is None else known
    out = known.get(shape)
    if out is None:
        if isinstance(shape, int):
            out = {(shape,): 1}
        else:
            out = _bracket(lie_coordinates(shape[0], memo, known).items(),
                           lie_coordinates(shape[1], memo, known).items(), memo)
        known[shape] = out
    return out


def tree_readings(shape, outside, memo, known=None):
    """A rooted shape with `outside` grafted at its root, read at every
    leaf as `leaf_readings` reads a word, lazily: yields (label, reading)
    in leaf order.

    A branch's coordinates are reduced when the walk first needs them, once
    per tree (`lie_coordinates`, whose `known` this takes), so the first
    reading costs the right branches along the left spine only.  The
    readings are {Lyndon word: coeff} dicts, which may hold zeros.
    """
    if isinstance(shape, int):
        yield shape, outside
        return
    known = {} if known is None else known
    (a, b), left, right = shape, {}, {}
    for u, c in lie_coordinates(b, memo, known).items():
        _add_bracket(left, c, u, outside.items(), memo)
    yield from tree_readings(a, left, memo, known)
    for u, c in lie_coordinates(a, memo, known).items():
        _add_bracket(right, -c, u, outside.items(), memo)
    yield from tree_readings(b, right, memo, known)


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
        memo = {}
        return " + ".join(
            f"{c:+d}*x{i} (x) {bracket_str(w, memo)}" for (i, w), c in self.coeffs
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
