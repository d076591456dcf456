import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisors, mobius

from lie_oracle import duval_lyndon_words, is_lyndon, k_project_tensor, lie_tensor
from table_oracle import shape_ids

from forestcalc import freelie
from forestcalc.errors import NotPrimitiveError, ParameterError, ResourceLimitError
from forestcalc.freelie import (
    LieElement,
    TensorElement,
    _bracket_rows,
    _commutator,
    _split,
    bracket_kernel,
    bracket_map,
    bracket_map_cokernel,
    bracket_str,
    lie_bracket,
    lie_coordinates,
    lyndon_words,
    lyndon_words_of,
    shape_tensor,
    standard_bracketing,
    tensor_of,
    tensor_to_lie,
    word_multiplicity,
)


def witt(m, n):
    return sum(mobius(d) * m ** (n // d) for d in divisors(n)) // n


def test_lyndon_counts_witt():
    for m in (1, 2, 3):
        for n in range(1, 7):
            assert len(lyndon_words(m, n)) == witt(m, n)


def _min_split(word):
    """The standard factorization's cut as the least proper suffix, by min."""
    return min(range(1, len(word)), key=lambda i: word[i:])


def test_split_scan_matches_least_suffix():
    # one Duval scan finds the cut that min over every proper suffix finds
    words = 0
    for m in (2, 3):
        for n in range(2, 13):
            for word in lyndon_words(m, n):
                assert _split(word) == _min_split(word)
                words += 1
    assert words == sum(witt(m, n) for m in (2, 3) for n in range(2, 13))


def test_split_cuts_every_word_at_its_least_proper_suffix():
    # on any word, not only on Lyndon words, the cut is at the least proper
    # suffix, so a word is a Lyndon word when it is less than that suffix,
    # which is how tensor_to_lie tests a least word
    lyndon = 0
    for n in range(2, 9):
        for word in product((1, 2, 3), repeat=n):
            assert word[_split(word):] == word[_min_split(word):]
            assert (word < word[_split(word):]) == is_lyndon(word)
            lyndon += is_lyndon(word)
    assert lyndon == sum(witt(3, n) for n in range(2, 9))


def test_lyndon_words_match_duval():
    # the prenecklace recursion gives the words that Duval's successor rule
    # and a sort give, in the same order
    cells = [(m, n) for m in range(1, 5) for n in range(1, 11)]
    for m, n in cells + [(2, 20), (3, 12), (5, 8), (100, 3), (1000, 2)]:
        assert lyndon_words(m, n) == duval_lyndon_words(m, n), (m, n)


def _buckets(m, n):
    """The Lyndon words of length n over 1..m by content, each bucket in
    the order of `lyndon_words`."""
    buckets = {}
    for w in lyndon_words(m, n):
        buckets.setdefault(tuple(sorted(w)), []).append(w)
    return {content: tuple(words) for content, words in buckets.items()}


def test_lyndon_words_of_match_the_buckets():
    # the words of one content are its bucket of every word of the degree,
    # in the same order, and a content without Lyndon words has none
    for m, n in [(1, 1), (1, 4), (2, 6), (3, 5), (4, 4), (5, 5), (3, 8), (2, 12)]:
        buckets = _buckets(m, n)
        for counts in _compositions(n, m):
            content = tuple(x for x, c in enumerate(counts, 1) for _ in range(c))
            assert lyndon_words_of(content) == buckets.get(content, ())
    # labels that need not start at 1 or follow one another
    assert lyndon_words_of((2, 5, 5)) == ((2, 5, 5),)
    assert lyndon_words_of((7,)) == ((7,),) and lyndon_words_of((7, 7)) == ()


def test_witt_count_matches_sympy_mobius_sum():
    for m in (1, 2, 3, 7, 10**6):
        for n in (*range(1, 31), 60, 64, 97, 210):
            assert freelie.witt(m, n) == witt(m, n)


def test_fine_witt_counts_the_words_of_each_content():
    # the fine-graded Witt count of every label-count vector of a degree is
    # the size of its content's bucket, none for a content without words,
    # with labels in any order and zero counts ignored
    for m, n in [(1, 1), (1, 3), (2, 8), (3, 6), (4, 4)]:
        buckets = _buckets(m, n)
        for counts in _compositions(n, m):
            content = tuple(x for x, c in enumerate(counts, 1) for _ in range(c))
            assert freelie.fine_witt(counts) == len(buckets.get(content, ()))
            assert freelie.fine_witt(counts[::-1] + [0]) == freelie.fine_witt(counts)
    assert freelie.fine_witt([]) == freelie.fine_witt([0, 0]) == 0


def _compositions(total, parts):
    """Every list of `parts` counts, each >= 0, adding up to `total`."""
    if parts == 1:
        return [[total]]
    return [[c] + rest for c in range(total + 1) for rest in _compositions(total - c, parts - 1)]


def test_lyndon_budget():
    # counted by the Witt formula before any word is made
    assert len(lyndon_words(2, 20)) == witt(2, 20) < freelie.MAX_LYNDON_WORDS < witt(2, 25)
    for m, n in ((100000, 2), (2, 25), (10**9, 7), (2, 10**6)):
        with pytest.raises(ResourceLimitError):
            lyndon_words(m, n)
    assert lyndon_words(1, 10**9) == ()  # no Lyndon word longer than 1 on one letter


def test_lyndon_sorted_and_lyndon():
    words = lyndon_words(2, 5)
    assert list(words) == sorted(words)
    for w in words:
        assert all(w < w[i:] for i in range(1, len(w)))


def test_standard_bracketing():
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))
    assert standard_bracketing((1, 2, 2)) == ((1, 2), 2)
    assert bracket_str((1, 1, 2)) == "[x1,[x1,x2]]"


def test_bracket_antisymmetry_and_jacobi():
    x1 = LieElement.make(2, 1, {(1,): 1})
    x2 = LieElement.make(2, 1, {(2,): 1})
    assert lie_bracket(x1, x1).is_zero
    assert (lie_bracket(x1, x2) + lie_bracket(x2, x1)).is_zero
    a, b, c = x1, x2, lie_bracket(x1, x2)
    jac = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert jac.is_zero


def _quasi(x, y, memo):
    """[x, y] in the quasi-Lie ring, {key: coeff} dicts, a square's
    coefficient read mod 2."""
    out = freelie._bracket(x.items(), y.items(), memo)
    out = {w: c % 2 if freelie.is_square(w) else c for w, c in out.items()}
    return {w: c for w, c in out.items() if c}


def _quasi_sum(*terms):
    acc = {}
    for term in terms:
        for w, c in term.items():
            acc[w] = acc.get(w, 0) + c
    return {w: c % 2 if freelie.is_square(w) else c for w, c in acc.items()
            if (c % 2 if freelie.is_square(w) else c)}


def test_quasi_brackets_keep_the_top_squares():
    # on a quasi memo, brackets keep the squares [P_v, P_v] of the top
    # degree, mod 2: antisymmetry and Jacobi hold, [x, x] is
    # sum c_v^2 [P_v, P_v], a square bracketed again is 0, and the part on
    # Lyndon words is the bracket in L
    rng = random.Random(3)

    def element(degree):
        acc = {}
        for _ in range(rng.randint(1, 3)):
            shape = _random_labeled(rng, 3, degree)
            for w, c in freelie.lie_coordinates(shape, {}).items():
                acc[w] = acc.get(w, 0) + rng.choice((-2, -1, 1, 3)) * c
        return {w: c for w, c in acc.items() if c}

    squares = 0
    for _ in range(60):
        memo = freelie.quasi_memo()
        x, y, z = (element(rng.randint(1, 3)) for _ in range(3))
        assert _quasi_sum(_quasi(x, y, memo), _quasi(y, x, memo)) == {}
        assert _quasi(x, x, memo) == {v + v: 1 for v, c in x.items() if c % 2}
        jacobi = [_quasi(_quasi(a, b, memo), c, memo) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
        assert _quasi_sum(*jacobi) == {}
        xy = _quasi(x, y, memo)
        assert {w: c for w, c in xy.items() if not freelie.is_square(w)} == freelie._bracket(
            x.items(), y.items(), {})
        squares += sum(map(freelie.is_square, xy))
    assert squares  # the Jacobi rewriting met squares


def _random_labeled(rng, m, leaves):
    if leaves == 1:
        return rng.randint(1, m)
    left = rng.randint(1, leaves - 1)
    return _random_labeled(rng, m, left), _random_labeled(rng, m, leaves - left)


def test_arithmetic_keeps_class_and_equality_is_type_strict():
    lie = LieElement.make(2, 1, {(1,): 2, (2,): -1})
    tensor = TensorElement.make(2, 1, {(1,): 2, (2,): -1})
    assert lie != tensor and not lie == tensor
    pairs = (((1,), 2), ((2,), -1))
    assert LieElement(2, 1, pairs) != TensorElement(2, 1, pairs)
    assert LieElement(2, 1, pairs) == lie != (2, 1, pairs)
    for x in (lie, tensor):
        assert type(x + x) is type(x) and type(x - x) is type(x)
        assert (x - x) == type(x).zero(2, 1) and (x - x).is_zero
        assert x + x == x.scale(2)
    assert str(lie.scale(-1)) == "-2*x1 + +1*x2"


def test_tensor_to_lie_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        coeffs = {w: rng.randint(-3, 3) for w in lyndon_words(2, n)}
        x = LieElement.make(2, n, coeffs)
        assert tensor_to_lie(2, n, lie_tensor(x)) == x


def test_tensor_to_lie_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        tensor_to_lie(2, 2, {(1, 2): 1})  # x1x2 alone is not a commutator


def test_lie_coordinates_match_nested_brackets():
    x1 = LieElement.make(2, 1, lie_coordinates(1, {}))
    x2 = LieElement.make(2, 1, lie_coordinates(2, {}))
    nested = lie_bracket(lie_bracket(x1, x2), x2)
    assert LieElement.make(2, 3, lie_coordinates(((1, 2), 2), {})) == nested


def test_bracket_map():
    x = tensor_of(1, LieElement.make(2, 1, {(2,): 1}))
    image = bracket_map(x)
    assert str(image) == "+1*[x1,x2]"


def basis_elements(kern):
    """The kernel's basis rows as tensors."""
    return [TensorElement.make(kern.m, kern.n + 1, {kern.domain[j]: c for j, c in row})
            for row in kern.rows]


def test_kernel_rank_formula():
    for m in (1, 2, 3):
        for n in range(0, 4):
            kern = bracket_kernel(m, n)
            expect = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
            assert kern.rank == expect
            for elem in basis_elements(kern):
                assert bracket_map(elem).is_zero


def test_cokernel_trivial():
    for m in (1, 2):
        for n in range(0, 4):
            assert bracket_map_cokernel(m, n) == []


def test_bracket_kernel_rejects_nonpositive_k():
    # k counts letter multiplicities, as in build_group and eta_k: k <= 0 is
    # a parameter error, not an empty kernel or a trivial cokernel
    for k in (0, -1):
        with pytest.raises(ParameterError, match=f"k must be >= 1, got {k}"):
            bracket_kernel(2, 2, k)
        with pytest.raises(ParameterError, match=f"k must be >= 1, got {k}"):
            bracket_map_cokernel(2, 2, k)


def test_k_projection_counts_root():
    x = tensor_of(1, LieElement.make(2, 2, {(1, 2): 1}))  # word (1,2), root 1: r_1 = 2
    assert k_project_tensor(x, 1).is_zero
    assert k_project_tensor(x, 2) == x
    assert word_multiplicity((1, 2, 1)) == 2


def _old_tensor_to_lie(m, degree, tensor):
    """The full scan that the heap replaced, kept as oracle: every Lyndon
    word of the degree in order, then any residue left is non-primitive."""
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


def _verdict(fn, m, degree, tensor):
    try:
        return fn(m, degree, dict(tensor))
    except NotPrimitiveError:
        return "not primitive"


def test_tensor_to_lie_matches_old_scan():
    rng = random.Random(43)
    counts = {"lie": 0, "not primitive": 0}
    for _ in range(300):
        m, degree = rng.randint(1, 4), rng.randint(1, 6)
        words = lyndon_words(m, degree)
        coeffs = {w: rng.randint(-3, 3) for w in rng.sample(words, min(len(words), 4))}
        tensor = lie_tensor(LieElement.make(m, degree, coeffs))
        # a word of the wrong length, a letter above m, and non-Lyndon words:
        # 1^degree is below every other word of the degree, m^degree above
        length = degree + 1 if degree == 1 else degree + rng.choice((-1, 1))
        extra = [
            tuple(rng.randint(1, m) for _ in range(length)),
            tuple(rng.randint(1, m) for _ in range(degree - 1)) + (m + 1,),
            (1,) * degree if degree > 1 else (m + 1,),
            (m,) * degree if degree > 1 else (0,),
        ]
        for perturbed in [tensor] + [{**tensor, w: tensor.get(w, 0) + rng.choice((-2, -1, 1))}
                                     for w in extra]:
            old = _verdict(_old_tensor_to_lie, m, degree, perturbed)
            assert _verdict(tensor_to_lie, m, degree, perturbed) == old
            counts["lie" if old != "not primitive" else "not primitive"] += 1
    assert counts == {"lie": 300, "not primitive": 1200}


# The tensor round trip that Lyndon rewriting replaced, kept as oracle: expand
# both branches in the tensor algebra and eliminate their commutator.


def _old_reduce_shape(m, degree, shape):
    if isinstance(shape, int):
        return tensor_to_lie(m, degree, {(shape,): 1})
    return tensor_to_lie(m, degree, _commutator(shape_tensor(shape[0]), shape_tensor(shape[1])))


def _mirror(shape):
    return shape if isinstance(shape, int) else (_mirror(shape[1]), _mirror(shape[0]))


def test_lie_coordinates_match_tensor_round_trip():
    # each shape alone, and every shape through one `known` map of subtrees
    ids = shape_ids(3, 6)
    assert len(ids.shapes) > 10000
    memo, known = {}, {}
    for shape, order in zip(ids.shapes, ids.orders):
        for s in (shape, _mirror(shape)):
            old = _old_reduce_shape(3, order + 1, s)
            assert LieElement.make(3, order + 1, lie_coordinates(s, {})) == old
            assert LieElement.make(3, order + 1, lie_coordinates(s, memo, known)) == old


def test_bracket_rows_and_map_match_tensor_round_trip():
    rng = random.Random(11)
    cells = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    cells += [(m, 5) for m in range(1, 4)] + [(m, 6) for m in range(1, 3)]
    for m, n in cells:
        for k in (None, 2, 3):
            domain, target_words, rows = _bracket_rows(m, n, k)
            images = [_old_reduce_shape(m, n + 2, (i, standard_bracketing(w))) for i, w in domain]
            col = {w: j for j, w in enumerate(target_words)}
            assert rows == [tuple((col[w], c) for w, c in x.coeffs) for x in images]
            coeffs = [rng.randint(-3, 3) for _ in domain]
            x = TensorElement.make(m, n + 1, dict(zip(domain, coeffs)))
            total = LieElement.zero(m, n + 2)
            for c, image in zip(coeffs, images):
                total = total + image.scale(c)
            assert bracket_map(x) == total


def test_lie_bracket_matches_tensor_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        m, a, b = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        x, y = (LieElement.make(m, d, {w: rng.randint(-3, 3) for w in lyndon_words(m, d)})
                for d in (a, b))
        old = tensor_to_lie(m, a + b, _commutator(lie_tensor(x).items(), lie_tensor(y).items()))
        assert lie_bracket(x, y) == old


# An oracle that shares no code with the rewriting: its own standard
# factorization (first split with a Lyndon suffix) and tensor expansion.


def _own_bracketing(word):
    if len(word) == 1:
        return word[0]
    split = next(i for i in range(1, len(word))
                 if all(word[i:] < word[j:] for j in range(i + 1, len(word))))
    return (_own_bracketing(word[:split]), _own_bracketing(word[split:]))


def _own_tensor(shape):
    if isinstance(shape, int):
        return {(shape,): 1}
    a, b = _own_tensor(shape[0]), _own_tensor(shape[1])
    acc = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
            acc[wb + wa] = acc.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in acc.items() if c}


_WORDS = {m: [w for n in range(1, 9) for w in lyndon_words(m, n)] for m in range(1, 5)}


@st.composite
def _lyndon_pairs(draw):
    m = draw(st.integers(1, 4))
    u = draw(st.sampled_from(_WORDS[m]))
    v = draw(st.sampled_from([w for w in _WORDS[m] if len(u) + len(w) <= 9]))
    return m, u, v


@settings(max_examples=150, deadline=None)
@given(_lyndon_pairs())
def test_rewritten_bracket_expands_to_commutator(pair):
    m, u, v = pair
    shape_u, shape_v = _own_bracketing(u), _own_bracketing(v)
    assert (standard_bracketing(u), standard_bracketing(v)) == (shape_u, shape_v)
    rewritten = lie_bracket(LieElement.make(m, len(u), {u: 1}), LieElement.make(m, len(v), {v: 1}))
    expanded = {}
    for w, c in rewritten.coeffs:
        for x, y in _own_tensor(_own_bracketing(w)).items():
            expanded[x] = expanded.get(x, 0) + c * y
    assert {x: c for x, c in expanded.items() if c} == _own_tensor((shape_u, shape_v))
