import random

import pytest
from sympy import divisors, mobius

from forestcalc.errors import NotPrimitiveError
from forestcalc.freelie import (
    LieElement,
    TensorElement,
    bracket_kernel,
    bracket_map,
    bracket_map_cokernel,
    bracket_str,
    k_project_tensor,
    lie_bracket,
    lyndon_words,
    shape_tensor,
    shape_to_lie,
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
    x1 = shape_to_lie(2, 1)
    x2 = shape_to_lie(2, 2)
    assert lie_bracket(x1, x1).is_zero
    assert (lie_bracket(x1, x2) + lie_bracket(x2, x1)).is_zero
    a, b, c = x1, x2, lie_bracket(x1, x2)
    jac = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert jac.is_zero


def test_arithmetic_keeps_class_and_equality_is_type_strict():
    lie = LieElement.make(2, 1, {(1,): 2, (2,): -1})
    tensor = TensorElement.make(2, 1, {(1,): 2, (2,): -1})
    assert lie != tensor
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
        assert tensor_to_lie(2, n, x.tensor()) == x


def test_tensor_to_lie_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        tensor_to_lie(2, 2, {(1, 2): 1})  # x1x2 alone is not a commutator


def test_shape_to_lie_matches_nested_brackets():
    x1 = shape_to_lie(2, 1)
    x2 = shape_to_lie(2, 2)
    nested = lie_bracket(lie_bracket(x1, x2), x2)
    assert shape_to_lie(2, ((1, 2), 2)) == nested


def test_bracket_map():
    x = tensor_of(1, LieElement.make(2, 1, {(2,): 1}))
    image = bracket_map(x)
    assert str(image) == "+1*[x1,x2]"


def test_kernel_rank_formula():
    for m in (1, 2, 3):
        for n in range(0, 4):
            kern = bracket_kernel(m, n)
            expect = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
            assert kern.rank == expect
            for elem in kern.basis_elements():
                assert bracket_map(elem).is_zero


def test_cokernel_trivial():
    for m in (1, 2):
        for n in range(0, 4):
            assert bracket_map_cokernel(m, n) == []


def test_kernel_coordinates_roundtrip():
    kern = bracket_kernel(2, 2)
    basis = kern.basis_elements()
    if basis:
        sparse = dict(kern.coordinates(basis[0]))
        coords = [sparse.get(j, 0) for j in range(kern.rank)]
        assert coords[0] == 1 and all(c == 0 for c in coords[1:])


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
        tensor = LieElement.make(m, degree, coeffs).tensor()
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
