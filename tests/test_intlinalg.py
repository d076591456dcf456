import random

import pytest
from sympy import Matrix

from forestcalc.errors import DomainError
from forestcalc.intlinalg import (
    hermite_factor,
    identity,
    invariant_factors,
    left_kernel,
    mat_mul,
    row_hermite,
    smith_normal_form,
    solve_left,
)


def _random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_hermite_transform_identity():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, pivots, u = row_hermite(a, want_transform=True)
        assert mat_mul(u, a) == h
        # pivots positive, strictly increasing columns, entries above reduced
        last = -1
        for r, c in enumerate(pivots):
            assert c > last
            last = c
            assert h[r][c] > 0
            for rr in range(r):
                assert 0 <= h[rr][c] < h[r][c]


def test_left_kernel_annihilates():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        kern = left_kernel(a)
        for row in kern:
            assert all(v == 0 for v in mat_mul([row], a)[0])
        rank = len(row_hermite(a)[1])
        assert len(kern) == len(a) - rank


def test_left_kernel_saturated():
    # kernel basis solves exact integer membership: 2x - 2y = 0 has (1,-1)
    kern = left_kernel([[1, 0], [1, 0]])
    assert solve_left(kern, [3, -3]) is not None


def _solve_or_none(basis, target):
    try:
        return solve_left(basis, target)
    except DomainError:
        return None


def test_solve_left():
    a = [[2, 0], [0, 3]]
    x = solve_left(a, [4, 9])
    assert mat_mul([x], a)[0] == [4, 9]
    with pytest.raises(DomainError):
        solve_left(a, [1, 0])
    with pytest.raises(DomainError):
        solve_left(hermite_factor(a), [1, 0])
    # a factored basis solves exactly as the plain matrix, which is factored
    # afresh on every call, and fails on the same targets
    rng = random.Random(17)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = hermite_factor(a)
        coeffs = _random_matrix(rng, 1, len(a), bound=3)
        targets = [mat_mul(coeffs, a)[0]] + _random_matrix(rng, 3, len(a[0]))
        for target in targets:
            x = _solve_or_none(a, target)
            assert _solve_or_none(basis, target) == x
            if x is not None:
                assert mat_mul([x], a)[0] == target
        assert _solve_or_none(a, targets[0]) is not None
    assert solve_left(hermite_factor([]), []) == []
    with pytest.raises(DomainError):
        solve_left(hermite_factor([]), [1])


def test_smith_against_sympy():
    rng = random.Random(9)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ours = invariant_factors(a)
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        snf = sympy_snf(Matrix(a))
        diag = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
        assert ours == diag


def test_smith_transforms():
    rng = random.Random(13)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag, u, v = smith_normal_form(a, want_u=True, want_v=True)
        d = mat_mul(mat_mul(u, a), v)
        for i, row in enumerate(d):
            for j, val in enumerate(row):
                expect = diag[i] if i == j and i < len(diag) else 0
                assert val == expect
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        assert all(x > 0 for x in diag)


def test_identity():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
