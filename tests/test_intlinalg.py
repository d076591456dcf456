import random
import time
from math import gcd

import pytest
from sympy import ZZ, Matrix
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_form as sympy_domain_snf

from table_oracle import table_group
from test_groups import (
    _old_smith_normal_form,
    dense_relations,
    dense_row,
    identity,
    mat_mul,
    sparse_row,
)

from forestcalc.freelie import _bracket_rows, bracket_kernel
from forestcalc.groups import build_group
from forestcalc.intlinalg import (
    _carrying,
    _hermite,
    _residual_smith,
    _unit_pivots,
    left_kernel,
    presentation,
)


def _random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _rows(matrix):
    """The sparse rows ((column, coeff), ...) of a dense matrix."""
    return [sparse_row(row) for row in matrix]


def _invariant_factors(rows, width):
    """Invariant factors d1 | d2 | ... of sparse rows, read off their
    presentation: 1 per unit pivot, then diag."""
    quotient = presentation(rows, width)
    return [1] * len(quotient.pivots) + quotient.diag


def _left_kernel(matrix):
    """left_kernel of a dense matrix, as dense rows."""
    return [dense_row(r, len(matrix)) for r in left_kernel(_rows(matrix))]


def _dense_factor(a):
    """(h, pivots, u) of the sparse Hermite core on a dense matrix, carrying
    its transform: the rank rows of h, and of u with u * a == h, dense."""
    rows, width = _carrying(_rows(a))
    placed, pivots = _hermite(rows, width)
    h = [dense_row([(j, x) for j, x in rows[i].items() if j < width], len(a[0]) if a else 0)
         for i in placed]
    u = [dense_row([(j - width, x) for j, x in rows[i].items() if j >= width], len(a))
         for i in placed]
    return h, pivots, u


def test_hermite_transform_identity():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, pivots, u = _dense_factor(a)
        assert mat_mul(u, a) == h
        assert h == _old_row_hermite(a)[0][: len(pivots)]
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
        kern = _left_kernel(a)
        for row in kern:
            assert all(v == 0 for v in mat_mul([row], a)[0])
        rank = len(_dense_factor(a)[1])
        assert rank == len(_old_row_hermite(a)[1])
        assert len(kern) == len(a) - rank


def test_left_kernel_saturated():
    # kernel basis solves exact integer membership: 2x - 2y = 0 has (1,-1)
    kern = [dense_row(r, 2) for r in left_kernel(_rows([[1, 0], [1, 0]]))]
    assert _in_lattice(_old_row_hermite(kern, want_transform=True), [3, -3])


def test_smith_against_sympy():
    rng = random.Random(9)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ours = _invariant_factors(_sparse(a), len(a[0]))
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        snf = sympy_snf(Matrix(a))
        diag = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
        assert ours == diag


# the (m, n, flavor) cells of the benchmark's tree-groups workload
TREE_GROUP_CELLS = (
    (2, 5, "framed"), (1, 8, "twisted"), (4, 3, "framed"), (2, 4, "twisted"),
    (5, 2, "twisted"),
)


def _relation_matrix(m, n, flavor):
    return [list(r) for r in sorted(dense_relations(table_group(m, n, flavor)))]


def _sparse_relation_like(rng, rows, cols):
    # at most 4 nonzeros per row, like a relation row, but with entries up to
    # 3 so that blocks without a unit pivot occur
    out = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), rng.randint(1, min(4, cols))):
            row[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(row)
    return out


def test_tree_group_invariants_against_sympy():
    for m, n, flavor in TREE_GROUP_CELLS:
        group = table_group(m, n, flavor)
        rows = _relation_matrix(m, n, flavor)
        shape = (len(rows), len(group.generators))
        snf = sympy_domain_snf(DomainMatrix([[ZZ(x) for x in r] for r in rows], shape, ZZ))
        snf = snf.to_Matrix()
        diag = [abs(int(snf[i, i])) for i in range(min(shape)) if snf[i, i]]
        free = len(group.generators) - len(diag)
        assert build_group(m, n, flavor).invariants() == (free, sorted(d for d in diag if d > 1))


def _sympy_invariants(matrix):
    if not matrix or not matrix[0]:
        return []
    shape = (len(matrix), len(matrix[0]))
    snf = sympy_domain_snf(DomainMatrix([[ZZ(x) for x in r] for r in matrix], shape, ZZ))
    snf = snf.to_Matrix()
    return sorted(abs(int(snf[i, i])) for i in range(min(shape)) if snf[i, i])


def test_invariants_bound_coefficient_growth():
    # a dense Smith form that never reduces its remaining block did not
    # finish on this matrix within a minute; every Hermite form that the
    # residual's Smith form alternates is reduced
    a = [
        [0, -1, 6, -1, 0, 6, 2, 6], [1, -4, 6, -4, -1, 3, 0, -4],
        [-2, 2, -4, 1, -1, 0, 1, 0], [0, -4, 9, -1, 3, 0, 0, 9],
        [0, 0, 0, 0, 6, 9, -2, 6], [-1, 6, 1, 1, 9, -4, -2, -4],
        [-1, 3, 3, 9, 9, 2, 0, 2], [-4, 0, 3, -4, 9, 2, 1, 1],
    ]
    start = time.perf_counter()
    assert _invariant_factors(_sparse(a), len(a[0])) == [1] * 7 + [2692221]
    assert time.perf_counter() - start < 1.0
    assert _sympy_invariants(a) == [1] * 7 + [2692221]


def test_invariants_against_sympy():
    rng = random.Random(23)
    # relation-like draws up to 30 x 30; at seed 23 the dense Smith form does
    # not finish on some of them
    matrices = [
        _sparse_relation_like(rng, rng.randint(1, 30), rng.randint(1, 30))
        for _ in range(60)
    ]
    # rank-deficient products, whose residual has more columns than rank;
    # in this one the residual's gcds give a factor D that is not among the
    # block's own factors
    matrices.append([
        [3, 2, 5, 0, -3, -1], [3, -6, -3, 8, 1, 11], [3, 2, 5, 0, -3, -1],
        [-9, 2, -7, -8, 5, -9], [-3, 0, -3, -2, 2, -2], [-6, -6, -12, 2, 7, 5],
    ])
    for _ in range(200):
        rows, inner, cols = rng.randint(1, 10), rng.randint(1, 4), rng.randint(1, 10)
        x, y = _random_matrix(rng, rows, inner, 3), _random_matrix(rng, inner, cols, 3)
        matrices.append(mat_mul(x, y))
    # no unit entry anywhere
    for _ in range(20):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        matrices.append(
            [[rng.choice((0, 2, -2, 3, -3, 4, 6)) for _ in range(cols)] for _ in range(rows)]
        )
    for a in matrices:
        rows = _sparse(a)
        assert _invariant_factors(rows, len(a[0])) == _sympy_invariants(a)
        assert rows == _sparse(a)  # the input rows are left as they were


# ---------------------------------------------------------------------------
# the modular residual invariants that the shared Smith form replaced, kept
# as oracle


def _old_minor_rank(a):
    """(rank r, |det| of a nonsingular r x r minor) of a dense matrix.

    Fraction-free (Bareiss) elimination: every entry it holds is a minor of
    `a`, so coefficients stay within the Hadamard bound.
    """
    a = [list(row) for row in a]
    rank, last = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for row in a[rank + 1:]:
            x = row[col]
            for j in range(col + 1, len(row)):
                row[j] = (top[col] * row[j] - x * top[j]) // last
            row[col] = 0
        last = top[col]
        rank += 1
    return rank, abs(last)


def _old_gcdex(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def _old_combine(p, q, a, b, d):
    """Replace the vectors p, q by x*p + y*q and (b*p - a*q) / g, modulo d.

    a and b are the entries of p and q in the column being cleared; the
    2 x 2 transform has determinant -1, and the second vector's entry there
    becomes 0.  When a divides b, p is kept as it is: the pivot then changes
    only by shrinking, which is what ends the clearing loop.
    """
    if b % a == 0:
        f = b // a
        return p, [(f * u - v) % d for u, v in zip(p, q)]
    x, y, g = _old_gcdex(a, b)
    a, b = a // g, b // g
    return ([(x * u + y * v) % d for u, v in zip(p, q)],
            [(b * u - a * v) % d for u, v in zip(p, q)])


def _old_residual_factors(a):
    """Invariant factors of a dense block, with every entry kept below D:
    the modular path that `invariant_factors` took before the residual block
    had one Smith form.

    D is the determinant of a nonsingular minor of full rank r, so every
    invariant factor divides D and the row lattice may be enlarged by D*Z^n
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.14): the
    block is reduced modulo D, each pivot, the least entry left, clears its
    row and column with 2 x 2 gcd transforms, and contributes gcd(pivot, D).
    Those gcds, made into a divisibility chain and followed by D for every
    column without a pivot, are the invariant factors of the enlarged
    lattice; the first r are those of the block.
    """
    rank, d = _old_minor_rank(a)
    width = len(a[0]) if a else 0
    a = [[x % d for x in row] for row in a]
    found = []
    while True:
        entries = [(x, i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            break
        _, p, q = min(entries)
        while True:
            for i, row in enumerate(a):
                if i != p and row[q]:
                    a[p], a[i] = _old_combine(a[p], row, a[p][q], row[q], d)
            cols = [list(col) for col in zip(*a)]
            for j, col in enumerate(cols):
                if j != q and col[p]:
                    cols[q], cols[j] = _old_combine(cols[q], col, cols[q][p], col[p], d)
            a = [list(row) for row in zip(*cols)]
            if not any(row[q] for i, row in enumerate(a) if i != p):
                break
        found.append(gcd(a[p][q], d))
        del a[p]
        for row in a:
            del row[q]
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            g = gcd(found[i], found[j])
            found[i], found[j] = g, found[i] * found[j] // g
    return (found + [d] * (width - len(found)))[:rank]


def _residual(rows):
    """(rest, columns) of the unit-pivot residual of sparse rows."""
    _, rest = _unit_pivots(rows)
    return rest, sorted({j for row in rest for j in row})


def _residuals():
    """(rows, columns) of the unit-pivot residuals of the cells with the
    largest residual blocks, and of the seed-23 relation-like draws."""
    rows = [table_group(3, 6, "twisted").relations, table_group(4, 5, "framed").relations]
    rng = random.Random(23)
    rows += [_sparse(_sparse_relation_like(rng, rng.randint(1, 30), rng.randint(1, 30)))
             for _ in range(60)]
    return [_residual(r) for r in rows]


def test_residual_smith_matches_old_modular():
    residuals = _residuals()
    assert (len(residuals[0][0]), len(residuals[0][1])) == (12, 6)
    assert (len(residuals[1][0]), len(residuals[1][1])) == (366, 88)
    assert sum(bool(rest) for rest, _ in residuals) > 20
    for rest, cols in residuals:
        dense = [[row.get(j, 0) for j in cols] for row in rest]
        assert _residual_smith(rest, cols)[0] == _old_residual_factors(dense)


def _growth_draws():
    """The seed-31 relation-like square blocks: 40 of 48 x 48, then 40 of 64 x 64."""
    out = []
    for size in (48, 64):
        rng = random.Random(31)
        out += [_sparse_relation_like(rng, size, size) for _ in range(40)]
    return out


def test_residual_smith_contract():
    # diag is the residual's invariant factors as a divisibility chain, v is
    # unimodular, and rows * v is zero past len(diag) with its column j
    # divisible by d_j; with equal factors, the lattices rows * v and diag
    # are then equal
    residuals = _residuals() + [_residual(_sparse(a)) for a in _growth_draws()]
    assert sum(len(cols) > 20 for _, cols in residuals) > 40
    for rest, cols in residuals:
        diag, v = _residual_smith(rest, cols)
        dense = [[row.get(j, 0) for j in cols] for row in rest]
        assert diag == _old_residual_factors(dense)
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert _old_minor_rank(v) == (len(cols), 1)
        for row in mat_mul(dense, v):
            assert not any(row[len(diag):])
            assert all(x % d == 0 for x, d in zip(row, diag))


def test_presentation_bounds_coefficient_growth():
    # 3 of these 80 draws, one of 48 x 48 and two of 64 x 64, ran past 3 s
    # when the residual's Smith form was a dense elimination that never
    # reduced its remaining block
    for a in _growth_draws():
        rows = _sparse(a)
        start = time.perf_counter()
        quotient = presentation(rows, len(a[0]))
        assert time.perf_counter() - start < 1.0
        rest, cols = _residual(rows)
        assert quotient.diag == _old_residual_factors([[row.get(j, 0) for j in cols] for row in rest])


def _in_lattice(factor, vec):
    """Whether vec lies in the row lattice of a matrix, given its dense
    factor ``_old_row_hermite(matrix, want_transform=True)``."""
    return _old_solve_left(factor, vec) is not None


def test_presentation_reduce_is_lattice_membership():
    # the seed-23 relation-like draws of test_invariants_against_sympy, on
    # some of which the Smith form of the residual block, unless it is put
    # in Hermite form first, does not finish; reduce(vec) is zero exactly
    # when vec is in the row lattice
    rng = random.Random(23)
    matrices = [
        _sparse_relation_like(rng, rng.randint(1, 30), rng.randint(1, 30))
        for _ in range(60)
    ]
    verdicts = []
    for a in matrices:
        width = len(a[0])
        quotient = presentation(_sparse(a), width)
        basis = _old_row_hermite(a, want_transform=True)
        vectors = [list(row) for row in a]
        for _ in range(10):
            combo = [0] * width
            for row in a:
                c = rng.randint(-2, 2)
                combo = [x + c * y for x, y in zip(combo, row)]
            nudged = list(combo)
            nudged[rng.randrange(width)] += rng.choice((-2, -1, 1, 2))
            vectors += [combo, nudged, [2 * x for x in nudged]]
        for vec in vectors:
            member = _in_lattice(basis, vec)
            assert (not any(quotient.reduce(sparse_row(vec)))) == member
            verdicts.append(member)
    assert 0 < verdicts.count(False) < verdicts.count(True)


def test_presentation_summands_are_smith_unit_vectors():
    # summand j reduces to the j-th unit vector of the Smith coordinates,
    # and a torsion summand times its factor lies in the row lattice
    rng = random.Random(29)
    matrices = [
        _sparse_relation_like(rng, rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)
    ]
    matrices += [mat_mul(_random_matrix(rng, 4, 3, 3), _random_matrix(rng, 3, 6, 3))
                 for _ in range(20)]
    seen = 0
    for a in matrices:
        quotient = presentation(_sparse(a), len(a[0]))
        diag, survivors = quotient.diag, quotient.survivors
        picked = [j for j, d in enumerate(diag) if d > 1] + list(range(len(diag), len(survivors)))
        summands = quotient.summands()
        assert len(summands) == len(picked)
        basis = _old_row_hermite(a, want_transform=True)
        for j, row in zip(picked, summands):
            vec = dense_row(row, len(a[0]))
            assert row == sparse_row(vec)  # increasing columns, no zeros
            assert list(quotient.reduce(sparse_row(vec))) == [int(i == j) for i in range(len(survivors))]
            if j < len(diag):
                assert _in_lattice(basis, [diag[j] * x for x in vec])
            seen += 1
    assert seen


# ---------------------------------------------------------------------------
# the presentation with its Smith form over every survivor, and the separate
# elimination for invariant factors, that one presentation on the columns the
# residual names replaced, kept as oracle


class _OldPresentation:
    """Z^width modulo a row lattice, with the Smith form of the residual
    rows over every survivor, ``u * residual * v == diag``: a survivor
    vector x has the Smith coordinates x * v."""

    def __init__(self, pivots, survivors, diag, v):
        self.pivots = pivots
        self.survivors = survivors
        self.diag = diag
        self.v = v

    def reduce(self, vec):
        vec = list(vec)
        for col, row in self.pivots:
            x = vec[col] * row[col]
            if x:
                for j, y in row.items():
                    vec[j] -= x * y
        w = mat_mul([[vec[j] for j in self.survivors]], self.v)[0]
        return tuple([x % d for x, d in zip(w, self.diag)] + w[len(self.diag):])

    def summands(self):
        picked = [j for j, d in enumerate(self.diag) if d > 1]
        picked += range(len(self.diag), len(self.survivors))
        if not picked:
            return []
        _, _, v_inv = _old_row_hermite(self.v, want_transform=True)  # v is unimodular: h is I
        return [tuple((self.survivors[k], x) for k, x in enumerate(v_inv[j]) if x)
                for j in picked]


def _old_presentation(rows, width):
    """`_OldPresentation` of Z^width modulo sparse rows, its Smith form over
    every survivor in increasing column, named by a residual row or not."""
    pivots, rest = _unit_pivots(rows)
    survivors = sorted(set(range(width)).difference(col for col, _ in pivots))
    diag, v = _old_residual_smith(rest, survivors) if rest else ([], identity(len(survivors)))
    return _OldPresentation(pivots, survivors, diag, v)


def _old_residual_smith(rest, cols):
    """``(diag, v)`` of nonempty residual rows over the columns `cols`: the
    dense Smith form of the rank rows of their row Hermite form."""
    h, pivots = _old_row_hermite([[row.get(j, 0) for j in cols] for row in rest])
    return _old_smith_normal_form(h[:len(pivots)])


def _old_invariant_factors(rows):
    """Invariant factors d1 | d2 | ... of sparse rows: 1 per unit pivot, then the residual's."""
    pivots, rest = _unit_pivots(rows)
    diag = _old_residual_smith(rest, sorted({j for row in rest for j in row}))[0] if rest else []
    return [1] * len(pivots) + diag


@pytest.mark.parametrize("m, n, flavor", [
    (4, 3, "framed"), (5, 2, "twisted"), (3, 2, "twisted"), (2, 6, "twisted"),
    (4, 2, "twisted"), (4, 5, "framed"), (3, 6, "twisted"), (2, 9, "framed"),
])
def test_presentation_matches_old_smith_over_all_survivors(m, n, flavor):
    # same factors and invariants; on each generator the same coordinates
    # modulo diag, and free coordinates that one column permutation of the
    # whole group carries onto the old ones; the same torsion summands.
    # Both subtract the same pivot rows and reduce is linear modulo diag, so
    # agreement on the survivors' unit vectors carries to every generator's;
    # every survivor is taken, and every (width // 200)-th generator, so a
    # cell of fewer than 400 generators is taken whole
    group = table_group(m, n, flavor)
    width = len(group.generators)
    new, old = group.snf, _old_presentation(group.relations, width)
    assert new.pivots == old.pivots
    assert new.diag == old.diag
    factors = _old_invariant_factors(group.relations)
    assert build_group(m, n, flavor).invariants() == (width - len(factors), [d for d in factors if d > 1])
    cut = len(new.diag)
    new_free, old_free = [], []
    for g in sorted(set(old.survivors).union(range(0, width, max(1, width // 200)))):
        unit = [0] * width
        unit[g] = 1
        a, b = new.reduce(sparse_row(unit)), old.reduce(unit)
        assert a[:cut] == b[:cut]
        new_free.append(a[cut:])
        old_free.append(b[cut:])
    assert len(new_free[0]) == len(old_free[0])
    assert sorted(zip(*new_free)) == sorted(zip(*old_free))
    torsion = sum(d > 1 for d in new.diag)
    assert new.summands()[:torsion] == old.summands()[:torsion]


# ---------------------------------------------------------------------------
# the dense Hermite elimination that the sparse core replaced, kept as oracle


def _old_row_hermite(matrix, want_transform=False):
    """Dense row Hermite form: the first nonzero row at or below the pivot
    row clears its column below by repeated division, over full rows of h
    and of the rows x rows transform u."""
    h = [list(row) for row in matrix]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows) if want_transform else None
    top = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for i in range(top, rows):
            if h[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != top:
            h[top], h[pivot] = h[pivot], h[top]
            if u is not None:
                u[top], u[pivot] = u[pivot], u[top]
        for i in range(top + 1, rows):
            while h[i][col]:
                q = h[top][col] // h[i][col]
                for j in range(cols):
                    h[top][j] -= q * h[i][j]
                if u is not None:
                    for j in range(rows):
                        u[top][j] -= q * u[i][j]
                h[top], h[i] = h[i], h[top]
                if u is not None:
                    u[top], u[i] = u[i], u[top]
        if h[top][col] < 0:
            h[top] = [-x for x in h[top]]
            if u is not None:
                u[top] = [-x for x in u[top]]
        for i in range(top):
            q = h[i][col] // h[top][col]
            if q:
                for j in range(cols):
                    h[i][j] -= q * h[top][j]
                if u is not None:
                    for j in range(rows):
                        u[i][j] -= q * u[top][j]
        pivots.append(col)
        top += 1
        if top == rows:
            break
    if want_transform:
        return h, pivots, u
    return h, pivots


def _old_left_kernel(matrix):
    _, pivots, u = _old_row_hermite(matrix, want_transform=True)
    reduced, kp = _old_row_hermite(u[len(pivots):])
    return reduced[: len(kp)]


def _old_solve_left(factor, target):
    """x with x * matrix == target, or None, given the matrix's dense factor
    ``_old_row_hermite(matrix, want_transform=True)``."""
    h, pivots, u = factor
    rows = len(h)
    if rows == 0:
        return None if any(target) else []
    residue = list(target)
    y = [0] * rows
    for i, col in enumerate(pivots):
        q, r = divmod(residue[col], h[i][col])
        if r:
            return None
        if q:
            y[i] = q
            for j, x in enumerate(h[i]):
                if x:
                    residue[j] -= q * x
    if any(residue):
        return None
    x = [0] * rows
    for i, yi in enumerate(y):
        if yi:
            for j, uij in enumerate(u[i]):
                x[j] += yi * uij
    return x


def _with_zero_lines(rng, a):
    """a with a zero row and a zero column inserted at random places."""
    cols = len(a[0])
    a = [list(row) for row in a]
    a.insert(rng.randint(0, len(a)), [0] * cols)
    j = rng.randint(0, cols)
    return [row[:j] + [0] + row[j:] for row in a]


def _rank_deficient(rng, bound=3):
    rows, inner, cols = rng.randint(2, 9), rng.randint(1, 3), rng.randint(1, 9)
    return mat_mul(_random_matrix(rng, rows, inner, bound), _random_matrix(rng, inner, cols, bound))


def test_hermite_matches_old_dense():
    # h is unique, so the sparse core returns the old h and pivots exactly
    rng = random.Random(37)
    matrices = [_random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    matrices += [_with_zero_lines(rng, _rank_deficient(rng)) for _ in range(40)]
    for a in matrices:
        old_h, old_pivots = _old_row_hermite(a)
        h, pivots, u = _dense_factor(a)
        assert (h, pivots) == (old_h[: len(old_pivots)], old_pivots)
        assert not any(map(any, old_h[len(old_pivots):]))
        assert mat_mul(u, a) == h


def test_left_kernel_matches_old_dense():
    rng = random.Random(31)
    matrices = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0], [0]], [[1, 0], [1, 0]]]
    matrices += [_random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    matrices += [_rank_deficient(rng) for _ in range(40)]
    matrices += [_with_zero_lines(rng, _rank_deficient(rng)) for _ in range(40)]
    matrices += [_sparse_relation_like(rng, rng.randint(1, 20), rng.randint(1, 20))
                 for _ in range(40)]
    assert sum(len(_left_kernel(a)) > 0 for a in matrices) > 100
    for a in matrices:
        assert _left_kernel(a) == _old_left_kernel(a)


def test_bracket_kernel_matches_old_dense():
    cells = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    cells += [(m, 5) for m in range(1, 4)] + [(m, 6) for m in range(1, 3)]
    for m, n in cells:
        for k in (None, 2, 3):
            domain, target_words, images = _bracket_rows(m, n, k)
            dense = [dense_row(row, len(target_words)) for row in images]
            old = tuple(tuple(row) for row in _old_left_kernel(dense))
            rows = bracket_kernel(m, n, k).rows
            assert tuple(tuple(dense_row(row, len(domain))) for row in rows) == old
