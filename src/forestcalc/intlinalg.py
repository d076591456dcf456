"""Exact integer matrix normal forms: row Hermite form, Smith form, solvers.

Matrices are lists of lists of Python ints, so entries may grow past
machine words without overflow.  Everything here is deterministic.

A matrix that is solved against many right-hand sides is factored once with
`hermite_factor`; `solve_left` accepts that factor in place of the matrix
and never factors it again.

The Smith form skips work that cannot change a value: a unit pivot ends the
pivot search and needs no divisibility scan, and row and column additions
pass over zero source entries.  Its sequence of row and column operations is
that of full scans, so it returns the same diag, u and v.
"""

from __future__ import annotations

from .errors import DomainError


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def row_hermite(matrix, want_transform=False):
    """Row Hermite normal form.

    Returns ``(h, pivots)`` or ``(h, pivots, u)`` with ``u * matrix == h``,
    u unimodular.  h keeps the full row count; nonzero rows come first with
    positive pivots in strictly increasing columns, and entries above each
    pivot are reduced into [0, pivot).
    """
    h = [list(row) for row in matrix]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows) if want_transform else None
    top = 0
    pivots = []
    for col in range(cols):
        # find a pivot row at or below `top`
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
        # clear below with gcd steps
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
        # reduce entries above the pivot
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


def left_kernel(matrix):
    """Basis of the lattice {x : x * matrix = 0}, in row Hermite form."""
    rows = len(matrix)
    if rows == 0:
        return []
    _, pivots, u = row_hermite(matrix, want_transform=True)
    kernel = u[len(pivots):]
    if not kernel:
        return []
    reduced, kp = row_hermite(kernel)
    return [row for row in reduced[: len(kp)]]


class HermiteFactor:
    """Row Hermite factorization ``u * matrix == h`` of one matrix.

    Built by `hermite_factor`.  An object rather than a tuple, so that code
    scanning tuples and lists for coefficient sizes does not read the pivot
    column numbers as matrix entries.
    """

    __slots__ = ("h", "pivots", "u")

    def __init__(self, h, pivots, u):
        self.h = h
        self.pivots = pivots
        self.u = u


def hermite_factor(matrix):
    """Factor `matrix` once, for any number of `solve_left` calls against it."""
    return HermiteFactor(*row_hermite(matrix, want_transform=True))


def solve_left(basis, target):
    """Solve ``x * matrix == target`` over the integers.

    `basis` is either the matrix itself or its `hermite_factor`; a factor is
    used as it is and never factored again, while a plain matrix is factored
    first.  Returns x (length = row count) or raises DomainError when no
    integer solution exists.
    """
    if not isinstance(basis, HermiteFactor):
        basis = hermite_factor(basis)
    h, pivots, u = basis.h, basis.pivots, basis.u
    rows = len(h)
    if rows == 0:
        if any(target):
            raise DomainError("no integer solution (empty matrix)")
        return []
    residue = list(target)
    y = [0] * rows
    for i, col in enumerate(pivots):
        value = residue[col]
        pivot = h[i][col]
        q, r = divmod(value, pivot)
        if r:
            raise DomainError("no integer solution (divisibility)")
        if q:
            y[i] = q
            for j, x in enumerate(h[i]):
                if x:
                    residue[j] -= q * x
    if any(residue):
        raise DomainError("no integer solution (not in row span)")
    # x = y * u
    x = [0] * rows
    for i, yi in enumerate(y):
        if yi:
            for j, uij in enumerate(u[i]):
                x[j] += yi * uij
    return x


def _pivot(a, t):
    """Position of the first entry of least absolute value in a[t:][t:].

    Entries are scanned in row-major order and only a strictly smaller one
    replaces the candidate; nothing is smaller than a unit, so the first unit
    found ends the search at the same position a full scan would return.
    """
    best, least = None, 0
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                x = abs(x)
                if best is None or x < least:
                    if x == 1:
                        return i, j
                    best, least = (i, j), x
    return best


def smith_normal_form(matrix, want_u=False, want_v=False):
    """Smith normal form ``u * matrix * v == d``.

    Returns ``(diag, u, v)`` where diag is the list of positive invariant
    factors d1 | d2 | ... and u/v are unimodular (or None when not
    requested).  An all-zero matrix gives ``diag == []`` and ``v`` the
    identity, so a caller without rows passes ``rows or [[0] * cols]``.

    Each step pivots on the first entry of least absolute value in the
    remaining block, clears its row and column by repeated division, and adds
    a row that the pivot does not divide into the pivot row.  A unit pivot
    ends the search and skips the divisibility scan, and additions skip zero
    source entries; the operations, and so diag, u and v, are those of full
    scans.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows) if want_u else None
    v = identity(cols) if want_v else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        for mat in (a, u) if u is not None else (a,):
            target = mat[dst]
            for j, x in enumerate(mat[src]):
                if x:
                    target[j] += factor * x

    def add_col(src, dst, factor):
        for mat in (a, v) if v is not None else (a,):
            for row in mat:
                x = row[src]
                if x:
                    row[dst] += factor * x

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = _pivot(a, t)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility of the remaining block by the pivot; a unit
        # divides everything
        pivot = a[t][t]
        offender = None
        if pivot != 1:
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    diag = [a[i][i] for i in range(limit) if a[i][i]]
    return diag, u, v


def invariant_factors(matrix):
    diag, _, _ = smith_normal_form(matrix)
    return diag
