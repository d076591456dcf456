"""Exact integer matrix normal forms: row Hermite form, Smith form, solvers.

Entries are Python ints, so they may grow past machine words without
overflow.  Everything here is deterministic.  Matrices are sparse rows,
((column, coeff), ...) in increasing column, as `groups` builds relations;
`invariant_factors` and `presentation` also take {column: coeff} rows, and
a width is passed where the rows do not fix it.  Inside, rows are
{column: coeff} dicts, so that work follows the nonzeros.

One sparse Hermite core, `_hermite`, serves `row_hermite`, `left_kernel` and
`hermite_factor`; a transform is carried as extra columns of each row.
Rows solved against many targets are factored once with `hermite_factor`,
which keeps only the rank rows, and `solve_left` takes that factor.

Sparse rows also have one elimination of unit pivots, which leaves a small
residual block.  `invariant_factors` works on that block modulo a
determinant, so its coefficients stay bounded; `presentation` keeps the
pivot rows, for normal forms, and takes the block's Smith form with v.
Only that block goes through the dense `row_hermite` and `smith_normal_form`.

`smith_normal_form` skips work that cannot change a value: a unit pivot
ends the pivot search and needs no divisibility scan, and row and column
additions pass over zero source entries.  Its sequence of row and column
operations is that of full scans, so it returns the same diag, u and v.
Its coefficients are not bounded.
"""

from __future__ import annotations

import heapq
from math import gcd

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


def _subtract(rows, where, i, factor, prow):
    """rows[i] -= factor * prow for a nonzero factor, keeping `where`
    (column -> indices of the rows with an entry there) in step."""
    row = rows[i]
    for j, x in prow.items():
        y = row.get(j, 0) - factor * x
        if y:
            if j not in row:
                where[j].add(i)
            row[j] = y
        else:
            del row[j]
            where[j].discard(i)


def _hermite(rows, width):
    """Row Hermite form of sparse {column: coeff} rows, computed in place.

    Columns are taken in increasing order.  In each, the rows not yet placed
    that have an entry there are reduced by repeated division against the one
    of least absolute entry (ties: fewer entries, then lower index) until one
    is left; it is placed with a positive pivot, and the entries of the
    placed rows at that column are reduced into [0, pivot).  Columns from
    `width` on are carried along and never pivot, so a row i that ends with
    ``width + i: 1`` carries its transform.  Returns the placed row indices
    and their pivot columns, both in increasing pivot column; the other rows
    are left with no entry below `width`.
    """
    where = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    done = [False] * len(rows)
    placed, pivots = [], []
    for col in sorted(j for j in where if j < width):
        at = [i for i in where[col] if not done[i]]
        if not at:
            continue
        while len(at) > 1:
            p = min(at, key=lambda i: (abs(rows[i][col]), len(rows[i]), i))
            prow = rows[p]
            pivot = prow[col]
            rest = [p]
            for i in at:
                if i != p:
                    _subtract(rows, where, i, rows[i][col] // pivot, prow)
                    if col in rows[i]:
                        rest.append(i)
            at = rest
        p = at[0]
        prow = rows[p]
        if prow[col] < 0:
            for j in prow:
                prow[j] = -prow[j]
        pivot = prow[col]
        for i in [i for i in where[col] if i != p]:
            q = rows[i][col] // pivot
            if q:
                _subtract(rows, where, i, q, prow)
        done[p] = True
        placed.append(p)
        pivots.append(col)
    return placed, pivots


def _carrying(rows):
    """(dicts of the rows, width), row i carrying ``width + i: 1`` past them."""
    out = [dict(row) for row in rows]
    width = 1 + max((j for row in out for j in row), default=-1)
    for i, row in enumerate(out):
        row[width + i] = 1
    return out, width


def _dense(pairs, n):
    """Dense vector of length n with the entries (column, coeff)."""
    out = [0] * n
    for j, x in pairs:
        out[j] = x
    return out


def _split(row, width):
    """(entries below `width`, carried entries shifted down by `width`) of a sparse row."""
    head, tail = [], []
    for j in sorted(row):
        if j < width:
            head.append((j, row[j]))
        else:
            tail.append((j - width, row[j]))
    return tuple(head), tuple(tail)


def row_hermite(matrix, want_transform=False):
    """Row Hermite normal form of a dense matrix.

    Returns ``(h, pivots)`` or ``(h, pivots, u)`` with ``u * matrix == h``,
    u unimodular.  h keeps the full row count; nonzero rows come first with
    positive pivots in strictly increasing columns, and entries above each
    pivot are reduced into [0, pivot).  h is unique; the rows of u past the
    rank are one basis of the left kernel.
    """
    width = len(matrix[0]) if matrix else 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    if want_transform:
        for i, row in enumerate(rows):
            row[width + i] = 1
    placed, pivots = _hermite(rows, width)
    taken = set(placed)
    order = placed + [i for i in range(len(rows)) if i not in taken]
    halves = [_split(rows[i], width) for i in order]
    h = [_dense(head, width) for head, _ in halves]
    if want_transform:
        return h, pivots, [_dense(tail, len(rows)) for _, tail in halves]
    return h, pivots


def left_kernel(rows):
    """Basis of the lattice {x : x * rows = 0}, in row Hermite form.

    The basis rows are sparse, over the indices of `rows`.  The rows of
    [rows | I] that the Hermite form leaves zero on the left span the kernel
    by their right parts; the Hermite form of those is the lattice's unique
    basis.
    """
    rows, width = _carrying(rows)
    taken = set(_hermite(rows, width)[0])
    kernel = [{j - width: x for j, x in row.items()}
              for i, row in enumerate(rows) if i not in taken]
    placed, _ = _hermite(kernel, len(rows))
    return [tuple(sorted(kernel[i].items())) for i in placed]


class HermiteFactor:
    """Row Hermite factorization ``u * rows == h`` of sparse rows.

    Built by `hermite_factor`.  Only the rank rows are kept: `h` and `u`
    hold each as ((column, coeff), ...) in increasing column, so the pivot
    is the first entry of an h row, and `pivots` maps a pivot column to its
    row.  An object rather than a tuple, so that code scanning tuples and
    lists for coefficient sizes does not read column numbers as entries.
    """

    __slots__ = ("h", "u", "pivots")

    def __init__(self, h, u, pivots):
        self.h = h
        self.u = u
        self.pivots = pivots


def hermite_factor(rows):
    """Factor sparse rows once, for any number of `solve_left` calls."""
    rows, width = _carrying(rows)
    placed, pivots = _hermite(rows, width)
    halves = [_split(rows[i], width) for i in placed]
    return HermiteFactor([head for head, _ in halves], [tail for _, tail in halves],
                         {col: t for t, col in enumerate(pivots)})


def solve_left(basis, target):
    """Solve ``x * rows == target`` over the integers.

    `basis` is the sparse rows or their `hermite_factor`, which is used as
    it is; plain rows are factored first.  `target` and the returned x are
    sparse rows, x over the indices of the rows.  Raises DomainError when no
    integer solution exists.  x is unique when the rows are linearly
    independent, as a `left_kernel` basis is; otherwise it is one of many.

    The residue's nonzero columns are visited in increasing order: a pivot
    column subtracts its h row, and any other one has no solution.
    """
    if not isinstance(basis, HermiteFactor):
        basis = hermite_factor(basis)
    h, u, pivots = basis.h, basis.u, basis.pivots
    residue = dict(target)
    heap = sorted(residue)  # sorted, so a heap
    x = {}
    while heap:
        col = heapq.heappop(heap)
        value = residue[col]
        if not value:
            continue
        t = pivots.get(col)
        if t is None:
            raise DomainError("no integer solution (not in row span)")
        row = h[t]
        q, r = divmod(value, row[0][1])
        if r:
            raise DomainError("no integer solution (divisibility)")
        for j, y in row:
            old = residue.get(j, 0)
            if not old:
                heapq.heappush(heap, j)
            residue[j] = old - q * y
        for j, y in u[t]:
            x[j] = x.get(j, 0) + q * y
    return tuple(sorted((j, c) for j, c in x.items() if c))


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


def _unit_pivots(rows):
    """(pivots, residual rows) of sparse rows, which are not modified.

    Each round takes the column with the fewest entries that holds a unit,
    ties going to the lower column, and in it the shortest row with a unit,
    ties going to the lower row, and clears that column from every other
    row.  `pivots` lists (column, row dict as taken) in that order: a unit at
    its column and no entry at an earlier pivot's.  The residual rows, the
    nonzero rows never taken, name no pivot column.
    """
    rows = [dict(row) for row in rows]
    where = {}  # column -> indices of the rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    version = dict.fromkeys(where, 0)
    heap = [(len(at), j, 0) for j, at in where.items()]
    heapq.heapify(heap)

    def touched(j):
        version[j] += 1
        if where[j]:
            heapq.heappush(heap, (len(where[j]), j, version[j]))

    pivots = []
    while heap:
        _, col, stamp = heapq.heappop(heap)
        if stamp != version[col]:
            continue
        candidates = [i for i in where[col] if abs(rows[i][col]) == 1]
        if not candidates:
            continue  # no unit here until an elimination changes the column
        pivot = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[pivot]
        sign = prow[col]
        for i in where[col] - {pivot}:
            _subtract(rows, where, i, rows[i][col] * sign, prow)
        for j in prow:
            where[j].discard(pivot)
        rows[pivot] = {}
        pivots.append((col, prow))
        for j in sorted(prow):
            touched(j)
    return pivots, [row for row in rows if row]


def invariant_factors(rows):
    """Invariant factors d1 | d2 | ... of sparse rows: 1 per unit pivot, then the residual's."""
    pivots, rest = _unit_pivots(rows)
    cols = sorted({j for row in rest for j in row})
    return [1] * len(pivots) + _residual_factors([[row.get(j, 0) for j in cols] for row in rest])


class Presentation:
    """Z^width modulo a row lattice, presented on the columns without a unit pivot.

    Built by `presentation`.  Subtracting the pivot rows maps Z^width onto
    Z^survivors, where ``u * residual * v == diag``, so the quotient is Z/d
    for each d in diag and Z for each survivor past ``len(diag)``.
    """

    def __init__(self, width, pivots, survivors, diag, v):
        self.width = width
        self.pivots = pivots
        self.survivors = survivors
        self.diag = diag
        self.v = v

    def reduce(self, vec):
        """Normal form of a vector of Z^width: with the pivot rows subtracted,
        its survivor part x as x * v, reduced modulo diag."""
        vec = list(vec)
        for col, row in self.pivots:
            x = vec[col] * row[col]  # a unit pivot is its own inverse
            if x:
                for j, y in row.items():
                    vec[j] -= x * y
        w = mat_mul([[vec[j] for j in self.survivors]], self.v)[0]
        return tuple([x % d for x, d in zip(w, self.diag)] + w[len(self.diag):])

    def summands(self):
        """Generators of each Z/d, d > 1, then each Z: rows of v^-1 at the survivors."""
        picked = [j for j, d in enumerate(self.diag) if d > 1]
        picked += range(len(self.diag), len(self.survivors))
        v_inv = row_hermite(self.v, want_transform=True)[2] if picked else []
        out = [[0] * self.width for _ in picked]
        for vec, j in zip(out, picked):
            for col, x in zip(self.survivors, v_inv[j]):
                vec[col] = x
        return out


def presentation(rows, width):
    """`Presentation` of Z^width modulo the lattice of sparse rows."""
    pivots, rest = _unit_pivots(rows)
    survivors = sorted(set(range(width)).difference(col for col, _ in pivots))
    # the Smith form gets the residual in row Hermite form (the same lattice):
    # on some random blocks as they stood, its coefficients grew for minutes
    h, ranked = row_hermite([[row.get(j, 0) for j in survivors] for row in rest])
    diag, _, v = smith_normal_form(h[: len(ranked)] or [[0] * len(survivors)], want_v=True)
    return Presentation(width, pivots, survivors, diag, v)


def _minor_rank(a):
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


def _gcdex(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def _combine(p, q, a, b, d):
    """Replace the vectors p, q by x*p + y*q and (b*p - a*q) / g, modulo d.

    a and b are the entries of p and q in the column being cleared; the
    2 x 2 transform has determinant -1, and the second vector's entry there
    becomes 0.  When a divides b, p is kept as it is: the pivot then changes
    only by shrinking, which is what ends the clearing loop.
    """
    if b % a == 0:
        f = b // a
        return p, [(f * u - v) % d for u, v in zip(p, q)]
    x, y, g = _gcdex(a, b)
    a, b = a // g, b // g
    return ([(x * u + y * v) % d for u, v in zip(p, q)],
            [(b * u - a * v) % d for u, v in zip(p, q)])


def _residual_factors(a):
    """Invariant factors of a dense block, with every entry kept below D.

    D is the determinant of a nonsingular minor of full rank r, so every
    invariant factor divides D and the row lattice may be enlarged by D*Z^n
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.14): the
    block is reduced modulo D, each pivot, the least entry left, clears its
    row and column with 2 x 2 gcd transforms, and contributes gcd(pivot, D).
    Those gcds, made into a divisibility chain and followed by D for every
    column without a pivot, are the invariant factors of the enlarged
    lattice; the first r are those of the block.
    """
    rank, d = _minor_rank(a)
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
                    a[p], a[i] = _combine(a[p], row, a[p][q], row[q], d)
            cols = [list(col) for col in zip(*a)]
            for j, col in enumerate(cols):
                if j != q and col[p]:
                    cols[q], cols[j] = _combine(cols[q], col, cols[q][p], col[p], d)
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
