"""Exact integer matrix normal forms: row Hermite form, Smith form, solvers.

Entries are Python ints, so they may grow past machine words without
overflow.  Everything here is deterministic.  Matrices are sparse rows,
((column, coeff), ...) in increasing column, as `groups` builds relations;
`presentation` also takes {column: coeff} rows, and a width is passed where
the rows do not fix it.  Inside, rows are {column: coeff} dicts, so that
work follows the nonzeros.

One sparse Hermite core, `_hermite`, serves `left_kernel`, `hermite_factor`
and the residual Smith form; a transform is carried as extra columns of each
row.  Rows solved against many targets are factored once with
`hermite_factor`, which keeps only the rank rows, and `solve_left` takes
that factor.

Sparse rows also have one presentation, `presentation`: an elimination of
unit pivots leaves a small residual block, and the rank rows of its Hermite
form go through the dense `smith_normal_form` on only the columns that the
block names.  Invariants and normal forms are both read off it.
"""

from __future__ import annotations

import heapq

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


def smith_normal_form(matrix):
    """Smith normal form ``u * matrix * v == d`` of a dense matrix.

    Returns ``(diag, v)`` where diag is the list of positive invariant
    factors d1 | d2 | ... and v is unimodular; u is not kept.  An all-zero
    matrix gives ``diag == []`` and ``v`` the identity, and no rows give
    ``([], [])``.

    Each step pivots on the first entry of least absolute value in the
    remaining block, clears its row and column by repeated division, and adds
    a row that the pivot does not divide into the pivot row.  A unit pivot
    ends the search and skips the divisibility scan, and additions skip zero
    source entries; the operations, and so diag and v, are those of full
    scans.

    Its one caller, `_residual_smith`, passes the rank rows of a row Hermite
    form, on the columns that they name.  This elimination never reduces the
    remaining block, so on arbitrary rows its coefficients can grow without
    bound: on an 8 x 8 block with entries below 10 it did not finish within
    a minute.  Hermite rows are already reduced above each pivot, and on
    them it has stayed fast on every block tested.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = identity(cols)

    def swap_cols(i, j):
        if i == j:
            return
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        target = a[dst]
        for j, x in enumerate(a[src]):
            if x:
                target[j] += factor * x

    def add_col(src, dst, factor):
        for mat in (a, v):
            for row in mat:
                x = row[src]
                if x:
                    row[dst] += factor * x

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = _pivot(a, t)
        if best is None:
            break
        a[t], a[best[0]] = a[best[0]], a[t]
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
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
    return diag, v


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


def _residual_smith(rest, cols):
    """``(diag, v)`` of residual rows, with v over the positions in `cols`.

    `cols` holds every column that the rows name, in increasing order.  The
    rows are put in row Hermite form, the same lattice, and its rank rows
    go through `smith_normal_form`.
    """
    at = {j: k for k, j in enumerate(cols)}
    rows = [{at[j]: x for j, x in row.items()} for row in rest]
    placed, _ = _hermite(rows, len(cols))
    return smith_normal_form([_dense(rows[i].items(), len(cols)) for i in placed])


class Presentation:
    """Z^width modulo a row lattice, presented on the columns without a unit pivot.

    Built by `presentation`.  Subtracting the pivot rows maps Z^width onto
    Z^survivors, modulo the residual rows.  `survivors` lists the columns
    those rows name, over which their Smith form is ``u * residual * v ==
    diag`` for some unimodular u, then the free generators that no row names.
    So the quotient is Z/d for each d in diag and Z for each survivor past
    ``len(diag)``, and a survivor vector x has the coordinates x * v on the
    named columns, then x itself on the free generators.
    """

    def __init__(self, pivots, survivors, diag, v):
        self.pivots = pivots
        self.survivors = survivors
        self.diag = diag
        self.v = v

    def reduce(self, vec):
        """Normal form of a vector of Z^width: with the pivot rows subtracted,
        the coordinates of its survivor part, reduced modulo diag."""
        vec = list(vec)
        for col, row in self.pivots:
            x = vec[col] * row[col]  # a unit pivot is its own inverse
            if x:
                for j, y in row.items():
                    vec[j] -= x * y
        x = [vec[j] for j in self.survivors]
        w = mat_mul([x[:len(self.v)]], self.v)[0] + x[len(self.v):]
        return tuple([c % d for c, d in zip(w, self.diag)] + w[len(self.diag):])

    def summands(self):
        """Generators of each Z/d, d > 1, then each Z, as sparse rows over
        Z^width, since they may be many and wide: rows of v^-1 at the named
        survivors, then one unit row per free generator."""
        picked = [j for j, d in enumerate(self.diag) if d > 1]
        picked += range(len(self.diag), len(self.v))
        # v is unimodular: its Hermite form is I, so the transform is v^-1
        v_inv = hermite_factor([{j: x for j, x in enumerate(row) if x} for row in self.v]).u
        return ([tuple((self.survivors[k], x) for k, x in v_inv[j]) for j in picked]
                + [((j, 1),) for j in self.survivors[len(self.v):]])


def presentation(rows, width):
    """`Presentation` of Z^width modulo the lattice of sparse rows."""
    pivots, rest = _unit_pivots(rows)
    named = sorted({j for row in rest for j in row})
    taken = set(named).union(col for col, _ in pivots)
    free = [j for j in range(width) if j not in taken]
    return Presentation(pivots, named + free, *_residual_smith(rest, named))
