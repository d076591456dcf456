"""Exact integer matrix normal forms: kernels and presentations of row lattices.

Entries are Python ints, so they may grow past machine words without
overflow.  Everything here is deterministic.  Matrices are sparse rows,
((column, coeff), ...) in increasing column, as `groups` builds relations;
`presentation` also takes {column: coeff} rows, and a width is passed where
the rows do not fix it.  Inside, rows are {column: coeff} dicts, so that
work follows the nonzeros.

The public surface is `left_kernel` and `presentation`.  One sparse
Hermite core, `_hermite`, serves both; a transform is carried as extra
columns of each row.  `presentation` first eliminates unit pivots, which
leaves a small residual block, whose Smith form alternates row and column
Hermite forms on only the columns that the block names.  Invariants,
normal forms and summand generators are all read off that one
`Presentation`.
"""

from __future__ import annotations

import heapq
from math import gcd


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

    `cols` holds every column that the rows name, in increasing order.
    diag lists the positive invariant factors d1 | d2 | ... and v is
    unimodular, with ``u * rows * v == diag`` for some unimodular u.

    Row and column Hermite forms alternate until the block is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).  The column form is the
    row form of the transpose: each column is a sparse row that carries its
    column of v past every row index, so `_hermite` applies each column
    operation to v too.  The columns it leaves zero span the kernel and go
    last in v.  From then on the block is square, and each form reduces
    every entry against its column's or row's pivot, so no entry exceeds the
    determinant.  Then, for each pair d_i, d_j with d_i not dividing d_j, a
    2 x 2 gcd transform of v's columns i and j makes them gcd and lcm.
    """
    at = {j: k for k, j in enumerate(cols)}
    rows = [{at[j]: x for j, x in row.items()} for row in rest]
    top = len(rows)
    columns = [{top + k: 1} for k in range(len(cols))]
    kernel = []
    while True:
        placed, _ = _hermite(rows, len(columns))
        for i, p in enumerate(placed):
            for k, x in rows[p].items():
                columns[k][i] = x
        r = len(placed)
        placed, _ = _hermite(columns, r)
        kept = set(placed)
        kernel += [col for k, col in enumerate(columns) if k not in kept]
        columns = [columns[k] for k in placed]  # column k has its pivot in row k
        rows = [{} for _ in range(r)]
        for k, col in enumerate(columns):
            for i in [i for i in col if i < r]:
                rows[i][k] = col.pop(i)
        if all(len(row) == 1 for row in rows):
            break
    v = [[0] * len(cols) for _ in cols]
    for k, col in enumerate(columns + kernel):
        for i, x in col.items():
            v[i - top][k] = x
    diag = [row[i] for i, row in enumerate(rows)]
    for i in range(r):
        for j in range(i + 1, r):
            a, b = diag[i], diag[j]
            if b % a:
                g = gcd(a, b)
                s = pow(a // g, -1, b // g)  # s*a + t*b == g
                t = (g - s * a) // b
                for row in v:
                    row[i], row[j] = s * row[i] + t * row[j], (a * row[j] - b * row[i]) // g
                diag[i], diag[j] = g, a // g * b
    return diag, v


class Presentation:
    """Z^width modulo a row lattice, presented on the columns without a unit pivot.

    Built by `presentation`.  Subtracting the pivot rows maps Z^width onto
    Z^survivors, modulo the residual rows.  `survivors` lists the columns
    those rows name, over which `_residual_smith` gives ``u * residual * v
    == diag`` for some unimodular u, then the free generators that no row
    names.  So the quotient is Z/d for each d in diag and Z for each
    survivor past ``len(diag)``, and a survivor vector x has the
    coordinates x * v on the named columns, then x itself on the free
    generators.
    """

    def __init__(self, pivots, survivors, diag, v):
        self.pivots = pivots
        self.survivors = survivors
        self.diag = diag
        self.v = v
        self._step = {col: t for t, (col, _) in enumerate(pivots)}
        self._place = {j: k for k, j in enumerate(survivors)}

    def reduce(self, vec):
        """Normal form of a sparse vector ((column, coeff), ...) of Z^width:
        with the pivot rows subtracted, the coordinates of its survivor part,
        reduced modulo diag.

        Only the pivots that the vector reaches are visited, in pivot order:
        a pivot row names no earlier pivot's column, so none is reached again.
        """
        vec, step = dict(vec), self._step
        heap = [step[j] for j in vec if j in step]
        heapq.heapify(heap)
        while heap:
            col, row = self.pivots[heapq.heappop(heap)]
            x = vec.pop(col, 0) * row[col]  # a unit pivot is its own inverse
            if x:
                for j, y in row.items():
                    if j != col:
                        if j not in vec and j in step:
                            heapq.heappush(heap, step[j])
                        vec[j] = vec.get(j, 0) - x * y
        w = [0] * len(self.survivors)
        named = len(self.v)
        for j, x in vec.items():
            k = self._place[j]
            if k >= named:
                w[k] = x
            elif x:
                for i, y in enumerate(self.v[k]):
                    if y:
                        w[i] += x * y
        return tuple([c % d for c, d in zip(w, self.diag)] + w[len(self.diag):])

    def summands(self):
        """Generators of each Z/d, d > 1, then each Z, as sparse rows over
        Z^width, since they may be many and wide: rows of v^-1 at the named
        survivors, then one unit row per free generator.

        v is unimodular, so its Hermite form is I, and the row placed j-th
        carries row j of v^-1.
        """
        picked = [j for j, d in enumerate(self.diag) if d > 1]
        picked += range(len(self.diag), len(self.v))
        rows, width = _carrying([{j: x for j, x in enumerate(row) if x} for row in self.v])
        placed, _ = _hermite(rows, width)
        return ([tuple((self.survivors[k - width], x) for k, x in sorted(rows[placed[j]].items())
                       if k >= width) for j in picked]
                + [((j, 1),) for j in self.survivors[len(self.v):]])


def presentation(rows, width):
    """`Presentation` of Z^width modulo the lattice of sparse rows."""
    pivots, rest = _unit_pivots(rows)
    named = sorted({j for row in rest for j in row})
    taken = set(named).union(col for col, _ in pivots)
    free = [j for j in range(width) if j not in taken]
    return Presentation(pivots, named + free, *_residual_smith(rest, named))
