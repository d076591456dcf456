import hashlib
import random
import time
from math import comb, factorial, prod

import pytest

import table_oracle
from lie_oracle import leaf_readings
from table_oracle import TableGroup, _trees, table_group
from test_eta import block_counts
from test_freelie import witt
from test_trees import _scrambled, edges, join, term

from forestcalc import groups, intlinalg
from forestcalc.errors import ParameterError, ResourceLimitError
from forestcalc.forest import make_forest, parse_forest
from forestcalc.freelie import is_square, quasi_memo, tree_readings
from forestcalc.groups import TreeGroup, build_group, content_orbit, content_orbits
from forestcalc.trees import framed_tree, multiplicity, twisted_tree


def enumerate_generators(m, n, flavor, k=None):
    """Ordered canonical generators of the order-n tree group on the table."""
    return TableGroup(m, n, flavor, k).generators


def dense_row(pairs, n):
    """Dense list of length n of a sparse row ((column, coeff), ...)."""
    vec = [0] * n
    for j, x in pairs:
        vec[j] = x
    return vec


def sparse_row(vec):
    """Sparse row ((column, coeff), ...) of a dense vector."""
    return tuple((j, x) for j, x in enumerate(vec) if x)


def identity(n):
    """The dense n x n identity matrix."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The dense product a * b."""
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


# ---------------------------------------------------------------------------
# the dense Smith form that alternating Hermite forms replaced, kept as oracle


def _old_smith_normal_form(matrix):
    """``(diag, v)`` of the dense Smith form ``u * matrix * v == diag``.

    Each step pivots on the first entry of least absolute value in the
    remaining block (full scans), clears its row and column by repeated
    division, and adds a row that the pivot does not divide into the pivot
    row.  It never reduces the remaining block, so its coefficients can grow
    without bound on arbitrary input; on row Hermite forms it stays fast.
    Its diag and v are those that normal forms were read from before the
    residual block was diagonalized by alternating Hermite forms."""
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = identity(cols)

    def swap_cols(i, j):
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        for j in range(cols):
            a[dst][j] += factor * a[src][j]

    def add_col(src, dst, factor):
        for mat in (a, v):
            for row in mat:
                row[dst] += factor * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
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
        pivot = a[t][t]
        offender = None
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


def dense_relations(group):
    """The sparse relation rows of a group as dense tuples over its generators."""
    return [tuple(dense_row(row, len(group.generators))) for row in group.relations]


def test_order_zero_framed_free():
    g = build_group(2, 0, "framed")
    assert g.invariants() == (3, [])
    assert g.invariants_str() == "Z^3"


def test_order_one_single_index():
    g = build_group(1, 1, "framed")
    assert g.invariants_str() == "Z^0 + Z/2"


def test_order_one_framed_all_torsion_except_distinct():
    assert build_group(2, 1, "framed").invariants() == (0, [2, 2, 2, 2])
    free, torsion = build_group(3, 1, "framed").invariants()
    assert free == 1 and torsion == [2] * 9


def test_odd_twisted_boundary_twist():
    assert build_group(2, 1, "twisted").invariants() == (0, [])
    assert build_group(3, 1, "twisted").invariants() == (1, [])


def test_even_twisted():
    assert build_group(1, 2, "twisted").invariants() == (0, [2])
    assert build_group(2, 2, "twisted").invariants() == (1, [2, 2])


def test_order_zero_twisted():
    # 2*i^inf = <i,i> makes i^inf a free generator replacing <i,i>
    assert build_group(1, 0, "twisted").invariants() == (1, [])
    assert build_group(2, 0, "twisted").invariants() == (3, [])


def test_generator_enumeration_examples():
    gens = enumerate_generators(2, 0, "framed")
    assert [str(t) for t in gens] == ["<1,1>", "<1,2>", "<2,2>"]
    gens = enumerate_generators(2, 0, "framed", k=1)
    assert [str(t) for t in gens] == ["<1,2>"]
    gens = enumerate_generators(1, 1, "framed")
    assert [str(t) for t in gens] == ["<(1,1),1>"]


def test_reduce_zero_cases():
    g = build_group(2, 0, "framed")
    assert g.is_zero(parse_forest("+1*<1,2> + -1*<1,2>", 2))
    assert not g.is_zero(parse_forest("+1*<1,2>", 2))
    g = build_group(1, 1, "framed")
    assert g.is_zero(parse_forest("+2*<(1,1),1>", 1))


def test_reduce_order_filter():
    g = build_group(2, 1, "framed")
    f = parse_forest("+1*<(1,2),2> + +5*<1,2>", 2)
    e = g.reduce_forest(f)
    assert not e.is_zero
    # only the order-1 term contributes
    assert g.reduce_forest(parse_forest("+1*<(1,2),2>", 2)) == e


def test_interior_twist_relation():
    g = build_group(1, 2, "twisted")
    f = parse_forest("+2*(1,1)^inf + -1*<(1,1),(1,1)>", 1)
    assert g.is_zero(f)


def test_twisted_ihx_rows_vanish_in_group():
    # every relation row of the table, twisted IHX among them, is zero in
    # the normal forms read on Lie coordinates
    g, table = build_group(2, 4, "twisted"), table_group(2, 4, "twisted")
    for rel in table.relations:
        terms = [(c, table.generators[i]) for i, c in rel]
        assert g.is_zero(make_forest(2, terms))


def test_ihx_relation_order_two():
    # the three Jacobi partners at an internal split sum to zero in the group
    from forestcalc.trees import framed_tree

    g = build_group(3, 2, "framed")
    terms = []
    for c, (p, q) in _ihx_triples(((1, 2), (3, 3))):
        tree, sign = framed_tree(p, q)
        terms.append((c * sign, tree))
    assert g.is_zero(make_forest(3, terms))


# ---------------------------------------------------------------------------
# oracle: the relation families as they were, resolving each term through
# the (id, sign) pairs of `test_trees.join`, `edges` and `term`


def _ihx_triples(presentation):
    """The Jacobi partners of a framed tree split at an internal edge.

    For the split ((A,B),(C,D)) the three terms are
    I = <(A,B),(C,D)>, H = <(A,C),(B,D)>, X = <(A,D),(B,C)>,
    entering the relation as I - H + X = 0.
    """
    (a, b), (c, d) = presentation
    return [
        (1, ((a, b), (c, d))),
        (-1, ((a, c), (b, d))),
        (1, ((a, d), (b, c))),
    ]


def _old_framed(table, coeff, a, b):
    index, sign = term(table, *a, *b)
    return coeff * sign, index


def _old_framed_relations(table, indices):
    ids, kids = table.ids, table.ids.kids
    for i in indices:
        if table.torsion[i]:
            yield [(2, i)]
        for x, _, branches in edges(ids, *table.halves[i]):
            if kids[x] and branches:
                split = (((kids[x][0], 1), (kids[x][1], 1)), branches)
                yield [
                    _old_framed(table, c, join(ids, *h), join(ids, *k)) for c, (h, k) in _ihx_triples(split)
                ]


def _old_boundary_twist_relations(table, m, n):
    ids = table.ids
    for i in range(1, m + 1):
        for j in ids.by_order[(n - 1) // 2]:
            yield [_old_framed(table, 1, (ids.labels[i], 1), join(ids, (j, 1), (j, 1)))]


def _old_interior_twist_relations(table, twisted):
    for j, u in twisted:
        yield [(2, u), _old_framed(table, -1, (j, 1), (j, 1))]


def _old_twisted_ihx_relations(table, twisted, number):
    ids, kids = table.ids, table.ids.kids
    for j, u in twisted:
        stack = [(j, ())] if kids[j] else []
        while stack:
            vertex, up = stack.pop()
            a, b = kids[vertex]
            for v, w, left in ((a, b, True), (b, a, False)):
                if kids[v] is None:
                    continue
                x, y = kids[v]
                h = _old_partner(ids, x, w, y, up)
                k = _old_partner(ids, y, w, x, up)
                yield [(1, u), (-1, number[h[0]]), (-1, number[k[0]]), _old_framed(table, 1, h, k)]
                stack.append((v, ((w, left),) + up))


def _old_partner(ids, a, w, b, up):
    node = join(ids, join(ids, (a, 1), (w, 1)), (b, 1))
    for other, left in up:
        node = join(ids, node, (other, 1)) if left else join(ids, (other, 1), node)
    return node


def _use_old_families(monkeypatch):
    for name in ("_framed_relations", "_boundary_twist_relations",
                 "_interior_twist_relations", "_twisted_ihx_relations"):
        monkeypatch.setattr(table_oracle, name, globals()["_old" + name])


def _all_rows(m, n, flavor, k):
    """The table group's relations and the rows of each of its blocks, in order."""
    blocks = []
    rows = TableGroup._rows

    def recorded(self, *args):
        blocks.append(rows(self, *args))
        return blocks[-1]

    group = TableGroup(m, n, flavor, k)
    relations = group.relations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TableGroup, "_rows", recorded)
        group.invariants()
    return relations, blocks


ORACLE_CELLS = [(m, n) for m in (1, 2, 3) for n in range(6)] + [(4, 3), (5, 2), (2, 6), (1, 8)]


@pytest.mark.parametrize("m, n", ORACLE_CELLS)
def test_relations_match_the_tuple_families(m, n, monkeypatch):
    # the families read through the pair codes give every row of the tuple
    # families, in the same order, for the whole group and for each block
    cases = [(flavor, k) for flavor in ("framed", "twisted") for k in (None, 1, 2, 3)]
    new = [_all_rows(m, n, *case) for case in cases]
    _use_old_families(monkeypatch)
    assert [_all_rows(m, n, *case) for case in cases] == new


@pytest.mark.parametrize("m, n, flavor", [(3, 4, "framed"), (2, 6, "twisted")])
def test_normal_forms_match_the_tuple_families(m, n, flavor, monkeypatch):
    # the unit vector of every generator has the same normal form
    def forms():
        group = TableGroup(m, n, flavor)
        return [group.reduce_forest(make_forest(m, [(1, g)])).coords for g in group.generators]

    new = forms()
    _use_old_families(monkeypatch)
    assert forms() == new


def test_k_group_quotient():
    g = build_group(2, 0, "framed", k=1)
    assert g.invariants() == (1, [])
    # multiplicity-2 trees reduce to zero in the quotient
    assert g.is_zero(parse_forest("+1*<1,1>", 2))


def _old_columns(trees, k):
    """The k bound as it was read tree by tree off `trees.multiplicity`."""
    kept = [i for i, t in enumerate(trees) if multiplicity(t) <= k]
    columns = [None] * len(trees)
    for c, i in enumerate(kept):
        columns[i] = c
    return columns


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 5) for n in range(6)] + [(8, 3)]
)
def test_k_columns_match_tree_multiplicities(m, n):
    for flavor in ("framed", "twisted"):
        trees = _trees(m, n, flavor)
        # k = 8 is past every count of order 5, 7 leaves
        for k in (1, 2, 3, 8):
            assert TableGroup(m, n, flavor, k)._columns == _old_columns(trees, k)


def test_mod2_reduction_coords():
    g = build_group(1, 1, "framed")
    e3 = g.reduce_forest(parse_forest("+3*<(1,1),1>", 1))
    e1 = g.reduce_forest(parse_forest("+1*<(1,1),1>", 1))
    assert e3 == e1


def test_bad_parameters():
    with pytest.raises(ParameterError):
        build_group(0, 1, "framed")
    with pytest.raises(ParameterError):
        build_group(2, 1, "fancy")


@pytest.mark.parametrize(
    "m, n, flavor, k, count, digest",
    [
        (2, 5, "framed", None, 219, "4bb4bc719a89fa1f"),
        (4, 3, "framed", None, 450, "c0603355ef5d2413"),
        (1, 8, "twisted", None, 40, "5be8cc76a174c935"),
        (2, 4, "twisted", None, 82, "9283769ff02bc018"),
        (3, 3, "twisted", None, 143, "0a96f9afa5b412be"),
        (5, 2, "twisted", None, 185, "3f276305ad406cfd"),
        (3, 4, "twisted", 2, 57, "4c6039e4d989de02"),
        (2, 5, "twisted", None, 223, "8b1fab048aef1461"),
        (2, 6, "twisted", None, 814, "6adc74b9e01eb80e"),
        (3, 4, "framed", None, 549, "35edb5f396b027bd"),
        (2, 7, "framed", None, 2702, "36d2e3506940a797"),
    ],
)
def test_relation_rows_pinned(m, n, flavor, k, count, digest):
    # every relation family is exercised at these cells; the digests are of
    # the dense rows in their sorted order
    rows = sorted(dense_relations(table_group(m, n, flavor, k)))
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def _dense_order(row):
    """Sort key of a sparse row ((column, coeff), ...) giving its dense tuple's order.

    Dense tuples first differ where one row's entry is smaller, an absent
    entry counting as 0: a negative entry sorts before any later column's
    entry and before the row's end, a positive one after both.  So a
    negative (j, x) maps to (0, j, x), a positive one to (2, -j, x), and the
    end of the row to (1,).
    """
    return tuple((0, j, x) if x < 0 else (2, -j, x) for j, x in row) + ((1,),)


def test_large_twisted_rows_pinned():
    # twisted IHX partners regrafted two vertices below the root, with two
    # labels; the dense rows are too large to pin here, so the sparse ones
    # are, in the order of the dense ones
    g = TableGroup(2, 8, "twisted")
    gens = [(t.kind, t.data, t.torsion) for t in g.generators]
    assert (len(gens), len(g.relations)) == (2430, 10198)
    assert hashlib.sha256(repr(gens).encode()).hexdigest()[:16] == "9f236dce2b376dad"
    rows = sorted(g.relations, key=_dense_order)
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "866fe2f95fc6b4df"


def test_element_equality():
    g = build_group(2, 1, "framed")
    f = parse_forest("+1*<(1,2),2>", 2)
    e = g.reduce_forest(f)
    assert e == e
    assert e == g.reduce_forest(f)
    assert e != g.reduce_forest(parse_forest("+1*<(1,1),2>", 2))
    assert e != None  # noqa: E711
    assert e != 0
    assert e in [0, None, e]


def _whole_matrix_invariants(group):
    """(free, torsion) read off the presentation of every relation row."""
    snf = group.snf
    return len(group.generators) - len(snf.pivots) - len(snf.diag), [d for d in snf.diag if d > 1]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_invariants_match_the_whole_matrix(m):
    # one block per S_m-orbit of contents, its factors repeated by the
    # orbit's size, gives the invariants of every relation row of the table,
    # on Lie coordinates and on the table's own blocks; the k bound keeps
    # the blocks whose label counts are all at most k
    for n in range(6):
        for flavor in ("framed", "twisted"):
            for k in (None, 1, 2, 3):
                table = table_group(m, n, flavor, k)
                whole = _whole_matrix_invariants(table)
                assert TreeGroup(m, n, flavor, k).invariants() == table.invariants() == whole, (
                    n, flavor, k)


@pytest.mark.parametrize("m, n, flavor", [(4, 3, "framed"), (5, 2, "twisted"), (2, 7, "framed"),
                                          (3, 6, "twisted"), (5, 1, "framed"), (6, 1, "framed"),
                                          (5, 3, "framed")])
def test_large_block_invariants_match_the_whole_matrix(m, n, flavor):
    # past m = n + 2 some trees carry labels that no representative content
    # holds, which the content code must keep out of every block, for each k
    for k in (None, 1, 2) if m > n + 2 else (None,):
        table = TableGroup(m, n, flavor, k)
        whole = _whole_matrix_invariants(table)
        assert TreeGroup(m, n, flavor, k).invariants() == table.invariants() == whole, k


@pytest.mark.parametrize("m, top", [(1, 5), (2, 5), (3, 5), (5, 2), (3, 6)])
def test_twisted_blocks_meet_the_witt_and_cst_counts(m, top):
    # each representative block of the twisted T_n^inf on the table meets
    # the Witt and CST counts of its content; every representative content
    # has trees
    for n in range(top + 1):
        blocks = list(TableGroup(m, n, "twisted")._blocks())
        assert [(c, s) for c, s, *_ in blocks] == list(content_orbits(m, n + 2))
        for content, _, width, snf in blocks:
            rank, torsion = block_counts(m, n, content)
            assert width - len(snf.pivots) - len(snf.diag) == rank, (n, content)
            assert [d for d in snf.diag if d > 1] == torsion, (n, content)


def test_invariants_eliminate_blocks_and_normal_forms_the_whole_matrix(monkeypatch):
    # on the table, invariants() eliminates each representative block once,
    # then the diagonal of their torsion to merge it, and never builds the
    # whole matrix; its normal forms eliminate the whole matrix once
    runs = []
    unit_pivots = intlinalg._unit_pivots

    def counted(rows):
        runs.append(len(rows))
        return unit_pivots(rows)

    monkeypatch.setattr(intlinalg, "_unit_pivots", counted)
    g = TableGroup(3, 2, "twisted")
    free, torsion = g.invariants()
    assert (free, torsion) == (6, [2, 2, 2])
    *blocks, merge = runs
    assert len(blocks) == len(list(content_orbits(3, 4))) and merge == len(torsion)
    assert "relations" not in vars(g)
    g.reduce_forest(make_forest(3, [(1, g.generators[0])]))
    g.reduce_forest(make_forest(3, [(1, g.generators[-1])]))
    assert runs[len(blocks) + 1:] == [len(g.relations)] and max(blocks) < len(g.relations)
    assert (free, torsion) == _whole_matrix_invariants(g)


def test_lie_group_eliminates_each_block_once(monkeypatch):
    # on Lie coordinates, invariants() eliminates each representative block
    # once, and their torsion, Z/2s only, is one chain without a merge;
    # normal forms reduce with the blocks already built, and a forest of no
    # order-n term builds none.
    # The blocks are built once per process, for eta too, so their cache
    # starts empty
    runs = []
    unit_pivots = intlinalg._unit_pivots

    def counted(rows):
        runs.append(len(rows))
        return unit_pivots(rows)

    monkeypatch.setattr(intlinalg, "_unit_pivots", counted)
    groups.lie_block.cache_clear()
    g = TreeGroup(3, 2, "twisted")
    assert g.is_zero(parse_forest("+1*<1,2>", 3)) and g.relations == []
    free, torsion = g.invariants()
    assert (free, torsion) == (6, [2, 2, 2])
    assert g.invariants_str() == "Z^6 + Z/2 + Z/2 + Z/2"
    assert g.invariants() == (free, torsion)
    assert len(runs) == len(list(content_orbits(3, 4))) and len(g.relations) == sum(runs)
    for tree in table_group(3, 2, "twisted").generators:
        g.reduce_forest(make_forest(3, [(1, tree)]))
    assert len(runs) == len(list(content_orbits(3, 4)))


@pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4)])
def test_large_framed_invariants(m, n):
    # T_n tensor Q has the rank of D_n, m W(m, n+1) - W(m, n+2), and the
    # torsion at these orders is all 2-torsion
    free, torsion = TreeGroup(m, n, "framed").invariants()
    assert free == m * witt(m, n + 1) - witt(m, n + 2)
    assert set(torsion) <= {2}


def _dense_normal_forms(group, vectors):
    """Normal forms as computed before the unit-pivot presentation: the Smith
    form with v of the whole dense relation matrix, rows in dense order, and
    x * v reduced modulo diag."""
    rows = sorted(dense_relations(group))
    diag, v = _old_smith_normal_form(rows or [[0] * len(group.generators)])
    forms = []
    for x in vectors:
        w = mat_mul([x], v)[0]
        forms.append(tuple([c % d for c, d in zip(w, diag)] + w[len(diag):]))
    return forms


def _random_vectors(rng, group, count):
    """Coordinate vectors: sparse draws, sums of relation rows (zero), draws
    plus such sums (equal to the draw), and doubled draws (zero on 2-torsion)."""
    width = len(group.generators)

    def draw():
        x = [0] * width
        for j in rng.sample(range(width), min(width, rng.randint(1, 3))):
            x[j] = rng.randint(-3, 3)
        return x

    def relation_sum():
        x = [0] * width
        for row in rng.sample(group.relations, min(len(group.relations), rng.randint(1, 3))):
            c = rng.choice((-2, -1, 1, 2))
            for j, y in row:
                x[j] += c * y
        return x

    out = []
    while len(out) < count:
        base = draw()
        out += [base, relation_sum(), [a + b for a, b in zip(base, relation_sum())],
                [2 * a for a in base]]
    return out[:count]


def _check_against_dense_normal_form(m, n, flavor, k, seed):
    # forests of the table's trees: their normal forms on Lie coordinates
    # are zero, and equal, exactly where the dense Smith form of the
    # table's whole relation matrix makes them so
    table = table_group(m, n, flavor, k)
    rng = random.Random(seed)
    vectors = _random_vectors(rng, table, 40)
    forests = [make_forest(m, [(c, g) for c, g in zip(x, table.generators) if c]) for x in vectors]
    new = [build_group(m, n, flavor, k).reduce_forest(f) for f in forests]
    old = _dense_normal_forms(table, vectors)
    assert [e.is_zero for e in new] == [not any(c) for c in old]
    for i in range(len(new)):
        for j in range(i):
            assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_normal_forms_match_dense_smith_form(m):
    for n in range(5):
        for flavor in ("framed", "twisted"):
            for k in (None, 1, 2):
                _check_against_dense_normal_form(m, n, flavor, k, seed=100 * m + 10 * n + (k or 0))


@pytest.mark.parametrize("m, n, flavor", [(2, 5, "framed"), (4, 3, "framed"), (2, 6, "twisted")])
def test_large_normal_forms_match_dense_smith_form(m, n, flavor):
    _check_against_dense_normal_form(m, n, flavor, None, seed=7)


# every cell of framed odd order up to (2,11), (3,7) and (4,5)
FRAMED_ODD_CELLS = [(m, n) for m, top in ((1, 11), (2, 11), (3, 7), (4, 5)) for n in range(1, top + 1, 2)]


def test_framed_torsion_count():
    # At odd n = 2k-1 the framed T_n has exactly m*W(m,k) summands Z/2 and
    # at even n none, W the Witt number, and at odd n its rank is that of
    # the bracket kernel, m W(m,n+1) - W(m,n+2): Levine's conjecture
    # (T_n = D'_n, proved by Conant-Schneiderman-Teichner) together with
    # L'_2k = L_2k + Z/2 (x) L_k, one Z/2 per generator (x, [v,v]).  The
    # Witt numbers are sympy's Moebius sums, at every framed odd cell up to
    # (2,11), (3,7) and (4,5).
    for m, n in FRAMED_ODD_CELLS:
        assert build_group(m, n, "framed").invariants() == (
            m * witt(m, n + 1) - witt(m, n + 2), [2] * (m * witt(m, (n + 1) // 2))), (m, n)
    assert build_group(4, 5, "framed").invariants_str() == "Z^340" + " + Z/2" * 80
    for m, n in [(2, 4), (3, 4), (2, 6), (1, 8)]:
        assert build_group(m, n, "framed").invariants()[1] == []


def test_content_orbits_cover_every_content():
    # one representative per S_m-orbit, its label counts not increasing;
    # the orbits' sizes add up to the C(total + m - 1, m - 1) contents, and
    # content_orbit lists each content of an orbit once, by content, with
    # the label map that carries the representative onto it
    for m in range(1, 6):
        for total in range(1, 9):
            contents, sizes = set(), 0
            for rep, size in content_orbits(m, total):
                counts = [rep.count(x) for x in range(1, m + 1)]
                assert len(rep) == total and counts == sorted(counts, reverse=True)
                orbit = content_orbit(m, rep)
                assert len(orbit) == size and orbit == sorted(orbit)
                for content, labels in orbit:
                    assert content == tuple(sorted(labels[x - 1] for x in rep))
                    contents.add(content)
                sizes += size
            assert len(contents) == sizes == comb(total + m - 1, m - 1)
    with pytest.raises(ParameterError):
        list(content_orbits(0, 2))


def _block_invariants(blocks):
    """content -> (orbit size, free rank, torsion) of each nonzero block,
    from (content, size, width, `Presentation`) entries."""
    out = {}
    for content, size, width, snf in blocks:
        free, torsion = width - len(snf.pivots) - len(snf.diag), [d for d in snf.diag if d > 1]
        if free or torsion:
            out[content] = size, free, torsion
    return out


# every cell whose table blocks take about a second or less, by m, and
# (2,10) twisted, about 3.5 s on the table
LIE_ORACLE_ORDERS = {1: range(12), 2: range(11), 3: range(8), 4: range(7)}


@pytest.mark.parametrize("m", sorted(LIE_ORACLE_ORDERS))
def test_lie_blocks_match_the_table_blocks(m):
    # each representative content's Lie-coordinate block presents the same
    # group as its block of table rows, for both flavors at every order,
    # framed odd order with its generators (x, [v,v]) included, and for
    # every k; `_block_width`, the fine-graded Witt count the budget reads,
    # is each Lie block's generator count
    for n in LIE_ORACLE_ORDERS[m]:
        for flavor in ("twisted",) if (m, n) == (2, 10) else ("twisted", "framed"):
            for k in (None, 1, 2, 3):
                lie = list(TreeGroup(m, n, flavor, k)._lie_blocks())
                table = TableGroup(m, n, flavor, k)._blocks()
                assert _block_invariants(lie) == _block_invariants(table), (n, flavor, k)
                for content, _, width, _ in lie:
                    assert width == groups._block_width(n, flavor, content)


def test_framed_and_twisted_blocks_are_one_where_they_agree():
    # at even n a content that is not twice a half has no twisted
    # generator, so both flavors read one block; one that is has its own
    single, double = (1, 1, 1, 2, 2, 3, 3, 4), (1, 1, 2, 2, 3, 3, 4, 4)
    assert groups.lie_block(6, "framed", single) is groups.lie_block(6, "twisted", single)
    assert groups.lie_block(6, "framed", double) is not groups.lie_block(6, "twisted", double)
    assert groups.lie_block(5, "framed", (1,) * 4 + (2,) * 3) is not groups.lie_block(
        5, "twisted", (1,) * 4 + (2,) * 3)


def test_blocks_are_shared_across_m():
    # a block depends only on its order, flavor and content: (3,6) reads the
    # very blocks that (2,6) built for the contents they share, and both
    # keep their invariants
    groups.lie_block.cache_clear()
    groups._groups.cache_clear()
    two = build_group(2, 6, "twisted")
    assert two.invariants_str() == "Z^6 + Z/2"
    three = build_group(3, 6, "twisted")
    assert three.invariants_str() == "Z^126 + Z/2 + Z/2 + Z/2"
    assert len(two.snf) == 5
    for content, snf in two.snf.items():
        assert three.snf[content] is snf


def _nonzero(readings):
    return [(y, {u: c for u, c in b.items() if c}) for y, b in readings]


def test_block_readings_match_the_word_walk():
    # a block reads each generator (x, w), and each w^inf at twisted even n,
    # with the walk of any tree on the shape of w, std(w) or, for a square vv
    # at framed odd n, (std(v), std(v)); the word walk it replaced, cut at
    # the standard factorization, is the oracle: the two agree leaf by leaf,
    # zeros dropped; 21 of the generators are at order 0
    checked = 0
    for m, top in ((2, 11), (3, 7), (4, 5)):
        for n in range(top + 1):
            for flavor in ("framed", "twisted"):
                quasi = flavor == "framed" and n % 2
                memo, old_memo = (quasi_memo(), quasi_memo()) if quasi else ({}, {})
                for _, _, block, _ in groups.lie_blocks(m, n, flavor):
                    known = {}
                    keys = [(w, (x,)) for x, w in block.framed]
                    keys += [(w, w) for w in block.twisted if not is_square(w)]
                    for w, root in keys:
                        new = tree_readings(groups._word_shape(w), {root: 1}, memo, known)
                        assert _nonzero(new) == _nonzero(leaf_readings(w, {root: 1}, old_memo)), (n, w)
                        checked += 1
    assert checked == 4753


# every cell whose whole table presentation takes about a second or less
TABLE_CELLS = [(m, n) for m, top in ((1, 9), (2, 7), (3, 5), (4, 4), (5, 2)) for n in range(top + 1)]


def _random_forests(rng, table, count):
    """Forests of the table's trees, each written at a random edge with
    random AS swaps: random draws, sums of relation rows (zero), draws
    plus such sums, and doubled draws."""
    forests = []
    for x in _random_vectors(rng, table, count):
        terms = []
        for c, tree in zip(x, table.generators):
            if c and tree.kind == "framed":
                a, b = _scrambled(rng, *tree.data)
                tree, sign = framed_tree(a, b)
                c *= sign
            if c:
                terms.append((c, tree))
        forests.append(make_forest(table.m, terms))
    return forests


@pytest.mark.parametrize("m, n", TABLE_CELLS)
def test_obstruct_verdicts_match_the_table(m, n):
    # on random forests, both flavors and every k, a forest is zero on Lie
    # coordinates exactly where the table's normal form says zero
    rng = random.Random(100 * m + n)
    for flavor in ("framed", "twisted"):
        for k in (None, 1, 2, 3):
            table = table_group(m, n, flavor, k)
            if not table.generators:
                continue
            group = build_group(m, n, flavor, k)
            for forest in _random_forests(rng, table, 24):
                assert group.is_zero(forest) == table.is_zero(forest), (flavor, k, str(forest))


def _relabeled(forest, labels):
    """The forest with each label x read as labels[x - 1]."""
    def shape(s):
        return labels[s - 1] if isinstance(s, int) else (shape(s[0]), shape(s[1]))

    terms = []
    for c, tree in forest.terms:
        if tree.kind == "framed":
            tree, sign = framed_tree(*map(shape, tree.data))
            terms.append((c * sign, tree))
        else:
            terms.append((c, twisted_tree(shape(tree.data))))
    return make_forest(forest.m, terms)


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (4, 2), (2, 6), (4, 4)])
def test_witness_is_invariant_under_relabeling(m, n):
    # the witness lists each nonzero part's least coordinates over the
    # relabelings onto its representative, so a label permutation of the
    # forest leaves it as it is, while the normal form follows the labels
    rng = random.Random(10 * m + n)
    for flavor in ("framed", "twisted"):
        group, table = build_group(m, n, flavor), table_group(m, n, flavor)
        for forest in _random_forests(rng, table, 16):
            witness = group.witness(forest)
            assert (witness == []) == group.is_zero(forest)
            for _ in range(3):
                labels = rng.sample(range(1, m + 1), m)
                assert group.witness(_relabeled(forest, labels)) == witness, str(forest)


def _sorted_relabeling(content):
    """The relabeling onto a content's representative that orders its labels
    by count, then by label, by a sort: the rule `_representative` kept
    before it read the first of `_relabelings`."""
    counts = {x: content.count(x) for x in set(content)}
    labels = [0] * content[-1]
    for i, x in enumerate(sorted(counts, key=lambda x: (-counts[x], x)), 1):
        labels[x - 1] = i
    return labels


def test_representative_is_the_first_relabeling():
    # every relabeling carries the content onto its representative, once
    # each, the labels of each count permuted, and the first is the sorted one
    rng = random.Random(5000)
    for _ in range(5000):
        m = rng.randint(1, 6)
        content = tuple(sorted(rng.randint(1, m) for _ in range(rng.randint(1, 8))))
        representative, labels = groups._representative(content)
        assert labels == _sorted_relabeling(content)
        assert representative in dict(content_orbits(m, len(content)))
        if len(set(content)) <= 4:
            every = list(groups._relabelings(content))
            assert every[0] == labels and len({tuple(x) for x in every}) == len(every)
            assert all(tuple(sorted(x[i - 1] for i in content)) == representative for x in every)
            counts = [content.count(x) for x in set(content)]
            assert len(every) == prod(factorial(counts.count(c)) for c in set(counts))


@pytest.mark.parametrize("m, n, forest", [
    (5, 6, "+1*<(((1,2),3),4),(((5,1),2),3)> + -2*(((1,2),4),5)^inf"),
    (2, 11, "+1*<((((((1,2),1),1),1),1),(1,2)),(((1,2),2),(1,2))>"),
])
def test_obstruct_builds_only_the_blocks_it_touches(m, n, forest):
    # a normal form builds the block of each representative its forest
    # touches, and no other; a forest with no term of the cell's order
    # builds none
    groups.lie_block.cache_clear()
    start = time.perf_counter()
    group = TreeGroup(m, n, "twisted")
    assert group.is_zero(parse_forest("+1*<(1,2),(1,2)>", m))
    assert groups.lie_block.cache_info().currsize == 0
    element = group.reduce_forest(parse_forest(forest, m))
    assert time.perf_counter() - start < 1.0
    assert not element.is_zero
    touched = {groups._representative(content)[0] for content, _ in element.coords}
    assert groups.lie_block.cache_info().currsize == len(touched) == forest.count("*")


def test_build_group_keeps_one_group_per_cell():
    # a k left out and k = None are one cache entry, so one group
    g = build_group(2, 4, "twisted")
    assert build_group(2, 4, "twisted", None) is g
    assert build_group(2, 4, "twisted", 2) is build_group(2, 4, "twisted", k=2) is not g


def test_lie_generators_parse_back():
    # `group --json` lists <x,std(w)>, at framed odd order
    # <x,(std(v),std(v))>, std(w)^inf and (std(v),std(v))^inf as written: each parses back as a forest of one
    # tree of the cell, and the k bound keeps the generators whose labels
    # repeat at most k times, J^inf counting J's twice
    for m, n, flavor, k in [(3, 6, "twisted", None), (2, 4, "framed", None), (2, 2, "twisted", 3),
                            (3, 3, "twisted", None), (1, 0, "twisted", None), (2, 6, "twisted", 4),
                            (3, 3, "framed", None), (3, 5, "framed", 2), (1, 1, "framed", None)]:
        texts = TreeGroup(m, n, flavor, k).generator_texts()
        pairs, twisted = groups.lie_generators(m, n, flavor, k)
        assert len(texts) == len(pairs) + len(twisted) == len(set(texts))
        if k is None:
            degrees = [n // 2 + 1] if flavor == "twisted" and n % 2 == 0 else []
            degrees += [(n + 2) // 4] if degrees and n % 4 == 2 else []
            squares = m * witt(m, (n + 1) // 2) if flavor == "framed" and n % 2 else 0
            assert len(texts) == m * witt(m, n + 1) + squares + sum(witt(m, d) for d in degrees)
        for text in texts:
            (coeff, tree), = parse_forest("1*" + text, m).terms
            assert abs(coeff) == 1 and tree.order * (1 + (tree.kind == "twisted")) == n
            assert k is None or multiplicity(tree) <= k


def test_lie_generators_and_blocks_agree():
    # the listing and the blocks read one family rule: each representative
    # block's generators are, in order, the listed ones of its content, a
    # pair (x, w) counting x and w's letters, a twisted key w its letters
    # twice, and the blocks, repeated by their orbits' sizes, list them all
    blocks = 0
    for m in range(1, 4):
        for n in range(8):
            for flavor in ("framed", "twisted"):
                for k in (None, 1, 2, 3):
                    pairs, twisted = groups.lie_generators(m, n, flavor, k)
                    total = 0
                    for content, size, block, _ in groups.lie_blocks(m, n, flavor, k):
                        assert list(block.framed) == [(x, w) for x, w in pairs
                                                      if tuple(sorted(w + (x,))) == content]
                        assert list(block.twisted) == [w for w in twisted if tuple(sorted(w * 2)) == content]
                        total += size * len(block.images)
                        blocks += 1
                    assert total == len(pairs) + len(twisted), (m, n, flavor, k)
    assert blocks == 249


def test_lie_budget_refuses_before_building():
    # the estimate, n + 1 rows per generator of the representative blocks
    # the k bound keeps, refuses a cell before any block is built
    groups.lie_block.cache_clear()
    with pytest.raises(ResourceLimitError, match="about 1,106,313 relation rows"):
        groups.lie_blocks(3, 12, "twisted")
    with pytest.raises(ResourceLimitError):
        build_group(2, 17, "twisted").invariants()
    assert groups.lie_block.cache_info().currsize == 0
    assert groups.lie_blocks(3, 12, "twisted", 4) == []  # no content of 14 labels counts <= 4
    # framed odd order counts its generators (x, [v,v]) too
    with pytest.raises(ResourceLimitError, match="about 372,540 relation rows"):
        groups.lie_blocks(3, 11, "framed")
    assert groups.lie_block.cache_info().currsize == 0
    # the --json listing is refused past MAX_LIE_GENERATORS: 3000^2 pairs
    # (x, w) at order 0, and 300 W(300,2) + 300^2 at framed order 1
    with pytest.raises(ResourceLimitError, match="9,000,000 generators"):
        groups.lie_generators(3000, 0, "twisted")
    with pytest.raises(ResourceLimitError, match="13,545,000 generators"):
        groups.lie_generators(300, 1, "framed")
