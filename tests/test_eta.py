from functools import lru_cache

import pytest

from forestcalc.errors import OrderMismatchError, ParameterError
from forestcalc.eta import (
    _eta_images,
    arf_classes,
    eta,
    eta_cokernel_invariants,
    eta_k,
    eta_kernel,
    eta_tree,
    milnor_from_forest,
)
from forestcalc.forest import make_forest, parse_forest
from forestcalc.freelie import (
    TensorElement,
    bracket_kernel,
    bracket_map,
    k_project_tensor,
    lyndon_words,
    shape_to_lie,
)
from forestcalc.groups import build_group
from forestcalc.intlinalg import left_kernel, presentation
from forestcalc.trees import (
    FRAMED,
    canonical_framed,
    framed_tree,
    leaf_rootings,
    multiplicity,
    twisted_tree,
)


# ---------------------------------------------------------------------------
# the generator-level eta path that the free-summand path replaced, kept as oracle


def _hermite_solver(rows):
    """Solver of x * rows == target for sparse rows in row Hermite form, as
    `left_kernel` returns them (each row's first entry is its pivot, pivot
    columns increase): the target's least nonzero column names the next
    pivot, by back-substitution.  x is sparse, and target must lie in the
    rows' lattice."""
    at = {row[0][0]: i for i, row in enumerate(rows)}

    def solve(target):
        residue, x = dict(target), {}
        while residue:
            col = min(residue)
            value = residue.pop(col)
            if value:
                assert col in at, "target outside the row span"
                i = at[col]
                x[i], r = divmod(value, rows[i][0][1])
                assert not r, "target outside the lattice"
                for j, y in rows[i][1:]:
                    residue[j] = residue.get(j, 0) - x[i] * y
        return tuple(sorted(x.items()))

    return solve


def _kernel_coords(kern):
    """Coordinates of a tensor in the basis of D_n that `bracket_kernel` gives."""
    at = {key: j for j, key in enumerate(kern.domain)}
    solve = _hermite_solver(kern.rows)
    return lambda image: solve([(at[key], c) for key, c in image.coeffs])


@lru_cache(maxsize=None)
def _old_eta_matrix(m, n):
    """eta over every generator of T_n^inf, as sparse rows over the basis of D_n."""
    group = build_group(m, n, "twisted")
    kern = bracket_kernel(m, n)
    images = _eta_images(m, n, range(len(group.generators)))
    coords = _kernel_coords(kern)
    return group, kern, [coords(image) if kern.rank else () for image in images]


def _old_eta_cokernel(m, n):
    """coker(eta_n) as (torsion, free rank), from the D_n coordinates of every generator."""
    _, kern, rows = _old_eta_matrix(m, n)
    quotient = presentation(rows, kern.rank)
    diag = [1] * len(quotient.pivots) + quotient.diag
    return sorted(d for d in diag if d > 1), kern.rank - len(diag)


def _old_eta_kernel(m, n):
    """Kernel of eta on T_n^inf: the generator-level kernel lattice modulo every
    relation row solved in it, with the lifts read off that quotient's summands."""
    group, _, rows = _old_eta_matrix(m, n)
    lattice = left_kernel(rows)
    solve = _hermite_solver(lattice)
    quotient = presentation([solve(rel) for rel in group.relations], len(lattice))
    torsion = [d for d in quotient.diag if d > 1]
    free = len(quotient.survivors) - len(quotient.diag)
    forests = []
    for vec in quotient.summands():
        lift = {}
        for i, x in vec:
            for g, c in lattice[i]:
                lift[g] = lift.get(g, 0) + x * c
        forests.append(make_forest(m, [(lift[g], group.generators[g])
                                       for g in sorted(lift) if lift[g]]))
    return torsion + [0] * free, forests


ORACLE_CELLS = [(m, n) for m in range(1, 5) for n in range(5)] + [(5, 2), (2, 6), (3, 6), (1, 8)]


def test_eta_kernel_and_cokernel_match_old_path():
    # same factors, cokernel and lift strings as the generator-level path,
    # and each lift in the same class of T_n^inf
    kernels = 0
    for m, n in ORACLE_CELLS:
        factors, lifts = eta_kernel(m, n)
        old_factors, old_lifts = _old_eta_kernel(m, n)
        assert factors == old_factors
        assert eta_cokernel_invariants(m, n) == _old_eta_cokernel(m, n)
        assert [str(f) for f in lifts] == [str(f) for f in old_lifts]
        group = build_group(m, n, "twisted")
        for lift, old in zip(lifts, old_lifts, strict=True):
            assert group.reduce_forest(lift) == group.reduce_forest(old)
            kernels += 1
    assert kernels == 19  # Z/2 (x) L_{(n+2)/4} at n = 2 and 6, and no free part


def test_bracket_kernel_rank_is_bracket_onto():
    # the cokernel's free rank reads rank D_n as m W(m,n+1) - W(m,n+2): the
    # bracket L_1 (x) L_{n+1} -> L_{n+2} is onto
    cells = [(m, n) for m in range(1, 5) for n in range(6)] + [(2, 8)]
    for m, n in cells:
        rank = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
        assert rank == bracket_kernel(m, n).rank


def test_free_summand_images_lie_in_bracket_kernel():
    # eta_kernel reads eta on the free summands in L_1 (x) L_{n+1}; each
    # image must lie in D_n, the kernel of the bracket
    images = 0
    for m, n in ORACLE_CELLS:
        snf = build_group(m, n, "twisted").snf
        free = snf.summands()[sum(d > 1 for d in snf.diag):]
        gens = sorted({g for row in free for g, _ in row})
        by_gen = dict(zip(gens, _eta_images(m, n, gens)))
        for row in free:
            image = TensorElement.zero(m, n + 1)
            for g, c in row:
                image = image + by_gen[g].scale(c)
            assert bracket_map(image).is_zero
            images += 1
    assert images > 100


def test_eta_order_zero():
    x = eta(parse_forest("+1*<1,2>", 2), 0)
    assert str(x) == "+1*x1 (x) x2 + +1*x2 (x) x1"


def test_eta_order_one_in_kernel():
    x = eta(parse_forest("+1*<(1,2),3>", 3), 1)
    assert len(x.items()) == 3
    assert bracket_map(x).is_zero


def test_eta_image_always_in_kernel():
    for m, n in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        g = build_group(m, n, "twisted")
        for gen in g.generators:
            assert bracket_map(eta_tree(m, n, gen)).is_zero


def test_eta_twisted_half_rule():
    for m, n in [(1, 2), (2, 2)]:
        g = build_group(m, n, "twisted")
        for gen in g.generators:
            if gen.kind != "twisted":
                continue
            tree, sign = framed_tree(gen.data, gen.data)
            lhs = eta_tree(m, n, gen, 2)
            rhs = eta_tree(m, n, tree, sign)
            assert lhs == rhs


def test_eta_order_mismatch():
    with pytest.raises(OrderMismatchError):
        eta(parse_forest("+1*<1,2>", 2), 1)


def test_relation_rows_map_to_zero():
    for m in (1, 2):
        for n in range(0, 4):
            g = build_group(m, n, "twisted")
            for rel in g.relations:
                terms = [(c, g.generators[i]) for i, c in rel]
                assert eta(make_forest(m, terms), n).is_zero


def test_table_images_match_eta_tree():
    # _eta_images reads each generator's image off the framed table's edges;
    # eta_tree, which re-roots the nested shapes at each leaf, is the oracle.
    # A twisted image is half of eta(<J,J>), so twice it must be that exactly
    cells = [(m, n) for m in range(1, 5) for n in range(5)] + [(2, 6), (3, 5), (1, 8)]
    twisted = 0
    for m, n in cells:
        generators = build_group(m, n, "twisted").generators
        images = list(_eta_images(m, n, range(len(generators))))
        assert len(images) == len(generators)
        for gen, image in zip(generators, images):
            assert image == eta_tree(m, n, gen)
            if gen.kind == "twisted":
                tree, sign = framed_tree(gen.data, gen.data)
                assert image.scale(2) == eta_tree(m, n, tree, sign)
                twisted += 1
    assert twisted == 116


def test_eta_k_drops_high_multiplicity():
    assert eta_k(parse_forest("+1*<(1,2),2>", 2), 1, 1).is_zero
    f = parse_forest("+1*<(1,2),3>", 3)
    assert eta_k(f, 1, 1) == eta(f, 1)


def test_eta_k_factorization():
    f = parse_forest("+1*<(1,2),3> + +1*<(1,1),2> + +1*(1,2)^inf", 3)
    for k in (1, 2):
        filtered = make_forest(
            3, [(c, t) for c, t in f.terms if multiplicity(t) <= k]
        )
        for n in (1, 2):
            part = make_forest(
                3,
                [
                    (c, t)
                    for c, t in filtered.terms
                    if (t.order if t.kind == "framed" else 2 * t.order) == n
                ],
            )
            assert eta_k(part, n, k) == k_project_tensor(eta(part, n), k)


def test_milnor_from_forest_kernel_membership():
    x = milnor_from_forest(parse_forest("+1*(1,2)^inf", 2), 2)
    kern = bracket_kernel(2, 2)
    assert _kernel_coords(kern)(x)  # nonzero, and in the lattice, or it asserts


def test_eta_iso_orders():
    for m, n in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 3), (2, 3)]:
        assert eta_kernel(m, n)[0] == []
        assert eta_cokernel_invariants(m, n) == ([], 0)


def test_eta_kernel_order_two():
    for m in (1, 2):
        invfac, lifts = eta_kernel(m, 2)
        assert invfac == [2] * m
        g = build_group(m, 2, "twisted")
        reps = {
            tuple(g.reduce_forest(make_forest(m, [(1, twisted_tree((i, i)))])).coords)
            for i in range(1, m + 1)
        }
        assert {tuple(g.reduce_forest(f).coords) for f in lifts} == reps


def test_arf_classes():
    classes = arf_classes(2, 1, 4)
    assert [str(t) for _, t in classes] == ["(1,1)^inf", "(2,2)^inf"]
    classes = arf_classes(2, 2, 4)
    # degree-2 word (1,2) has multiplicity 1 = 4//4
    assert [w for w, _ in classes] == [(1, 2)]
    with pytest.raises(ParameterError):
        arf_classes(2, 1, 3)


def test_eta_kernel_order_six():
    # Ker(eta_6) = Z/2 (x) L_2 for m = 2 (Conant-Schneiderman-Teichner), and
    # L_2 has rank 1: one class of order 2, lifted to a forest that eta sends
    # to 0 and that is nonzero in T_6^inf, the class of (J,J)^inf, J = [1,2]
    invfac, lifts = eta_kernel(2, 6)
    assert invfac == [2]
    (lift,) = lifts
    assert eta(lift, 6).is_zero
    group = build_group(2, 6, "twisted")
    assert not group.is_zero(lift)
    ((_, tree),) = arf_classes(2, 2, 8)
    assert group.reduce_forest(lift) == group.reduce_forest(make_forest(2, [(1, tree)]))


def test_eta_kernel_three_six():
    # Ker(eta_6) = Z/2 (x) L_2 for m = 3, and L_2 has rank 3: one class of
    # order 2 per Lyndon word ij, that of (J,J)^inf with J = [i,j]
    invfac, lifts = eta_kernel(3, 6)
    assert invfac == [2, 2, 2]
    group = build_group(3, 6, "twisted")
    for lift, (_, tree) in zip(lifts, arf_classes(3, 2, 8), strict=True):
        assert eta(lift, 6).is_zero
        assert not group.is_zero(lift)
        assert group.reduce_forest(lift) == group.reduce_forest(make_forest(3, [(1, tree)]))
    assert [str(lift) for lift in lifts] == [
        f"+1*((({i},{j}),{i}),{j})^inf + -1*((({i},{j}),{j}),{i})^inf"
        for i, j in ((1, 2), (1, 3), (2, 3))
    ]


def _mirror(shape):
    """Plane reflection of a rooted shape: every pair reversed."""
    if isinstance(shape, int):
        return shape
    return (_mirror(shape[1]), _mirror(shape[0]))


def _mirror_eta(m, n, tree):
    """eta read off the mirror image of each re-rooted tree, without eta itself."""
    if tree.kind == FRAMED:
        pair, sign, half = tree.data, 1, 1
    else:  # J^inf maps to half of <J,J>
        pair, sign, _ = canonical_framed(tree.data, tree.data)
        half = 2
    acc = {}
    for label, shape in leaf_rootings(*pair):
        for w, c in shape_to_lie(m, _mirror(shape)).coeffs:
            acc[(label, w)] = acc.get((label, w), 0) + sign * c
    assert all(c % half == 0 for c in acc.values())
    return TensorElement.make(m, n + 1, {key: c // half for key, c in acc.items()})


def test_mirror_reading_is_sign_of_order():
    """The sign law of the eta module docstring, on every generator of T_n^inf."""
    checked = 0
    for m in (1, 2, 3):
        for n in range(5):
            for gen in build_group(m, n, "twisted").generators:
                assert _mirror_eta(m, n, gen) == eta_tree(m, n, gen).scale((-1) ** n)
                checked += 1
    assert checked == 430
