import random
from functools import lru_cache
from math import comb, factorial, gcd
from typing import NamedTuple

import pytest

import lie_oracle
from lie_oracle import k_project_tensor, leaf_readings, leaf_rootings, reduce_shape, shape_to_lie
from table_oracle import framed_table, table_group
from test_freelie import _random_labeled
from test_trees import edges

from forestcalc import eta as eta_module
from forestcalc.errors import NotPrimitiveError, OrderMismatchError, ParameterError, ResourceLimitError
from forestcalc.eta import (
    _free_rows,
    arf_classes,
    eta,
    eta_cokernel_invariants,
    eta_k,
    eta_kernel,
    eta_tree,
    milnor_from_forest,
)
from forestcalc.forest import forest_add, make_forest, parse_forest
from forestcalc.freelie import (
    TensorElement,
    bracket_kernel,
    bracket_map,
    lie_bracket,
    lyndon_words,
    standard_bracketing,
)
from forestcalc.groups import (
    build_group,
    content_orbit,
    content_orbits,
    divisibility_chain,
    twisted_block,
)
from forestcalc.intlinalg import left_kernel, presentation
from forestcalc.trees import (
    FRAMED,
    canonical_framed,
    framed_tree,
    multiplicity,
    twisted_tree,
)


# ---------------------------------------------------------------------------
# the table path that the Lie-coordinate path replaced, kept as oracle: eta
# read off the framed presentation table on the free summands of the
# tree-indexed table group


def _old_eta_images(m: int, n: int, gens):
    """eta of the generators numbered in `gens`, in order, off the framed table.

    A framed generator <lo, hi> is walked along `test_trees.edges`: each edge
    at a leaf contributes X_label (x) sign * B, where the rest of the tree
    reads as sign * the canonical shape with bracket B.  A twisted J^inf is
    half of what the edges of <J, J> give.  Each canonical shape's bracket
    is reduced once per call, as the bracket of its branches' reductions on
    the Lyndon basis, with one memo of basis-pair brackets.
    """
    table = framed_table(m, n)
    ids = table.ids
    kids, shapes = ids.kids, ids.shapes
    brackets = {}  # shape id -> its Lie reduction
    memo = {}  # basis-pair brackets, for lie_bracket

    def lie(x):
        out = brackets.get(x)
        if out is None:
            if kids[x] is None:
                out = reduce_shape(m, 1, shapes[x])
            else:
                out = lie_bracket(lie(kids[x][0]), lie(kids[x][1]), memo)
            brackets[x] = out
        return out

    def add(acc, label, rest, sign):
        for w, c in lie(rest).coeffs:
            key = (label, w)
            acc[key] = acc.get(key, 0) + sign * c

    def image(a, b):
        acc = {}
        for x, (rest, sign), _ in edges(ids, a, b):
            if kids[x] is None:
                add(acc, shapes[x], rest, sign)
            if kids[rest] is None:  # only <a, b> itself has a leaf as its rest
                add(acc, shapes[rest], x, sign)
        return acc

    framed = len(table.halves)
    for g in gens:
        if g < framed:
            yield TensorElement.make(m, n + 1, image(*table.halves[g]))
            continue
        j = ids.by_order[n // 2][g - framed]
        acc = {}
        for key, c in image(j, j).items():
            acc[key], rem = divmod(c, 2)
            assert not rem, f"odd coefficient halving eta(<J,J>) for {shapes[j]}^inf"
        yield TensorElement.make(m, n + 1, acc)


@lru_cache(maxsize=None)
def _old_free_rows(m: int, n: int):
    """(group, summands, rows, snf): the tree-indexed twisted T_n, its
    presentation's summands, eta of each free summand as a sparse row over
    the (label, Lyndon word) keys of L_1 (x) L_{n+1}, and their presentation.
    """
    group = table_group(m, n, "twisted")
    summands = group.snf.summands()
    free = summands[sum(d > 1 for d in group.snf.diag):]
    gens = sorted({g for row in free for g, _ in row})
    images = dict(zip(gens, _old_eta_images(m, n, gens)))
    cols, rows = {}, []
    for row in free:
        acc = {}
        for g, c in row:
            for key, x in images[g].coeffs:
                j = cols.setdefault(key, len(cols))
                acc[j] = acc.get(j, 0) + c * x
        rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
    snf = presentation(rows, m * len(lyndon_words(m, n + 1)))
    return group, summands, rows, snf


def _old_eta_cokernel(m, n):
    """coker(eta_n) as (torsion, free rank) on the table path."""
    snf = _old_free_rows(m, n)[3]
    rank = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
    return sorted(d for d in snf.diag if d > 1), rank - len(snf.pivots) - len(snf.diag)


def _old_eta_kernel(m, n):
    """Kernel of eta on T_n^inf on the table path, as (factors, lifts)."""
    group, summands, rows, snf = _old_free_rows(m, n)
    torsion = [d for d in group.snf.diag if d > 1]
    free, gens = summands[len(torsion):], group.generators
    kernel = left_kernel(rows) if len(snf.pivots) + len(snf.diag) < len(rows) else []
    lifts = [[(c, gens[g]) for g, c in row] for row in summands[:len(torsion)]]
    lifts += [[(c * y, gens[g]) for i, c in x for g, y in free[i]] for x in kernel]
    return torsion + [0] * len(kernel), [make_forest(m, terms) for terms in lifts]


# ---------------------------------------------------------------------------
# the whole-cell presentation on Lie coordinates that the content blocks
# replaced, kept as oracle: one presentation of all of T_n^inf, and eta on
# its free summands


class TwistedLie(NamedTuple):
    """Twisted T_n^inf on Lie coordinates, with eta of each generator.

    Generators, numbered in this order: (x, w) at (x - 1) * len(words) plus
    the index of w, for each label x and each w in `words`; w^inf for each w
    in `halves`; (v,v)^inf for each v in `arf`.  `relations` are sparse rows
    ((generator, coeff), ...) over them.  `images` holds eta of each
    generator as a {column: coeff} row over L_1 (x) L_{n+1}, whose keys
    (label, Lyndon word) are numbered as the generators (x, w) are.
    """

    m: int
    words: tuple  # the Lyndon words of degree n + 1
    halves: tuple  # of degree n/2 + 1 at even n, else none
    arf: tuple  # of degree (n+2)/4 at n = 2 mod 4, else none
    relations: tuple
    images: tuple

    def forest(self, row):
        """The forest of a sparse row ((generator, coeff), ...): (x, w) is
        <x, std(w)>, w^inf is std(w)^inf and (v,v)^inf is (std(v), std(v))^inf,
        std the standard bracketing."""
        framed, terms = self.m * len(self.words), []
        for g, c in row:
            if g < framed:
                x, i = divmod(g, len(self.words))
                tree, sign = framed_tree(x + 1, standard_bracketing(self.words[i]))
                terms.append((c * sign, tree))
            elif g < framed + len(self.halves):
                terms.append((c, twisted_tree(standard_bracketing(self.halves[g - framed]))))
            else:
                half = standard_bracketing(self.arf[g - framed - len(self.halves)])
                terms.append((c, twisted_tree((half, half))))
        return make_forest(self.m, terms)


@lru_cache(maxsize=None)
def twisted_lie(m: int, n: int) -> TwistedLie:
    """Twisted T_n^inf on Lie coordinates, and eta on its generators, read
    by the oracle's word walk (`lie_oracle.leaf_readings`), over the whole
    cell."""
    words = lyndon_words(m, n + 1)
    size = len(words)
    column = {w: i for i, w in enumerate(words)}
    memo = {}  # basis-pair brackets
    rows = {}  # each sparse row, its first entry positive, in the order made

    def read(g, scale, readings):
        image = {}
        for y, b in readings:
            base, row = (y - 1) * size, {g: scale}
            for u, c in b.items():
                if c:
                    j = base + column[u]
                    image[j] = image.get(j, 0) + c
                    row[j] = row.get(j, 0) - c
            if not row[g]:
                del row[g]
            if row:
                row = tuple(sorted(row.items()))
                rows[row if row[0][1] > 0 else tuple((j, -c) for j, c in row)] = None
        return image

    images = [None] * (m * size)
    labels = range(1, m + 1)
    for i, w in enumerate(words):
        for x in labels:
            g = (x - 1) * size + i
            image = read(g, 1, leaf_readings(w, {(x,): 1}, memo))
            image[g] = image.get(g, 0) + 1  # the reading at x itself
            images[g] = image
    halves = lyndon_words(m, n // 2 + 1) if n % 2 == 0 else ()
    for w in halves:
        images.append(read(len(images), 2, leaf_readings(w, {w: 1}, memo)))
    arf = lyndon_words(m, (n + 2) // 4) if n % 4 == 2 else ()
    for _ in arf:
        rows[((len(images), 2),)] = None
        images.append({})
    images = tuple({j: c for j, c in image.items() if c} for image in images)
    return TwistedLie(m, words, halves, arf, tuple(rows), images)


@lru_cache(maxsize=None)
def _whole_cell_eta(m: int, n: int):
    """(factors, lifts, cokernel) of eta_n off one presentation of the whole cell."""
    lie = twisted_lie(m, n)
    group = presentation(lie.relations, len(lie.images))
    summands = group.summands()
    rows = []
    for row in summands[sum(d > 1 for d in group.diag):]:
        acc = {}
        for g, c in row:
            for j, x in lie.images[g].items():
                acc[j] = acc.get(j, 0) + c * x
        rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
    snf = presentation(rows, m * len(lie.words))
    rank = m * len(lie.words) - len(lyndon_words(m, n + 2))
    cokernel = sorted(d for d in snf.diag if d > 1), rank - len(snf.pivots) - len(snf.diag)
    torsion = [d for d in group.diag if d > 1]
    free = summands[len(torsion):]
    kernel = left_kernel(rows) if len(snf.pivots) + len(snf.diag) < len(rows) else []
    lifts = summands[:len(torsion)]
    lifts += [[(g, c * y) for i, c in x for g, y in free[i]] for x in kernel]
    return torsion + [0] * len(kernel), [lie.forest(row) for row in lifts], cokernel


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
def _generator_eta_matrix(m, n):
    """eta over every generator of T_n^inf, as sparse rows over the basis of D_n."""
    group = table_group(m, n, "twisted")
    kern = bracket_kernel(m, n)
    images = _old_eta_images(m, n, range(len(group.generators)))
    coords = _kernel_coords(kern)
    return group, kern, [coords(image) if kern.rank else () for image in images]


def _generator_eta_cokernel(m, n):
    """coker(eta_n) as (torsion, free rank), from the D_n coordinates of every generator."""
    _, kern, rows = _generator_eta_matrix(m, n)
    quotient = presentation(rows, kern.rank)
    diag = [1] * len(quotient.pivots) + quotient.diag
    return sorted(d for d in diag if d > 1), kern.rank - len(diag)


def _generator_eta_factors(m, n):
    """Invariant factors of the kernel of eta on T_n^inf: the generator-level
    kernel lattice modulo every relation row solved in it."""
    group, _, rows = _generator_eta_matrix(m, n)
    lattice = left_kernel(rows)
    solve = _hermite_solver(lattice)
    quotient = presentation([solve(rel) for rel in group.relations], len(lattice))
    free = len(quotient.survivors) - len(quotient.diag)
    return [d for d in quotient.diag if d > 1] + [0] * free


ORACLE_CELLS = [(m, n) for m in range(1, 5) for n in range(5)] + [(5, 2), (2, 6), (3, 6), (1, 8)]


def _blocks(m, n):
    """Every block of the cell, each built from its own content."""
    for rep, _ in content_orbits(m, n + 2):
        for content, _ in content_orbit(m, rep):
            yield twisted_block(n, content)


def _span(group, forests):
    """The normal forms in `group` of the sums of every subset of `forests`."""
    sums = [make_forest(group.m, [])]
    for forest in forests:
        sums += [forest_add(s, forest) for s in sums]
    return {group.reduce_forest(s).coords for s in sums}


def test_eta_kernel_and_cokernel_match_old_path():
    # same factors and cokernel as the whole cell on Lie coordinates, the
    # table path and the generator-level one; each lift maps to 0 under eta,
    # and the lifts, all of order 2, span the same classes of T_n^inf as
    # the whole cell's, 2^k of them for k lifts; on this grid the lift
    # strings are the whole cell's too
    kernels = 0
    for m, n in ORACLE_CELLS:
        factors, lifts = eta_kernel(m, n)
        cell_factors, cell_lifts, cell_cokernel = _whole_cell_eta(m, n)
        assert factors == cell_factors == _old_eta_kernel(m, n)[0] == _generator_eta_factors(m, n)
        cokernel = eta_cokernel_invariants(m, n)
        assert cokernel == cell_cokernel == _old_eta_cokernel(m, n) == _generator_eta_cokernel(m, n)
        assert all(eta(lift, n).is_zero for lift in lifts)
        group = build_group(m, n, "twisted")
        span = _span(group, lifts)
        assert span == _span(group, cell_lifts) and len(span) == 2 ** len(lifts)
        assert [str(f) for f in lifts] == [str(f) for f in cell_lifts]
        kernels += len(lifts)
    assert kernels == 19  # Z/2 (x) L_{(n+2)/4} at n = 2 and 6, and no free part


def _chain(factors):
    chain, group = divisibility_chain(factors)
    return chain, group.summands()


def test_torsion_merges_into_one_chain():
    # the blocks' kernels are one divisibility chain, then the free part,
    # each factor with a generator: equal factors keep their own, a Z keeps
    # its own after the torsion, Z/4 + Z/2 reads 2 | 4, and Z/2 + Z/3 is
    # Z/6, generated by a unit of each
    assert _chain([2] * 5) == ([2] * 5, [((i, 1),) for i in range(5)])
    assert _chain([0, 2]) == ([2, 0], [((1, 1),), ((0, 1),)])
    assert _chain([]) == ([], [])
    chain, (low, high) = _chain([4, 2])
    assert chain == [2, 4]
    assert dict(high)[0] % 2 == 1 and dict(low).get(0, 0) % 2 == 0 and dict(low)[1] % 2 == 1
    chain, (row,) = _chain([2, 3])
    assert chain == [6] and dict(row)[0] % 2 and dict(row)[1] % 3


def _spy_left_kernel(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(rows)
        return left_kernel(rows)

    monkeypatch.setattr(eta_module, "left_kernel", spy)
    return calls


def test_kernel_skipped_only_at_full_rank(monkeypatch):
    # eta_kernel reads the rank of each block's free summands' eta rows off
    # their presentation, pivots plus diag, and skips left_kernel when it is
    # the row count; at every cell the tests read (the arf goldens and the
    # acceptance cells among them), rank plus left_kernel's rank is the row
    # count, and eta_kernel finds as many free kernel classes as left_kernel
    # does, once per block of each orbit
    calls = _spy_left_kernel(monkeypatch)
    kernels = 0
    for m, n in ORACLE_CELLS:
        found = 0
        for size, _, _, _, rows, snf in _free_rows(m, n):
            kernel = left_kernel(rows)
            assert len(snf.pivots) + len(snf.diag) + len(kernel) == len(rows)
            found += size * len(kernel)
        assert eta_kernel(m, n)[0].count(0) == found
        kernels += found
    assert kernels == 0  # eta is injective on the free summands at every cell
    assert calls == []


def test_kernel_below_full_rank(monkeypatch):
    # rank-deficient eta rows on four free summands of the (2,2,1,1) block
    # of (4,4), which has no torsion: eta_kernel calls left_kernel once, and
    # gives one 0 factor and one lift per row of the left kernel and block
    # of the orbit, the free summands combined by that row and relabeled,
    # the blocks going in the order of their contents
    m, n = 4, 4
    size, block, group, summands, _, _ = next(
        entry for entry in _free_rows(m, n) if entry[1].content == (1, 1, 2, 2, 3, 4))
    assert size == 6 and not any(d > 1 for d in group.diag)
    free = summands[:4]
    rows = [((0, 2), (1, 4)), ((0, 1), (1, 2)), ((1, 3),), ((0, 3), (1, 9))]
    snf = presentation(rows, 2)
    assert len(snf.pivots) + len(snf.diag) == 2
    fake = ((size, block, group, free, rows, snf),)
    monkeypatch.setattr(eta_module, "_free_rows", lambda m_, n_: fake)
    calls = _spy_left_kernel(monkeypatch)
    factors, lifts = eta_kernel(m, n)
    kernel = left_kernel(rows)
    assert len(kernel) == 2 and calls == [rows]
    assert factors == [0] * 12
    combos = [[(g, c * y) for i, c in x for g, y in free[i]] for x in kernel]
    orbit = content_orbit(m, block.content)
    assert [content for content, _ in orbit] == sorted(content for content, _ in orbit)
    expected = [make_forest(m, block.terms(row, labels)) for _, labels in orbit for row in combos]
    assert [str(f) for f in lifts] == [str(f) for f in expected]


def test_bracket_kernel_rank_is_bracket_onto():
    # the cokernel's free rank reads rank D_n as m W(m,n+1) - W(m,n+2): the
    # bracket L_1 (x) L_{n+1} -> L_{n+2} is onto
    cells = [(m, n) for m in range(1, 5) for n in range(6)] + [(2, 8)]
    for m, n in cells:
        rank = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
        assert rank == bracket_kernel(m, n).rank


def _tensor(m, block, n, row):
    """A {column: coeff} row over the block's part of L_1 (x) L_{n+1}, m labels."""
    return TensorElement.make(m, n + 1, {block.framed[j]: c for j, c in row.items()})


def test_free_summand_images_lie_in_bracket_kernel():
    # eta_kernel reads eta on the free summands in L_1 (x) L_{n+1}; each
    # image must lie in D_n, the kernel of the bracket.  A representative's
    # rows stand for those of every block of its orbit, relabeled
    images = 0
    for m, n in ORACLE_CELLS:
        for size, block, _, _, rows, _ in _free_rows(m, n):
            for row in rows:
                assert bracket_map(_tensor(m, block, n, dict(row))).is_zero
            images += size * len(rows)
    assert images > 100


def test_lie_images_match_eta_tree():
    # each block reads its generators' images off the readings its rows
    # make; eta of the generator's forest, which re-roots the canonical tree
    # at each leaf, is the oracle, and the blocks hold all 3261 generators
    # of the whole cells
    cells = ORACLE_CELLS + [(2, 5), (3, 5), (2, 7), (2, 8), (1, 10)]
    checked = 0
    for m, n in cells:
        identity = tuple(range(1, m + 1))
        for block in _blocks(m, n):
            for g, image in enumerate(block.images):
                assert _tensor(m, block, n, image) == eta(make_forest(m, block.terms([(g, 1)], identity)), n)
                checked += 1
    assert checked == 3261


def test_lie_relations_map_to_zero():
    # every relation row is a re-rooting difference, 2 w^inf - <w, w> or
    # 2 (v,v)^inf: eta sends it to 0, summed from the images everywhere, and
    # as the forest it names on the smaller cells; the blocks hold as many
    # rows as the whole cells
    rows = 0
    small = {(m, n) for m in range(1, 4) for n in range(5)} | {(5, 2), (2, 6), (2, 5), (1, 8)}
    for m, n in ORACLE_CELLS + [(2, 5), (3, 5), (2, 7)]:
        identity = tuple(range(1, m + 1))
        for block in _blocks(m, n):
            for row in block.relations:
                acc = {}
                for g, c in row:
                    for j, x in block.images[g].items():
                        acc[j] = acc.get(j, 0) + c * x
                assert not any(acc.values())
                if (m, n) in small:
                    assert eta(make_forest(m, block.terms(row, identity)), n).is_zero
                    rows += 1
    assert rows == 1286


def _lie_invariants(m, n):
    """(free rank, torsion) of T_n^inf summed over the blocks, each
    representative counted once per block of its orbit."""
    free, torsion = 0, []
    for size, block, group, *_ in _free_rows(m, n):
        free += size * (len(block.images) - len(group.pivots) - len(group.diag))
        torsion += [d for d in group.diag if d > 1] * size
    return free, sorted(torsion)


def _cell_invariants(m, n):
    lie = twisted_lie(m, n)
    snf = presentation(lie.relations, len(lie.images))
    return len(lie.images) - len(snf.pivots) - len(snf.diag), [d for d in snf.diag if d > 1]


def test_lie_invariants_match_tree_group():
    # x (x) w -> <x, std(w)> and the twists map the Lie presentation onto
    # the tree-indexed T_n^inf; equal invariants make that an isomorphism
    for m, n in ORACLE_CELLS + [(2, 5), (3, 5), (2, 7), (2, 8)]:
        invariants = build_group(m, n, "twisted").invariants()
        assert _lie_invariants(m, n) == _cell_invariants(m, n) == invariants


@pytest.mark.parametrize("m, n", [(2, 11), (2, 12)])
def test_lie_invariants_past_the_table(m, n):
    # past the table's reach: rank m W(m,n+1) - W(m,n+2), the rank of D_n,
    # and the torsion Z/2 (x) L_{(n+2)/4} of CST, none at n = 11 and 12
    rank = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
    assert _lie_invariants(m, n) == (rank, [])


def _mobius(d):
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def _fine_witt(counts):
    """Lyndon words with these label counts a, the fine-graded Witt count
    W(a) = (1/|a|) sum over d | gcd(a) of mu(d) (|a|/d)! / prod_i (a_i/d)!."""
    total, common, out = sum(counts), gcd(*counts), 0
    for d in range(1, common + 1):
        if common % d == 0:
            term = factorial(total // d)
            for c in counts:
                term //= factorial(c // d)
            out += _mobius(d) * term
    return out // total


def block_counts(m, n, content):
    """(rank, torsion) of the block of a content of the twisted T_n^inf, of
    label counts a: the rank of its block of D_n, the sum over x of
    W(a - e_x) less W(a), and the torsion (Z/2)^W(a/4) at n = 2 mod 4 where
    4 | a, else none: CST's Z/2 (x) L_{(n+2)/4}, read by content."""
    counts = [content.count(x) for x in range(1, m + 1)]
    rank = sum(_fine_witt(counts[:x] + [c - 1] + counts[x + 1:])
               for x, c in enumerate(counts) if c) - _fine_witt(counts)
    torsion = []
    if n % 4 == 2 and all(c % 4 == 0 for c in counts):
        torsion = [2] * _fine_witt([c // 4 for c in counts])
    return rank, torsion


def test_every_block_meets_the_witt_and_cst_counts():
    # each block of T_n^inf on Lie coordinates meets `block_counts`
    for m, n in [(3, 4), (2, 6), (3, 5), (3, 6), (3, 7), (2, 8), (2, 10), (4, 6)]:
        blocks = 0
        for block in _blocks(m, n):
            rank, torsion = block_counts(m, n, block.content)
            group = presentation(block.relations, len(block.images))
            assert len(block.images) - len(group.pivots) - len(group.diag) == rank
            assert [d for d in group.diag if d > 1] == torsion
            blocks += 1
        assert blocks == comb(n + m + 1, m - 1)  # every content of n + 2 leaves
def test_eta_order_zero():
    x = eta(parse_forest("+1*<1,2>", 2), 0)
    assert str(x) == "+1*x1 (x) x2 + +1*x2 (x) x1"


def test_eta_order_one_in_kernel():
    x = eta(parse_forest("+1*<(1,2),3>", 3), 1)
    assert len(x.items()) == 3
    assert bracket_map(x).is_zero


def test_eta_image_always_in_kernel():
    for m, n in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        g = table_group(m, n, "twisted")
        for gen in g.generators:
            assert bracket_map(eta_tree(m, n, gen)).is_zero


def test_eta_twisted_half_rule():
    for m, n in [(1, 2), (2, 2)]:
        g = table_group(m, n, "twisted")
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


def test_eta_refuses_labels_past_m():
    # a nonzero bracket of a label past m has no place in L_1 (x) L_{n+1}:
    # eta, eta_k and milnor_from_forest refuse it, framed or twisted
    framed, _ = framed_tree(1, 3)
    cases = [(make_forest(2, [(2, framed)]), 0),
             (make_forest(2, [(1, framed_tree((1, 2), 3)[0])]), 1),
             (make_forest(2, [(1, twisted_tree((1, 3)))]), 2)]
    for forest, n in cases:
        for run in (lambda: eta(forest, n), lambda: eta_k(forest, n, 2),
                    lambda: milnor_from_forest(forest, n)):
            with pytest.raises(NotPrimitiveError) as caught:
                run()
            assert caught.value.tag == "not-primitive"


# order-20 trees on 3 labels, from `random_framed(rng, random_labels(rng, 3, 22))`
# of perfbench's queries at rng = random.Random(5) and Random(7): the first
# is AS-torsion, from its (3,3) branch, the second is not and has 15,519,504
# possible terms (x, w)
TORSION_20 = "+1*<(3,(((2,3),((2,3),(3,3))),3)),((1,(2,1)),((((3,1),(1,(1,(2,(2,(1,2)))))),(3,1)),3))>"
WIDE_20 = "+1*<(2,1),((((2,(((3,1),1),3)),1),(2,3)),(1,((((3,1),1),((1,2),(((2,1),1),1))),(3,2))))>"


def test_eta_tree_answers_torsion_and_refuses_wide_trees_unwalked(monkeypatch):
    def walk(*args):
        raise AssertionError("eta walked the tree")

    monkeypatch.setattr(eta_module, "tree_readings", walk)
    (_, torsion), = parse_forest(TORSION_20, 3).terms
    assert torsion.torsion and eta_tree(3, 20, torsion, 5) == TensorElement.zero(3, 21)
    (_, wide), = parse_forest(WIDE_20, 3).terms
    with pytest.raises(ResourceLimitError, match="15,519,504 terms"):
        eta_tree(3, 20, wide)
    monkeypatch.undo()
    # the CI's order-12 forest, 9,240 possible terms, is answered
    forest = parse_forest("+1*<(2,(2,4)),((((((1,2),(4,1)),(2,(4,2))),4),(2,1)),2)>", 4)
    assert eta(forest, 12) == lie_oracle.eta(forest, 12) != TensorElement.zero(4, 13)


def test_torsion_trees_have_eta_zero():
    # an AS-torsion tree is minus itself, and L_1 (x) L_{n+1} is torsion-free:
    # the re-rooting oracle reads 0 on every one of a seeded sample, which
    # eta_tree answers unwalked; a label past m is still refused
    rng = random.Random(83)
    torsion = 0
    for _ in range(3000):
        m, n = rng.randint(1, 3), rng.randint(0, 7)
        left = rng.randint(1, n + 1)
        tree, _ = framed_tree(_random_labeled(rng, m, left), _random_labeled(rng, m, n + 2 - left))
        if tree.torsion:
            assert lie_oracle.eta_tree(m, n, tree).is_zero and eta_tree(m, n, tree).is_zero
            torsion += 1
    assert torsion > 300
    with pytest.raises(NotPrimitiveError):
        eta_tree(2, 2, framed_tree((3, 3), (1, 2))[0])


def _random_forest(rng, m, n, labels):
    """A forest of one to three order-n terms on labels 1..`labels`,
    twisted ones at even n too."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        if n % 2 == 0 and rng.random() < 0.4:
            terms.append((rng.choice((-3, -1, 1, 2)), twisted_tree(_random_labeled(rng, labels, n // 2 + 1))))
        else:
            left = rng.randint(1, n + 1)
            tree, sign = framed_tree(_random_labeled(rng, labels, left),
                                     _random_labeled(rng, labels, n + 2 - left))
            terms.append((sign * rng.choice((-3, -1, 1, 2)), tree))
    return make_forest(m, terms)


def _verdict(fn, *args):
    try:
        return fn(*args)
    except NotPrimitiveError:
        return "not primitive"


def test_eta_matches_the_leaf_rooting_oracle():
    # the one walk against re-rooting at each leaf and reducing each rest
    # from scratch (`lie_oracle`), on seeded forests with m <= 5, n <= 8,
    # and with a label past m the same verdict
    rng = random.Random(29)
    seen = {"nonzero": 0, "zero": 0, "twisted": 0, "refused": 0}
    for _ in range(600):
        m, n = rng.randint(1, 5), rng.randint(0, 8)
        forest = _random_forest(rng, m, n, m)
        value = eta(forest, n)
        assert value == lie_oracle.eta(forest, n)
        for k in (1, 2, 3):
            assert eta_k(forest, n, k) == lie_oracle.eta_k(forest, n, k)
        seen["nonzero" if value.coeffs else "zero"] += 1
        seen["twisted"] += any(t.kind == "twisted" for _, t in forest.terms)
        past = _random_forest(rng, m, n, m + 1)
        old = _verdict(lie_oracle.eta, past, n)
        assert _verdict(eta, past, n) == old
        seen["refused"] += old == "not primitive"
    assert seen["nonzero"] > 250 and seen["zero"] > 50 and seen["twisted"] > 100
    assert seen["refused"] > 200


def test_relation_rows_map_to_zero():
    for m in (1, 2):
        for n in range(0, 4):
            g = table_group(m, n, "twisted")
            for rel in g.relations:
                terms = [(c, g.generators[i]) for i, c in rel]
                assert eta(make_forest(m, terms), n).is_zero


def test_table_images_match_eta_tree():
    # _old_eta_images reads each generator's image off the framed table's edges;
    # eta_tree, which re-roots the nested shapes at each leaf, is the oracle.
    # A twisted image is half of eta(<J,J>), so twice it must be that exactly
    cells = [(m, n) for m in range(1, 5) for n in range(5)] + [(2, 6), (3, 5), (1, 8)]
    twisted = 0
    for m, n in cells:
        generators = table_group(m, n, "twisted").generators
        images = list(_old_eta_images(m, n, range(len(generators))))
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


def test_eta_refuses_impossible_cells():
    # the blocks refuse a cell of no labels or of negative order, as
    # build_group does, before witt or the Lyndon count reads it
    for call in (lambda: eta_kernel(2, -1), lambda: eta_cokernel_invariants(2, -1),
                 lambda: eta_kernel(0, 2)):
        with pytest.raises(ParameterError, match="m >= 1, n >= 0"):
            call()


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
        f"+1*(({i},{j}),({i},{j}))^inf" for i, j in ((1, 2), (1, 3), (2, 3))
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
            for gen in table_group(m, n, "twisted").generators:
                assert _mirror_eta(m, n, gen) == eta_tree(m, n, gen).scale((-1) ** n)
                checked += 1
    assert checked == 430
