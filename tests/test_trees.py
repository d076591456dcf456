import random
from bisect import bisect_left
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewrite_oracle
from rewrite_oracle import presentations
from table_oracle import (
    MAX_TABLE_ENTRIES,
    _shape_counts,
    framed_generators,
    framed_table,
    shape_ids,
    twisted_generators,
)

from forestcalc import rewrite
from forestcalc.errors import DomainError, ParameterError, ResourceLimitError
from forestcalc.forest import MAX_NESTING
from forestcalc.trees import (
    FRAMED,
    ROOTED,
    DecoratedTree,
    _canon,
    canonical_framed,
    canonical_rooted,
    framed_tree,
    multiplicity,
    rooted_tree,
    tree_stats,
    twisted_tree,
)


def canonicalize_tree(tree: DecoratedTree):
    """Re-canonicalize; idempotent with sign +1 on already-canonical input."""
    if tree.kind == FRAMED:
        return framed_tree(*tree.data)
    if tree.kind == ROOTED:
        return rooted_tree(tree.data)
    return twisted_tree(tree.data), 1


def framed_table_size(m: int, order: int) -> int:
    """The entries of `framed_table(m, order)`, R(order + 2): its keys are the
    unordered pairs of canonical shapes with order + 2 leaves in all, each a
    presentation of one framed tree."""
    return _shape_counts(m, order + 2)[-1]


# readings of the shape ids and the framed table that only the oracles use


def join(ids, a, b):
    """``(id, sign)`` of the pair shape (a, b) of branches given as ``(id, sign)``."""
    (i, si), (j, sj) = a, b
    if i <= j:
        return ids.pair[i * ids.size + j], si * sj
    return ids.pair[j * ids.size + i], -si * sj


def canon(ids, shape):
    """``(id, sign)`` of a nested rooted shape; KeyError if no id names it."""
    if isinstance(shape, int):
        return ids.labels[shape], 1
    return join(ids, canon(ids, shape[0]), canon(ids, shape[1]))


def edges(ids, a: int, b: int) -> list:
    """The 2n+1 edges of the framed tree <a, b> of canonical ids a, b.

    Each edge is ``(x, rest, branches)``: one half is the canonical shape
    x, the other reads as rest = ``(id, sign)``, sign * the canonical
    shape id, and branches holds the ``(id, sign)`` of the other half's
    two branches in that reading, or None when it is a leaf.  Walking
    from <a, b>, the branches of each other half are canonical shapes or
    halves already read, so every edge costs one `join`.
    """
    kids = ids.kids
    out = [(a, (b, 1), kids[b] and ((kids[b][0], 1), (kids[b][1], 1)))]
    # pair vertices (canonical shape ids) and how the rest of the tree reads from each
    stack = [(v, (w, 1)) for v, w in ((a, b), (b, a)) if kids[v]]
    while stack:
        v, rest = stack.pop()
        x, y = kids[v]
        # the cyclic order at v is (x, y, rest): from x the tree reads
        # (y, rest), from y it reads (rest, x)
        for half, branches in ((x, ((y, 1), rest)), (y, (rest, (x, 1)))):
            other = join(ids, *branches)
            out.append((half, other, branches))
            if kids[half]:
                stack.append((half, other))
    return out


def term(table, a: int, sa: int, b: int, sb: int):
    """``(index, sign)`` with <sa * a, sb * b> = sign * table.trees[index]."""
    size = table.ids.size
    index, sign = table.entries[a * size + b if a <= b else b * size + a]
    return index, 1 if table.torsion[index] else sign * sa * sb


def test_framed_halves_order_without_sign():
    tree, sign = framed_tree(2, 1)
    assert str(tree) == "<1,2>"
    assert sign == 1
    assert not tree.torsion


def test_framed_one_swap_flips_sign():
    tree, sign = framed_tree((2, 1), 3)
    assert str(tree) == "<(1,2),3>"
    assert sign == -1


def test_symmetric_tree_is_torsion():
    tree, sign = framed_tree((1, 1), 1)
    assert str(tree) == "<(1,1),1>"
    assert sign == 1
    assert tree.torsion


def test_repeated_label_pair_is_torsion():
    # swapping the vertex and exchanging the two equal leaves negates the tree
    tree, _ = framed_tree((1, 2), 2)
    assert tree.torsion


def test_distinct_labels_not_torsion():
    tree, _ = framed_tree((1, 2), 3)
    assert not tree.torsion


def test_cyclic_presentations_agree():
    trees = [framed_tree(a, b) for a, b in [(1, (2, 3)), (2, (3, 1)), (3, (1, 2))]]
    assert len({(t.data, s) for t, s in trees}) == 1


def test_canonicalize_idempotent():
    for m, order in [(2, 2), (3, 1)]:
        for tree in framed_generators(m, order) + twisted_generators(m, order):
            again, sign = canonicalize_tree(tree)
            assert again == tree
            assert sign == 1


def _random_shape(rng, m, order):
    if order == 0:
        return rng.randint(1, m)
    left = rng.randint(0, order - 1)
    return (_random_shape(rng, m, left), _random_shape(rng, m, order - 1 - left))


def _random_swaps(rng, shape, nswaps):
    """Apply vertex swaps at random positions, tracking the AS sign."""
    sign = 1
    for _ in range(nswaps):
        shape, s = _swap_somewhere(rng, shape)
        sign *= s
    return shape, sign


def _swap_somewhere(rng, shape):
    if isinstance(shape, int):
        return shape, 1
    a, b = shape
    pick = rng.random()
    if pick < 0.5:
        return (b, a), -1
    if pick < 0.75:
        a, s = _swap_somewhere(rng, a)
        return (a, b), s
    b, s = _swap_somewhere(rng, b)
    return (a, b), s


def test_swap_orbit_canonical_consistency():
    rng = random.Random(7)
    for _ in range(300):
        order = rng.randint(0, 3)
        shape = _random_shape(rng, 3, order)
        canon, sign, amb = canonical_rooted(shape)
        swapped, orbit_sign = _random_swaps(rng, shape, rng.randint(1, 4))
        canon2, sign2, amb2 = canonical_rooted(swapped)
        assert canon == canon2
        assert amb == amb2
        if not amb:
            assert sign2 == sign * orbit_sign


def test_framed_swap_orbit_consistency():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_shape(rng, 3, rng.randint(0, 2))
        b = _random_shape(rng, 3, rng.randint(0, 2))
        t1, s1 = framed_tree(a, b)
        a2, sa = _random_swaps(rng, a, rng.randint(1, 3))
        b2, sb = _random_swaps(rng, b, rng.randint(1, 3))
        t2, s2 = framed_tree(a2, b2)
        assert t1 == t2
        if not t1.torsion:
            assert s2 == s1 * sa * sb


def test_stats_framed():
    tree, _ = framed_tree((1, 2), 2)
    st = tree_stats(tree)
    assert (st.order, st.degree) == (1, 2)
    assert st.r == {1: 1, 2: 2}
    assert st.r_max == 2
    assert not st.mono_labeled


def test_stats_twisted_doubles():
    st = tree_stats(twisted_tree((1, 2)))
    assert st.order == 1
    assert st.r == {1: 2, 2: 2}
    assert st.r_max == 2


def test_stats_order_zero():
    tree, _ = framed_tree(1, 2)
    st = tree_stats(tree)
    assert (st.order, st.degree, st.r_max) == (0, 1, 1)


def test_generator_counts():
    assert [str(t) for t in framed_generators(2, 0)] == ["<1,1>", "<1,2>", "<2,2>"]
    assert [str(t) for t in framed_generators(1, 1)] == ["<(1,1),1>"]
    assert [str(t) for t in twisted_generators(2, 1)] == [
        "(1,1)^inf",
        "(1,2)^inf",
        "(2,2)^inf",
    ]
    assert len(twisted_generators(2, 2)) == 6


def test_multiplicity_filter_values():
    gens = [t for t in framed_generators(2, 0) if multiplicity(t) <= 1]
    assert [str(t) for t in gens] == ["<1,2>"]


# ---------------------------------------------------------------------------
# oracle: the raw enumeration and recursive-key canonicalization that the
# library used before it enumerated canonical halves


@lru_cache(maxsize=None)
def rooted_shapes(m, order):
    """All labeled rooted shapes of the given order (raw, not canonical)."""
    if order == 0:
        return tuple(range(1, m + 1))
    out = []
    for left_order in range(order):
        for left in rooted_shapes(m, left_order):
            for right in rooted_shapes(m, order - 1 - left_order):
                out.append((left, right))
    return tuple(out)


def _old_shape_key(shape):
    if isinstance(shape, int):
        return (1, shape)
    return (0, _old_shape_key(shape[0]), _old_shape_key(shape[1]))


def _old_canonical_rooted(shape):
    if isinstance(shape, int):
        return shape, 1, False
    a, sa, amb_a = _old_canonical_rooted(shape[0])
    b, sb, amb_b = _old_canonical_rooted(shape[1])
    sign = sa * sb
    amb = amb_a or amb_b or a == b
    if _old_shape_key(b) < _old_shape_key(a):
        a, b = b, a
        sign = -sign
    return (a, b), sign, amb


def _old_presentations(half_a, half_b):
    """Every presentation the walk reaches, in its order, some edges both ways."""
    seen = set()
    stack = [(half_a, half_b)]
    out = []
    while stack:
        pres = stack.pop()
        if pres in seen:
            continue
        seen.add(pres)
        out.append(pres)
        a, b = pres
        if isinstance(a, tuple):
            stack.append((a[0], (a[1], b)))
            stack.append((a[1], (b, a[0])))
        if isinstance(b, tuple):
            stack.append((b[0], (b[1], a)))
            stack.append((b[1], (a, b[0])))
    return out


def _old_framed_pass(half_a, half_b):
    """(pair, sign, torsion, reads): minimum over every edge presentation,
    and the (canonical halves ordered by key, sign) each presentation reads."""
    best_key = None
    signs = set()
    reads = []
    for p, q in _old_presentations(half_a, half_b):
        cp, sp, amb_p = _old_canonical_rooted(p)
        cq, sq, amb_q = _old_canonical_rooted(q)
        if _old_shape_key(cq) < _old_shape_key(cp):
            cp, cq = cq, cp
        key = (_old_shape_key(cp), _old_shape_key(cq))
        reads.append(((cp, cq), sp * sq))
        pres_signs = {sp * sq, -sp * sq} if (amb_p or amb_q) else {sp * sq}
        if best_key is None or key < best_key:
            best_key, best_pair, signs = key, (cp, cq), set(pres_signs)
        elif key == best_key:
            signs |= pres_signs
    torsion = len(signs) == 2
    return best_pair, 1 if torsion else signs.pop(), torsion, reads


def _old_canonical_framed(half_a, half_b):
    """(pair, sign, torsion): minimum over every edge presentation."""
    pair, sign, torsion, _ = _old_framed_pass(half_a, half_b)
    return pair, sign, torsion


@lru_cache(maxsize=None)
def _old_canonical_shapes(m, order):
    """AS-canonical rooted shapes as (shape, key) pairs sorted by key, each
    built from canonical halves with the left key not above the right one."""
    if order == 0:
        return tuple((label, (1, label)) for label in range(1, m + 1))
    out = []
    for left_order in range(order):
        for a, ka in _old_canonical_shapes(m, left_order):
            for b, kb in _old_canonical_shapes(m, order - 1 - left_order):
                if ka <= kb:
                    out.append(((a, b), (0, ka, kb)))
    return tuple(sorted(out, key=lambda sk: sk[1]))


def _old_framed_table(m, order):
    """The nested-tuple presentation table: canonical halves ordered by key
    -> (tree, sign), one `_old_framed_pass` per tree."""
    table = {}
    for left_order in range(order // 2 + 1):
        for left, kl in _old_canonical_shapes(m, left_order):
            for right, kr in _old_canonical_shapes(m, order - left_order):
                if ((left, right) if kl <= kr else (right, left)) in table:
                    continue
                pair, sign, torsion, reads = _old_framed_pass(left, right)
                tree = DecoratedTree(FRAMED, pair, torsion)
                for halves, read_sign in reads:
                    table[halves] = (tree, 1 if torsion else read_sign * sign)
    return table


def _old_generators(m, order):
    """Sorted (kind, data, torsion) of the framed and twisted generators."""
    framed = {}
    for left_order in range(order // 2 + 1):
        for left in rooted_shapes(m, left_order):
            for right in rooted_shapes(m, order - left_order):
                pair, _, torsion = _old_canonical_framed(left, right)
                framed[pair] = torsion
    twisted = {_old_canonical_rooted(shape)[0] for shape in rooted_shapes(m, order)}
    framed_out = [
        ("framed", pair, framed[pair])
        for pair in sorted(framed, key=lambda p: (_old_shape_key(p[0]), _old_shape_key(p[1])))
    ]
    twisted_out = [("twisted", shape, False) for shape in sorted(twisted, key=_old_shape_key)]
    return framed_out, twisted_out


def test_rooted_shape_counts():
    # Catalan(order) * m^(order+1) raw shapes
    assert len(rooted_shapes(2, 0)) == 2
    assert len(rooted_shapes(2, 1)) == 4
    assert len(rooted_shapes(2, 2)) == 16


def _tuples(trees):
    return [(t.kind, t.data, t.torsion) for t in trees]


GENERATOR_CELLS = [(m, n) for m in (1, 2, 3) for n in range(5)] + [(2, 5), (1, 6), (1, 7), (1, 8)]


@pytest.mark.parametrize("m,order", GENERATOR_CELLS)
def test_generators_match_raw_enumeration(m, order):
    framed, twisted = _old_generators(m, order)
    assert _tuples(framed_generators(m, order)) == framed
    assert _tuples(twisted_generators(m, order)) == twisted


@pytest.mark.parametrize("m,order", [(2, 4), (3, 3), (1, 6)])
def test_framed_tree_matches_old_canonical_framed(m, order):
    table = framed_table(m, order)
    torsion_seen = False
    for left_order in range(order + 1):
        for a in rooted_shapes(m, left_order):
            for b in rooted_shapes(m, order - left_order):
                pair, sign, torsion = _old_canonical_framed(a, b)
                expected = (DecoratedTree("framed", pair, torsion), sign)
                assert framed_tree(a, b) == expected
                index, sign = term(table, *canon(table.ids, a), *canon(table.ids, b))
                assert (table.trees[index], sign) == expected
                torsion_seen |= torsion
    assert torsion_seen


def _pair_loop_generators(m, order):
    """The framed generators as enumerated before the presentation table:
    canonicalize every pair of canonical halves A, B with
    order(A) <= order(B)."""
    seen = {}
    for left_order in range(order // 2 + 1):
        for left, _ in _old_canonical_shapes(m, left_order):
            for right, _ in _old_canonical_shapes(m, order - left_order):
                pair, _, torsion = canonical_framed(left, right)
                seen[pair] = DecoratedTree(FRAMED, pair, torsion)
    return tuple(sorted(seen.values(), key=DecoratedTree.sort_key))


@pytest.mark.parametrize("m,order", [(3, 4), (2, 6), (4, 3), (1, 8)])
def test_framed_generators_match_pair_loop(m, order):
    assert framed_generators(m, order) == _pair_loop_generators(m, order)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_shape_ids_follow_key_order(m):
    # ids number the canonical shapes of orders 0..5 in key order, and a pair
    # of ids canonicalizes as the recursive-key oracle does
    ids = shape_ids(m, 5)
    shapes = sorted(
        (shape for k in range(6) for shape, _ in _old_canonical_shapes(m, k)),
        key=_old_shape_key,
    )
    assert list(ids.shapes) == shapes
    for k in range(6):
        assert [ids.shapes[i] for i in ids.by_order[k]] == [s for s, _ in _old_canonical_shapes(m, k)]
    for a, shape_a in enumerate(ids.shapes):
        for b, shape_b in enumerate(ids.shapes):
            if ids.orders[a] + ids.orders[b] >= 5:
                continue
            shape, sign, amb = _old_canonical_rooted((shape_a, shape_b))
            i, s = join(ids, (a, 1), (b, -1))
            assert (ids.shapes[i], s) == (shape, -sign)
            assert (a == b or ids.ambiguous[a] or ids.ambiguous[b]) == amb == ids.ambiguous[i]


def test_shape_ids_canon_matches_oracle():
    rng = random.Random(5)
    ids = shape_ids(3, 4)
    for _ in range(300):
        shape = _random_shape(rng, 3, rng.randint(0, 4))
        expected, sign, _ = _old_canonical_rooted(shape)
        i, s = canon(ids, shape)
        assert (ids.shapes[i], s) == (expected, sign)
    with pytest.raises(KeyError):
        canon(ids, (1, 4))  # label above m
    with pytest.raises(KeyError):
        canon(ids, _random_shape(rng, 3, 5))  # order above the table's


@pytest.mark.parametrize("m,order", [(2, 5), (4, 3), (3, 4), (1, 8)])
def test_framed_table_matches_nested_table(m, order):
    # the id table holds exactly the old table's entries, read back as shapes
    table = framed_table(m, order)
    shapes = table.ids.shapes
    read = {
        (shapes[lo], shapes[hi]): (table.trees[index], sign)
        for (lo, hi), (index, sign) in (
            (divmod(code, table.ids.size), entry) for code, entry in table.entries.items()
        )
    }
    assert read == _old_framed_table(m, order)
    assert [(shapes[lo], shapes[hi]) for lo, hi in table.halves] == [t.data for t in table.trees]
    assert list(table.torsion) == [t.torsion for t in table.trees]


# oracle: the framed table as it was built over tuple keys, each tree's
# presentations read from `edges` into a list and its signs at the
# canonical presentation into a set


def _tuple_framed_table(m, order):
    """(entries, halves, torsion, trees), entries keyed by the (lo, hi) id
    pair of every presentation."""
    ids = shape_ids(m, order)
    entries = {}
    halves = []
    torsion = []
    for lo, o in enumerate(ids.orders):
        rights = ids.by_order[order - o]
        for hi in rights[bisect_left(rights, lo):]:
            if (lo, hi) in entries:
                continue
            reads = []
            signs = set()
            for p, (q, sign), _ in edges(ids, lo, hi):
                key = (p, q) if p <= q else (q, p)
                reads.append((key, sign))
                if key == (lo, hi):
                    signs.add(sign)
                    if ids.ambiguous[p] or ids.ambiguous[q]:
                        signs.add(-sign)
            index = len(halves)
            halves.append((lo, hi))
            torsion.append(len(signs) == 2)
            plus = (index, 1)
            minus = plus if torsion[index] else (index, -1)
            for key, sign in reads:
                entries[key] = plus if sign > 0 else minus
    trees = tuple(
        DecoratedTree(FRAMED, (ids.shapes[lo], ids.shapes[hi]), t)
        for (lo, hi), t in zip(halves, torsion)
    )
    return entries, tuple(halves), tuple(torsion), trees


@pytest.mark.parametrize(
    "m,order",
    [(m, n) for m in range(1, 5) for n in range(6)] + [(1, 8), (5, 2), (2, 7), (1, 9)],
)
def test_framed_table_matches_tuple_table(m, order):
    table = framed_table(m, order)
    entries, halves, torsion, trees = _tuple_framed_table(m, order)
    assert {divmod(code, table.ids.size): entry for code, entry in table.entries.items()} == entries
    assert len(table.entries) == len(entries)
    assert table.halves == halves
    assert table.torsion == torsion
    assert table.trees == trees


def test_validate_rejects_bad_labels():
    with pytest.raises(ParameterError):
        framed_tree(0, 1)


# every framed table the tests build
TABLE_CELLS = sorted(
    {(m, n) for m, top in ((1, 9), (2, 9), (3, 6), (4, 5)) for n in range(top + 1)}
    | {(5, 2)}
)


@pytest.mark.parametrize("m,n", TABLE_CELLS)
def test_table_size_estimate(m, n):
    assert framed_table_size(m, n) == len(framed_table(m, n).entries)


def test_table_budget():
    # sizes measured on the built tables: the last two still run, (3,9) does not
    assert [framed_table_size(m, n) for m, n in ((4, 6), (3, 8), (5, 6), (2, 11), (3, 9))] == [
        366_680, 1_282_824, 1_979_385, 1_964_718, 7_178_598]
    assert framed_table_size(2, 11) < framed_table_size(5, 6) < MAX_TABLE_ENTRIES
    for m, n in ((3, 9), (200, 1), (1, 10**6), (10**6, 0)):
        with pytest.raises(ResourceLimitError):
            framed_table(m, n)


# ---------------------------------------------------------------------------
# oracle: the framed canonical form as it was, canonicalizing both halves of
# every presentation from scratch


def _presentation_canonical_framed(half_a, half_b):
    best_key = None
    signs = set()
    for p, q in presentations(half_a, half_b):
        cp, kp, sp, amb_p, _ = _canon(p)
        cq, kq, sq, amb_q, _ = _canon(q)
        if kq < kp:
            cp, cq, kp, kq = cq, cp, kq, kp
        key = (kp, kq)
        pres_signs = {sp * sq, -sp * sq} if (amb_p or amb_q) else {sp * sq}
        if best_key is None or key < best_key:
            best_key, best_pair, signs = key, (cp, cq), set(pres_signs)
        elif key == best_key:
            signs |= pres_signs
    torsion = len(signs) == 2
    return best_pair, 1 if torsion else signs.pop(), torsion


def _scrambled(rng, a, b):
    """<a, b> re-presented at a random edge, with random AS swaps."""
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            a, b = b, a
        if isinstance(a, tuple):
            a, b = (a[0], (a[1], b)) if rng.random() < 0.5 else (a[1], (b, a[0]))

    def swap(shape):
        if isinstance(shape, int):
            return shape
        left, right = swap(shape[0]), swap(shape[1])
        return (right, left) if rng.random() < 0.5 else (left, right)

    return swap(a), swap(b)


def test_canonical_framed_matches_presentations_on_the_generator_grid():
    # every framed tree of the generator cells, from its canonical halves and
    # from a scrambled presentation
    rng = random.Random(7)
    for m, n in GENERATOR_CELLS + [(4, 3), (2, 6), (1, 9)]:
        for tree in framed_table(m, n).trees:
            for a, b in (tree.data, _scrambled(rng, *tree.data)):
                assert canonical_framed(a, b) == _presentation_canonical_framed(a, b)


def _distinct_labels(order):
    """A framed tree of the given order whose leaves are labeled 1, 2, ..."""
    labels = iter(range(1, order + 3))

    def shape(leaves):
        if leaves == 1:
            return next(labels)
        return (shape(leaves // 2), shape(leaves - leaves // 2))

    return shape((order + 2) // 2), shape(order + 2 - (order + 2) // 2)


def _collapses(rewrite, pairs, m):
    """collapse_framed_edge at each label 1..m of each framed tree, or its error."""
    out = []
    for pair in pairs:
        tree = framed_tree(*pair)[0]
        for label in range(1, m + 1):
            try:
                out.append(rewrite.collapse_framed_edge(1, tree, label))
            except DomainError as exc:
                out.append(str(exc))
    return out


def test_presentations_one_per_edge(monkeypatch):
    # the walk used to give <((1,2),3),(4,5)> 9 presentations, some edges
    # both ways; the oracle's gives each of the 2n + 1 edges once, in the
    # orientation and order the old walk reached it first, so every collapse
    # is unchanged, and so is that of `rewrite`'s edge walk
    assert len(_old_presentations(((1, 2), 3), (4, 5))) == 9
    assert len(presentations(((1, 2), 3), (4, 5))) == 7
    for order in range(12):
        assert len(presentations(*_distinct_labels(order))) == 2 * order + 1
    pairs = [t.data for m, n in GENERATOR_CELLS for t in framed_table(m, n).trees]
    for pair in pairs:
        old = _old_presentations(*pair)
        assert presentations(*pair) == [
            (p, q) for i, (p, q) in enumerate(old) if (q, p) not in old[:i]]
    collapses = _collapses(rewrite_oracle, pairs, 3)
    assert collapses == _collapses(rewrite, pairs, 3)
    monkeypatch.setattr(rewrite_oracle, "presentations", _old_presentations)
    assert collapses == _collapses(rewrite_oracle, pairs, 3)


@st.composite
def _random_framed(draw):
    """A framed tree of up to MAX_NESTING trivalent vertices on 1..m."""
    rng = draw(st.randoms(use_true_random=False))
    m, order = draw(st.integers(1, 4)), draw(st.integers(0, MAX_NESTING))

    def shape(leaves):
        if leaves == 1:
            return rng.randint(1, m)
        left = rng.randint(1, leaves - 1)
        return (shape(left), shape(leaves - left))

    left = rng.randint(1, order + 1)
    return shape(left), shape(order + 2 - left)


@settings(max_examples=60, deadline=None)
@given(_random_framed())
def test_canonical_framed_matches_presentations_on_random_shapes(pair):
    assert canonical_framed(*pair) == _presentation_canonical_framed(*pair)
