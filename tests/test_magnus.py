from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestcalc import magnus
from forestcalc.errors import (
    BracketNonzeroError,
    DomainError,
    NotPrimitiveError,
    ParameterError,
    ParseError,
)
from forestcalc.eta import milnor_from_forest
from forestcalc.forest import parse_forest
from forestcalc.freelie import (
    TensorElement,
    bracket_map,
    k_project_lie,
    k_project_tensor,
    tensor_of,
    tensor_to_lie,
    word_multiplicity,
)
from forestcalc.magnus import (
    AllVanishing,
    LongitudeData,
    MilnorResult,
    _free_reduce,
    _walk,
    milnor_from_longitudes,
    parse_longitudes,
    parse_word,
)


# -- the old expansion, kept as the oracle ------------------------------------


class MagnusSeries:
    """Noncommutative power series over Z, truncated beyond a fixed degree."""

    __slots__ = ("m", "trunc", "coeffs")

    def __init__(self, m, trunc, coeffs=None):
        self.m = m
        self.trunc = trunc
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def one(m, trunc):
        return MagnusSeries(m, trunc, {(): 1})

    @staticmethod
    def generator(m, trunc, i, inverse=False):
        """Image of x_i (or x_i^-1) under the expansion."""
        if inverse:
            # (1 + X)^-1 = 1 - X + X^2 - ...
            coeffs = {
                tuple([i] * d): (-1) ** d for d in range(trunc + 1)
            }
            return MagnusSeries(m, trunc, coeffs)
        return MagnusSeries(m, trunc, {(): 1, (i,): 1})

    def __mul__(self, other):
        acc = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                if len(wa) + len(wb) > self.trunc:
                    continue
                w = wa + wb
                acc[w] = acc.get(w, 0) + ca * cb
        return MagnusSeries(self.m, self.trunc, {w: c for w, c in acc.items() if c})

    def homogeneous(self, degree) -> dict:
        return {w: c for w, c in self.coeffs.items() if len(w) == degree and c}

    def coefficient(self, word) -> int:
        return self.coeffs.get(tuple(word), 0)


def _old_magnus_expand(word, m: int, trunc: int) -> MagnusSeries:
    out = MagnusSeries.one(m, trunc)
    for i, inverse in word:
        out = out * MagnusSeries.generator(m, trunc, i, inverse)
    return out


def _old_milnor_from_longitudes(data: LongitudeData, cap: int = 8, k=None) -> MilnorResult:
    """The scan as it was: every longitude expanded again, unreduced, at each order."""
    if cap < 0:
        raise ParameterError("cap must be >= 0")
    m = data.m
    for n in range(cap + 1):
        trunc = n + 2
        words = dict(data.longitudes)
        series = [_old_magnus_expand(words.get(i, ()), m, trunc) for i in range(1, m + 1)]
        degree = n + 1
        parts = []
        found = False
        for i, s in enumerate(series, start=1):
            part = s.homogeneous(degree)
            if k is not None:
                part = {
                    w: c for w, c in part.items()
                    if word_multiplicity(w + (i,)) <= k
                }
            parts.append(part)
            if part:
                found = True
        if not found:
            continue
        value = TensorElement.zero(m, degree)
        table = []
        for i, part in enumerate(parts, start=1):
            if not part:
                continue
            try:
                lie = tensor_to_lie(m, degree, part)
            except NotPrimitiveError:
                raise DomainError(
                    f"longitude l{i} is not primitive at degree {degree}"
                ) from None
            value = value + tensor_of(i, lie)
            for w in sorted(part):
                table.append((w, i, part[w]))
        check = bracket_map(value)
        if k is not None:
            check = k_project_lie(check, k)
        if not check.is_zero:
            raise BracketNonzeroError(
                "longitude invariant escapes the bracket kernel"
            )
        if k is not None:
            value = k_project_tensor(value, k)
        return MilnorResult(n, value, tuple(table))
    raise AllVanishing(cap)


HOPF = "m = 2\nl1: x2\nl2: x1\n"
BORROMEAN = (
    "m = 3\n"
    "l1: x2 x3 X2 X3\n"
    "l2: x3 x1 X3 X1\n"
    "l3: x1 x2 X1 X2\n"
)
# l1 = [x2,[x1,x2]], l2 = [[x1,x2],x1]: the cycle condition
# [x1,l1] + [x2,l2] = 0 holds by Jacobi, first contribution at degree 3
WHITEHEAD = (
    "m = 2\n"
    "l1: x2 x1 x2 X1 X2 X2 x2 x1 X2 X1\n"
    "l2: x1 x2 X1 X2 x1 x2 x1 X2 X1 X1\n"
)


def _old_walk(word, degree: int, m: int) -> list:
    """The walk as it was: parts P_0..P_degree keyed by monomial ints, zeros dropped.

    One dict entry per monomial is updated per letter; a monomial is an int,
    the first letter least significant in base m.
    """
    parts = [{0: 1}] + [{} for _ in range(degree)]
    powers = [0] + [m ** (d - 1) for d in range(1, degree + 1)]
    for i, inverse in word:
        offset = [(i - 1) * p for p in powers]
        sign = -1 if inverse else 1
        for d in range(1, degree + 1) if inverse else range(degree, 0, -1):
            target, step = parts[d], offset[d]
            for w, c in parts[d - 1].items():
                w += step
                c = target.get(w, 0) + sign * c
                if c:
                    target[w] = c
                else:
                    del target[w]
    return parts


def _old_decode(part: dict, degree: int, m: int) -> dict:
    """A part of `_old_walk` keyed by letter tuples (i_1, ..., i_degree)."""
    out = {}
    for key, c in part.items():
        word = []
        for _ in range(degree):
            key, r = divmod(key, m)
            word.append(r + 1)
        out[tuple(word)] = c
    return out


def _parts(word, degree):
    """The walk's parts P_0..P_degree, keyed by letter tuples."""
    walk = _walk(word, degree)
    return [walk.read(d) for d in range(degree + 1)]


def test_word_parsing():
    assert parse_word("x1 X2 x1", 2) == [(1, False), (2, True), (1, False)]
    with pytest.raises(ParseError):
        parse_word("x1 y2", 2)
    with pytest.raises(ParseError):
        parse_word("x3", 2)


def test_word_parsing_with_a_shared_memo():
    memo = {}
    assert parse_word("x1 X2 x1", 2, memo) == [(1, False), (2, True), (1, False)]
    assert parse_word("X2 x01 x1", 2, memo) == [(2, True), (1, False), (1, False)]
    for text, message in [
        ("x1 X2 y2", "bad letter 'y2' (at position 2)"),
        ("X2 x1 x3", "letter index 3 out of range 1..2 (at position 2)"),
    ]:
        for shared in (memo, None):
            with pytest.raises(ParseError) as exc:
                parse_word(text, 2, shared)
            assert str(exc.value) == message


def test_longitude_file_parsing():
    data = parse_longitudes(HOPF)
    assert data.m == 2
    assert data.longitudes == ((1, ((2, False),)), (2, ((1, False),)))
    with pytest.raises(ParseError):
        parse_longitudes("l1: x1\n")
    with pytest.raises(ParseError):
        parse_longitudes("m = 2\nl1: x1\nl1: x2\n")


def test_inverse_cancellation():
    word = parse_word("x1 X1", 2)
    s = _old_magnus_expand(word, 2, 4)
    assert s.coeffs == {(): 1}
    assert _parts(word, 4) == [{(): 1}, {}, {}, {}, {}]


def test_truncation():
    s = _old_magnus_expand(parse_word("x1 x1 x1", 1), 1, 2)
    assert max(len(w) for w in s.coeffs) <= 2
    assert s.coefficient((1, 1)) == 3
    assert _parts(parse_word("x1 x1 x1", 1), 2)[2] == {(1, 1): 3}


def test_geometric_series_inverse():
    s = MagnusSeries.generator(2, 3, 1, inverse=True)
    assert s.coefficient(()) == 1
    assert s.coefficient((1,)) == -1
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((1, 1, 1)) == -1
    assert _parts([(1, True)], 3) == [{(1,) * d: (-1) ** d} for d in range(4)]


def test_hopf_matches_forest():
    result = milnor_from_longitudes(parse_longitudes(HOPF))
    assert result.order == 0
    assert result.value == milnor_from_forest(parse_forest("+1*<1,2>", 2), 0)


def test_borromean():
    result = milnor_from_longitudes(parse_longitudes(BORROMEAN))
    assert result.order == 1
    coeffs = dict(((w, i), c) for w, i, c in result.table)
    assert coeffs[((1, 2), 3)] == 1
    assert all(c in (-1, 0, 1) for c in coeffs.values())


def test_unlink_vanishes():
    with pytest.raises(AllVanishing):
        milnor_from_longitudes(parse_longitudes("m = 2\nl1:\nl2:\n"), cap=3)


def test_k_filtered_longitudes():
    # the only order-0 term repeats index 1, so the 1-repeating part vanishes
    data = parse_longitudes("m = 1\nl1: x1\n")
    full = milnor_from_longitudes(data)
    assert full.order == 0
    with pytest.raises(AllVanishing):
        milnor_from_longitudes(data, cap=4, k=1)


def test_whitehead_style_longitudes():
    data = parse_longitudes(WHITEHEAD)
    result = milnor_from_longitudes(data)
    assert result.order == 2
    coeffs = dict(((w, i), c) for w, i, c in result.table)
    assert coeffs.get(((1, 1, 2), 2), 0) != 0 or coeffs.get(((1, 2, 2), 1), 0) != 0


# -- the degree-by-degree expansion against the old one -----------------------


def _inverse(word):
    return tuple((i, not inverse) for i, inverse in reversed(word))


def _short(m):
    return st.lists(st.tuples(st.integers(1, m), st.booleans()), max_size=4).map(tuple)


@st.composite
def _words(draw, m, max_len=40):
    """Words built from letters, commutators [a,b] and conjugates a b a^-1.

    Commutators and conjugates make the low-degree parts cancel, so the scan
    reaches higher orders; the pieces meet unreduced, so free cancellation
    occurs too.
    """
    short = _short(m)
    pieces = draw(st.lists(
        st.one_of(
            short,
            st.tuples(short, short).map(lambda ab: ab[0] + ab[1] + _inverse(ab[0]) + _inverse(ab[1])),
            st.tuples(short, short).map(lambda ab: ab[0] + ab[1] + _inverse(ab[0])),
        ),
        max_size=8,
    ))
    return sum(pieces, ())[:max_len]


@st.composite
def _random_longitudes(draw):
    m = draw(st.integers(1, 4))
    return LongitudeData(m, tuple((i, draw(_words(m))) for i in range(1, m + 1)))


@st.composite
def _padded_links(draw):
    """Hopf, Borromean or Whitehead longitudes with pieces u u^-1 inserted.

    These are consistent, so the scan ends at order 0, 1 or 2 with a value,
    unless k filters it away.
    """
    data = parse_longitudes(draw(st.sampled_from([HOPF, BORROMEAN, WHITEHEAD])))
    words = []
    for i, word in data.longitudes:
        word = list(word)
        for _ in range(draw(st.integers(0, 3))):
            u = draw(_short(data.m))
            pos = draw(st.integers(0, len(word)))
            word[pos:pos] = u + _inverse(u)
        words.append((i, tuple(word)))
    return LongitudeData(data.m, tuple(words))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), _words(m))),
       st.integers(0, 6))
def test_degree_part_matches_old_expansion(mw, degree):
    m, word = mw
    old = _old_magnus_expand(word, m, degree)
    assert _parts(word, degree) == [old.homogeneous(d) for d in range(degree + 1)]


def _outcome(scan, data, cap, k):
    try:
        result = scan(data, cap=cap, k=k)
    except (AllVanishing, BracketNonzeroError, DomainError) as exc:
        return type(exc), str(exc)
    return result.order, result.value, result.table


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(_random_longitudes(), _padded_links()),
    st.sampled_from([None, 1, 2, 3]),
    st.integers(0, 3),
)
def test_milnor_matches_old_scan(data, k, cap):
    assert _outcome(milnor_from_longitudes, data, cap, k) == _outcome(
        _old_milnor_from_longitudes, data, cap, k
    )


# -- the fingerprint decides only how far to walk -----------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), _words(m, max_len=12))))
def test_fingerprint_is_the_part_at_the_points(mw):
    # nine levels pass the reduction of the running sums at level 8
    m, word = mw
    p = (1 << 61) - 1
    fingerprints = magnus._fingerprints(word, {})
    for d, part in enumerate(_parts(word, 9)[1:], start=1):
        at_points = 0
        for w, c in part.items():
            for j, i in enumerate(w, start=1):
                c *= magnus._point(j, i)
            at_points += c
        assert next(fingerprints) == at_points % p


def _no_fingerprint(word, points):
    """Every fingerprint reads zero, so every scan walks to cap + 1."""
    while True:
        yield 0


def _every_fingerprint(word, points):
    """Every fingerprint reads nonzero, so every walk stops at the least degree left."""
    while True:
        yield 1


@pytest.mark.parametrize("fingerprints", [_no_fingerprint, _every_fingerprint])
@settings(max_examples=60, deadline=None)
@given(
    data=st.one_of(_random_longitudes(), _padded_links()),
    k=st.sampled_from([None, 1, 2, 3]),
    cap=st.integers(0, 3),
)
def test_milnor_exact_whatever_the_fingerprint(fingerprints, data, k, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magnus, "_fingerprints", fingerprints)
        outcome = _outcome(milnor_from_longitudes, data, cap, k)
    assert outcome == _outcome(_old_milnor_from_longitudes, data, cap, k)


def _commutator_word(shape):
    """Iterated group commutator of a rooted shape, [u, v] = u v u^-1 v^-1."""
    if isinstance(shape, int):
        return ((shape, False),)
    u, v = _commutator_word(shape[0]), _commutator_word(shape[1])
    return u + v + _inverse(u) + _inverse(v)


def _rootings(shape, outside):
    """(label, rest of the tree read from that leaf) for each leaf of `shape`."""
    if isinstance(shape, int):
        return [(shape, outside)]
    left, right = shape
    return _rootings(left, (right, outside)) + _rootings(right, (outside, left))


def _forest_longitudes(m, trees):
    """Longitudes of clasper surgery along framed trees <A, B>, coefficients +1.

    Each leaf adds the commutator of the rest of its tree to the longitude
    of its label, so the expansion is 1 + eta of the forest + higher terms.
    """
    words = [()] * m
    for a, b in trees:
        for label, rest in _rootings(a, b) + _rootings(b, a):
            words[label - 1] += _commutator_word(rest)
    return LongitudeData(m, tuple(enumerate(words, start=1)))


def _forest_text(trees):
    return " + ".join(f"+1*<{a},{b}>".replace(" ", "") for a, b in trees)


# (m, order, framed trees <A, B>) with distinct labels per tree; m = 5 at
# order 2 leaves l5 empty
FORESTS = [
    (4, 2, [((1, 2), (3, 4))]),
    (5, 2, [((1, 2), (3, 4)), ((1, 3), (2, 4))]),
    (5, 3, [(((1, 2), 3), (4, 5))]),
    (6, 4, [(((1, 2), 3), ((4, 5), 6))]),
    (6, 4, [((((1, 2), 3), 4), (5, 6)), ((1, (2, 3)), ((4, 5), 6))]),
]


@pytest.mark.parametrize(
    "data, order, expected",
    [(parse_longitudes(text), order, None)
     for text, order in [(HOPF, 0), (BORROMEAN, 1), (WHITEHEAD, 2)]]
    + [(_forest_longitudes(m, trees), n,
        milnor_from_forest(parse_forest(_forest_text(trees), m), n))
       for m, n, trees in FORESTS],
)
def test_one_walk_per_nonempty_longitude(monkeypatch, data, order, expected):
    # points that vanish on Lie elements (separable or affine in (d, i))
    # would read zero below cap + 1 and send every walk there
    walks = []
    walk = magnus._walk

    def spy(word, degree):
        walks.append(degree)
        return walk(word, degree)

    monkeypatch.setattr(magnus, "_walk", spy)
    result = milnor_from_longitudes(data)
    assert result.order == order
    assert walks == [order + 1] * sum(1 for _, w in data.longitudes if _free_reduce(w))
    if expected is not None:
        assert result.value == expected


def test_free_reduction():
    assert _free_reduce(parse_word("x1 x2 X2 X1 x3", 3)) == ((3, False),)
    assert _free_reduce(parse_word("X1 x2 X2 x1 x1", 2)) == ((1, False),)
    assert _free_reduce(parse_word("x1 x1 X2 x1", 2)) == tuple(parse_word("x1 x1 X2 x1", 2))
    w = tuple(parse_word(" ".join(["x1 x2 x3 x4 X1 X2 X3 X4"] * 5), 4))
    assert _free_reduce(w + _inverse(w)) == ()


# -- the packed walk against the dict walk it replaced -------------------------


def _old_parts(word, degree, m):
    return [_old_decode(part, d, m) for d, part in enumerate(_old_walk(word, degree, m))]


def _check_walk(word, degree, m):
    walk = _walk(word, degree)
    assert [walk.read(d) for d in range(degree + 1)] == _old_parts(word, degree, m)
    assert [not part for part in walk.parts] == [not part for part in _old_walk(word, degree, m)]
    return walk


# 1 field keys every part past degree 0, 4 packs low degrees and keys the
# rest, 256 packs every degree of a word on few letters
@pytest.mark.parametrize("fields", [1, 4, 256])
@settings(max_examples=60, deadline=None)
@given(mw=st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), _words(m))),
       degree=st.integers(0, 6))
def test_packed_walk_matches_old_walk(fields, mw, degree):
    m, word = mw
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magnus, "_FIELDS", fields)
        _check_walk(word, degree, m)


@pytest.mark.parametrize("fields, low", [(1, 0), (4, 2), (256, 4)])
def test_fields_set_what_is_packed(monkeypatch, fields, low):
    monkeypatch.setattr(magnus, "_FIELDS", fields)
    walk = _check_walk(_commutator_word(((1, 2), 1)), 4, 2)
    assert walk.low == low
    assert all(isinstance(part, int) for part in walk.parts[:low + 1])
    assert all(isinstance(part, dict) for part in walk.parts[low + 1:])


@pytest.mark.parametrize("fields", [1, 4, 256])
@pytest.mark.parametrize("shape", [
    ((((((1, 2), 3), 4), 5), 6)),
    ((1, 2), ((3, 4), (5, (6, 7)))),
    (((((((1, 2), 3), 4), 5), 6), 7), 8),
    (((1, 2), (3, 4)), ((5, 6), (7, 8))),
])
def test_packed_walk_on_iterated_commutators(monkeypatch, fields, shape):
    # the first nonzero part past degree 0 is the bracket's, at its degree
    word = _commutator_word(shape)
    degree = len(_rootings(shape, 0))  # one letter per leaf
    monkeypatch.setattr(magnus, "_FIELDS", fields)
    walk = _check_walk(word, degree, degree)
    assert [bool(part) for part in walk.parts] == [True] + [False] * (degree - 1) + [True]


@pytest.mark.parametrize(
    "length, degree", [(40, 5), (1, 1), (1, 8), (2, 3), (5, 4), (9, 9), (40, 6), (382, 8)]
)
def test_field_bound_is_attained(length, degree):
    # x1^-L = (1 + X_1)^-L: X_1^D has (-1)^D C(L + D - 1, D), the most any
    # coefficient of a word of length L can reach, which fills its field
    walk = _walk(((1, True),) * length, degree)
    for d in range(degree + 1):
        assert walk.read(d) == {(1,) * d: (-1) ** d * comb(length + d - 1, d)}
