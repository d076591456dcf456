"""Magnus expansion of link longitudes and the resulting invariants.

Longitude words in the free group on x1..xm are expanded in noncommutative
power series (x_i -> 1 + X_i).  The least degree with a nonzero homogeneous
part yields the first nonvanishing invariant, assembled as
mu = sum_i X_i (x) l_i with l_i the Lie reduction of that part.

Each longitude is expanded in one walk over its letters, up to a degree D
chosen by a fingerprint: the same recurrence with every X_i at level d
replaced by a fixed number a(d, i), computed mod p = 2^61 - 1.  A nonzero
fingerprint proves its part nonzero, so the expansion's first nonzero
degree is at most D, and less only where a fingerprint missed.  The walk is
exact and returns every part up to D, and the scan reads them in order; only
a k filter that empties every part of degree D sends it on, to a second
walk.  So no output depends on the fingerprint, only the time taken.

The walk packs parts in integers.  A word's r letters are the digits
0..r-1, and a monomial of degree d the number of its d digits, the first
least significant.  A coefficient of any prefix of a word of length L sums
at most C(L+D-1, D) terms +-1, one per way to read the monomial off the
letters (x1^-L attains it at X_1^D), so a signed field of bit_length of
that bound + 1 bits holds it, and an integer is 0 only when every field is.
Up to degree low, the largest j with r^j <= _FIELDS, a part is one integer,
the sum of c 2^(bits * number), and a letter shifts and adds it; past low,
a part maps its high digits to the integer of its low ones, so sparse parts
stay sparse.  The scan decodes only the parts it reads.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import (
    BracketNonzeroError,
    DomainError,
    NotPrimitiveError,
    ParameterError,
    ParseError,
)
from .freelie import (
    TensorElement,
    bracket_map,
    tensor_of,
    tensor_to_lie,
    word_multiplicity,
)


def parse_word(text: str, m: int, memo=None):
    """A free-group word: space-separated letters x3 (generator) / X3 (inverse).

    `memo` maps each token already seen (for the same m) to its letter; a
    caller parsing many words may share one.
    """
    if memo is None:
        memo = {}
    letters = []
    for token in text.split():
        letter = memo.get(token)
        if letter is None:
            pos = len(letters)
            if len(token) < 2 or token[0] not in "xX" or not token[1:].isdecimal():
                raise ParseError(f"bad letter {token!r}", position=pos)
            i = int(token[1:])
            if not 1 <= i <= m:
                raise ParseError(f"letter index {i} out of range 1..{m}", position=pos)
            letter = memo[token] = (i, token[0] == "X")
        letters.append(letter)
    return letters


def _free_reduce(word) -> tuple:
    """The freely reduced word: adjacent x_i X_i and X_i x_i cancel."""
    out = []
    for letter in word:
        if out and out[-1] == (letter[0], not letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


_P = (1 << 61) - 1  # the fingerprints' prime
_MASK = (1 << 64) - 1


def _point(d: int, i: int) -> int:
    """a(d, i), the value of X_i at level d: splitmix64's finalizer of (d << 32 | i), mod p.

    The points must look unrelated: separable points such as 3^(64d + i)
    evaluate every monomial as if the X_i commuted, so they vanish on every
    Lie element of degree 2 or more and every fingerprint would read zero.
    """
    x = d << 32 | i
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK
    return (x ^ x >> 31) % _P


def _fingerprints(word, points: dict):
    """f_1, f_2, ...: part P_d of the word's expansion at X_i -> a(d, i), mod p.

    The recurrence of `_walk` with scalars, one level at a time: level d
    after letter j is level d after letter j - 1, plus a(d, i) times level
    d - 1 before the letter for x_i, or minus a(d, i) times level d - 1
    after it for x_i^-1, a running sum.  The sums stay unreduced for up to
    eight levels, since reducing each costs more than the multiply-add.
    `points` caches a(d, i) by (d, i).  A monomial X_{i_1}..X_{i_d} becomes
    the product of distinct variables a(1, i_1)..a(d, i_d), so f_d is P_d as
    a polynomial of degree d at one point: f_d != 0 proves P_d != 0, and
    f_d == 0 proves nothing (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979).
    """
    read = [j + inverse for j, (_, inverse) in enumerate(word)]
    letters = set(word)
    row = [1] * (len(word) + 1)
    d = 0
    while True:
        d += 1
        scale = {}
        for i, inverse in letters:
            a = points.get((d, i))
            if a is None:
                a = points[d, i] = _point(d, i)
            scale[i, inverse] = -a if inverse else a
        terms = map(mul, map(scale.__getitem__, word), map(row.__getitem__, read))
        row = list(accumulate(terms, initial=0))
        if d % 8 == 0:
            row = list(map(_P.__rmod__, row))
        yield row[-1] % _P


def _first_degree(words, low: int, top: int) -> int:
    """The least degree in low..top at which some word's fingerprint is nonzero, else top."""
    points = {}
    levels = [_fingerprints(word, points) for word in words]
    for d in range(1, top):
        if d < low:
            for f in levels:
                next(f)
        elif any(next(f) for f in levels):
            return d
    return top


_FIELDS = 256  # the most fields of a part packed whole (module docstring)


class _Walk(NamedTuple):
    parts: list  # P_0..P_D: an int up to degree low, then {high digits: int}
    letters: tuple  # the word's distinct labels, by digit
    low: int
    bits: int

    def read(self, d: int) -> dict:
        """Part d keyed by letter tuples (i_1, ..., i_d), lowest set bit first."""
        r, bits, low, part = len(self.letters), self.bits, min(d, self.low), self.parts[d]
        out = {}
        for high, x in part.items() if d > low else ((0, part),):
            while x:
                field = ((x & -x).bit_length() - 1) // bits
                c = x >> field * bits & (1 << bits) - 1
                c -= c >> bits - 1 << bits  # the field is signed
                x -= c << field * bits
                index, word = field + high * r ** low, []
                for _ in range(d):
                    index, j = divmod(index, r)
                    word.append(self.letters[j])
                out[tuple(word)] = c
        return out


def _walk(word, degree: int) -> _Walk:
    """Parts P_0..P_degree of the Magnus expansion of a word, packed.

    The parts of the prefix read so far are updated in place, one letter at
    a time.  x_i multiplies by 1 + X_i: P_d += P_{d-1} X_i, for d from the top
    down so that the old P_{d-1} is read.  x_i^-1 multiplies by
    (1 + X_i)^-1, and the product Q solves Q_d + Q_{d-1} X_i = P_d: d runs
    upwards and reads the already updated Q_{d-1}.  For X_i the digit j,
    P_{d-1} X_i shifts P_{d-1} by j r^(d-1) fields up to degree low, and
    adds j r^(d-1-low) to each key past it.
    """
    letters = sorted({i for i, _ in word})
    r, low = len(letters), 0
    while low < degree and r ** (low + 1) <= _FIELDS:
        low += 1
    bits = (comb(len(word) + degree - 1, degree) if word else 1).bit_length() + 1
    steps = {i: [0] + [j * r ** (d - 1) * bits if d <= low else j * r ** (d - 1 - low)
                       for d in range(1, degree + 1)] for j, i in enumerate(letters)}
    parts = [1] + [0] * low + [{} for _ in range(degree - low)]
    up, down = range(1, degree + 1), range(degree, 0, -1)
    for i, inverse in word:
        step = steps[i]
        for d in up if inverse else down:
            below = parts[d - 1]
            if d <= low:
                below <<= step[d]
                parts[d] += -below if inverse else below
            elif below:
                target = parts[d]
                for key, c in below.items() if d > low + 1 else ((0, below),):
                    key += step[d]
                    c = target.get(key, 0) + (-c if inverse else c)
                    if c:
                        target[key] = c
                    else:
                        del target[key]
    return _Walk(parts, tuple(letters), low, bits)


class LongitudeData(NamedTuple):
    m: int
    longitudes: tuple  # ((i, parsed word of l_i), ...) for the l_i named, by i


def parse_longitudes(text: str) -> LongitudeData:
    """Longitude file: first line "m = <int>", then "l<i>: <word>" lines.

    Only the longitudes the file names are kept, so the size of the result
    follows the file, not m; a component it does not name has the empty
    longitude.  Errors are `ParseError`s at their line, an int of more
    digits than `int` reads among them.
    """
    m = None
    raw = {}
    memo = {}
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if m is None:
                parts = line.replace(" ", "").split("=")
                if len(parts) != 2 or parts[0] != "m" or not parts[1].isdecimal():
                    raise ParseError(f"expected 'm = <int>' on line {lineno}", position=lineno)
                m = int(parts[1])
                if m < 1:
                    raise ParseError("m must be >= 1", position=lineno)
                continue
            if ":" not in line:
                raise ParseError(f"expected 'l<i>: <word>' on line {lineno}", position=lineno)
            head, body = line.split(":", 1)
            head = head.strip()
            if not head.startswith("l") or not head[1:].isdecimal():
                raise ParseError(f"bad longitude name {head!r}", position=lineno)
            i = int(head[1:])
            if not 1 <= i <= m:
                raise ParseError(f"longitude index {i} out of range 1..{m}", position=lineno)
            if i in raw:
                raise ParseError(f"duplicate longitude l{i}", position=lineno)
            raw[i] = tuple(parse_word(body, m, memo))
    except ValueError:  # int() of m, an index or a letter past int's digit limit
        raise ParseError(
            f"integers may have at most {sys.get_int_max_str_digits()} digits on line {lineno}",
            position=lineno,
        ) from None
    if m is None:
        raise ParseError("empty longitude input")
    return LongitudeData(m, tuple(sorted(raw.items())))


class AllVanishing(Exception):
    """All invariants vanish up to the truncation cap."""

    def __init__(self, cap):
        super().__init__(f"all invariants vanish through order {cap}")
        self.cap = cap


class MilnorResult(NamedTuple):
    order: int  # n: first nonvanishing order
    value: TensorElement  # mu in L1 (x) L_{n+1}
    table: tuple  # ((word, longitude index, coefficient), ...)


def milnor_from_longitudes(data: LongitudeData, cap: int = 8, k=None) -> MilnorResult:
    """First nonvanishing invariant of the longitudes, scanning orders 0..cap.

    Each nonempty longitude is freely reduced once (an empty one, named or
    not, expands to 1 and is skipped) and walked to D, the least degree at
    which some fingerprint is nonzero, or to cap + 1.  The exact parts of
    degrees 1..D are scanned in order; with k set, parts are
    multiplicity-filtered before the vanishing test.  Only if every part
    through D vanishes (k filtered the degree-D parts away) are the
    longitudes walked again, past D.  The first nonvanishing degree is
    reduced to Lie elements (non-primitivity signals inconsistent input).
    """
    if cap < 0:
        raise ParameterError("cap must be >= 0")
    if k is not None and k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    m = data.m
    words = [(i, _free_reduce(w)) for i, w in data.longitudes if w]
    words = [(i, w) for i, w in words if w]
    scanned = 0
    while scanned <= cap:
        top = _first_degree([w for _, w in words], scanned + 1, cap + 1)
        walks = [(i, _walk(word, top)) for i, word in words]
        for degree in range(scanned + 1, top + 1):
            parts = []
            for i, walk in walks:
                if not walk.parts[degree]:
                    continue
                part = walk.read(degree)
                if k is not None:
                    part = {
                        w: c for w, c in part.items()
                        if word_multiplicity(w + (i,)) <= k
                    }
                if part:
                    parts.append((i, part))
            if parts:
                return _invariant(m, degree, parts)
        scanned = top
    raise AllVanishing(cap)


def _invariant(m: int, degree: int, parts) -> MilnorResult:
    """mu = sum_i X_i (x) l_i from the nonzero parts (i, P_degree of l_i), k-filtered
    where k is set; the Lie reduction and the bracket keep every content, so none is projected."""
    value = TensorElement.zero(m, degree)
    table = []
    for i, part in parts:
        try:
            lie = tensor_to_lie(m, degree, part)
        except NotPrimitiveError:
            raise DomainError(
                f"longitude l{i} is not primitive at degree {degree}"
            ) from None
        value = value + tensor_of(i, lie)
        for w in sorted(part):
            table.append((w, i, part[w]))
    if not bracket_map(value).is_zero:
        raise BracketNonzeroError(
            "longitude invariant escapes the bracket kernel"
        )
    return MilnorResult(degree - 1, value, tuple(table))
