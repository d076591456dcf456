"""Magnus expansion of link longitudes and the resulting invariants.

Longitude words in the free group on x1..xm are expanded in noncommutative
power series (x_i -> 1 + X_i), one homogeneous degree at a time.  The least
degree with a nonzero homogeneous part yields the first nonvanishing
invariant, assembled as mu = sum_i X_i (x) l_i with l_i the Lie reduction
of that part.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    k_project_lie,
    k_project_tensor,
    tensor_of,
    tensor_to_lie,
    word_multiplicity,
)


def parse_word(text: str, m: int):
    """A free-group word: space-separated letters x3 (generator) / X3 (inverse)."""
    letters = []
    for pos, token in enumerate(text.split()):
        if len(token) < 2 or token[0] not in "xX" or not token[1:].isdigit():
            raise ParseError(f"bad letter {token!r}", position=pos)
        i = int(token[1:])
        if not 1 <= i <= m:
            raise ParseError(f"letter index {i} out of range 1..{m}", position=pos)
        letters.append((i, token[0] == "X"))
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


def _degree_part(word, degree: int) -> dict:
    """Degree-`degree` part of the Magnus expansion of a word, zeros dropped.

    The parts P_0..P_degree of the prefix read so far are updated in place,
    one letter at a time.  x_i multiplies by 1 + X_i: P_d += P_{d-1} X_i, for
    d from the top down so that the old P_{d-1} is read.  x_i^-1 multiplies
    by (1 + X_i)^-1, and the product Q solves Q_d + Q_{d-1} X_i = P_d: d runs
    upwards and reads the already updated Q_{d-1}.
    """
    parts = [{(): 1}] + [{} for _ in range(degree)]
    for i, inverse in word:
        sign = -1 if inverse else 1
        for d in range(1, degree + 1) if inverse else range(degree, 0, -1):
            target = parts[d]
            for w, c in parts[d - 1].items():
                w += (i,)
                c = target.get(w, 0) + sign * c
                if c:
                    target[w] = c
                else:
                    del target[w]
    return parts[degree]


@dataclass(frozen=True)
class LongitudeData:
    m: int
    words: tuple  # index i-1 -> parsed word for longitude l_i


def parse_longitudes(text: str) -> LongitudeData:
    """Longitude file: first line "m = <int>", then "l<i>: <word>" lines."""
    m = None
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            parts = line.replace(" ", "").split("=")
            if len(parts) != 2 or parts[0] != "m" or not parts[1].isdigit():
                raise ParseError(f"expected 'm = <int>' on line {lineno}", position=lineno)
            m = int(parts[1])
            if m < 1:
                raise ParseError("m must be >= 1", position=lineno)
            continue
        if ":" not in line:
            raise ParseError(f"expected 'l<i>: <word>' on line {lineno}", position=lineno)
        head, body = line.split(":", 1)
        head = head.strip()
        if not head.startswith("l") or not head[1:].isdigit():
            raise ParseError(f"bad longitude name {head!r}", position=lineno)
        i = int(head[1:])
        if not 1 <= i <= m:
            raise ParseError(f"longitude index {i} out of range 1..{m}", position=lineno)
        if i in raw:
            raise ParseError(f"duplicate longitude l{i}", position=lineno)
        raw[i] = parse_word(body.strip(), m)
    if m is None:
        raise ParseError("empty longitude input")
    words = tuple(tuple(raw.get(i, [])) for i in range(1, m + 1))
    return LongitudeData(m, words)


class AllVanishing(Exception):
    """All invariants vanish up to the truncation cap."""

    def __init__(self, cap):
        super().__init__(f"all invariants vanish through order {cap}")
        self.cap = cap


@dataclass(frozen=True)
class MilnorResult:
    order: int  # n: first nonvanishing order
    value: TensorElement  # mu in L1 (x) L_{n+1}
    table: tuple  # ((word, longitude index, coefficient), ...)


def milnor_from_longitudes(data: LongitudeData, cap: int = 8, k=None) -> MilnorResult:
    """First nonvanishing invariant of the longitudes, scanning orders 0..cap.

    Each longitude is freely reduced once.  At order n only the degree-(n+1)
    parts of the expansions are computed, and they are reduced to Lie elements
    (non-primitivity signals inconsistent input).  With k set, parts are
    multiplicity-filtered before the vanishing test.
    """
    if cap < 0:
        raise ParameterError("cap must be >= 0")
    if k is not None and k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    m = data.m
    words = [_free_reduce(w) for w in data.words]
    for n in range(cap + 1):
        degree = n + 1
        parts = []
        found = False
        for i, word in enumerate(words, start=1):
            part = _degree_part(word, degree)
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
