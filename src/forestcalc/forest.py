"""Intersection forests: integer combinations of canonical decorated trees.

Grammar (whitespace, as `str.isspace` reads it, may stand between tokens but
not inside an int, a label or "^inf"):

    forest  := term ( "+" term )* | "0"
    term    := int "*" tree
    tree    := framed | twisted
    framed  := "<" rooted "," rooted ">"
    twisted := rooted "^inf"
    rooted  := label | "(" rooted "," rooted ")"
    int     := [ "+" | "-" ] digits
    label   := digits, read as an integer >= 1

Digits are the characters `str.isdecimal` accepts, as Python's `int` reads
them.  "0" is the zero forest only as the whole text, up to whitespace;
otherwise a leading 0 starts a coefficient.

Printing emits canonical forms with terms sorted by tree.  A tree may have
at most MAX_NESTING trivalent vertices (parenthesis pairs), and so nest at
most that deep in any presentation; printed forests always parse back.

`parse_forest` reads the text in one scan with an explicit stack of open
vertices.  A label becomes its `trees._canon` record, and as each ")"
closes, the vertex's record is joined from its two branches' records
(`trees._join`), so the canonical shape, key, sign and ambiguity of every
subtree are built once.  At ">" the two halves' records go straight to the
edge walk of `trees.canonical_framed_records`; a twisted tree is its
shape's canonical record.  Terms are merged per tree and sorted on the keys
the scan built, which order them as `DecoratedTree.sort_key` does.  Every
shape read this way is valid, so `trees.validate_shape` is not run.

A text outside the grammar raises a `ParseError` whose position is the
index of the first character that breaks it, past any whitespace before
it, or the text's length when the text ends too soon: the sign or first
digit of a bad label or integer, the "(" that opens one vertex too many,
the "^" of a misplaced twist mark, the character where "^inf" should start.
A coefficient or label of more digits than `int` reads
(`sys.get_int_max_str_digits`, 4,300 by default) is a `ParseError` at its
first character too.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .errors import (
    DomainError,
    LabelOutOfRangeError,
    MalformedTwistedError,
    ParameterError,
    ParseError,
)
from .trees import (
    FRAMED,
    ROOTED,
    TWISTED,
    DecoratedTree,
    _join,
    canonical_framed_records,
)

# Most trivalent vertices, and so deepest nesting, the parser accepts in one
# tree.  The shape walks in `trees` recurse once per level;
# canonicalization re-roots a framed tree, but no presentation of a tree of
# order n nests deeper than n, so its printed form parses back.
MAX_NESTING = 100


class IntersectionForest(NamedTuple):
    """Merged multiset of signed framed trees and integer-weighted inf-trees."""

    m: int
    terms: tuple  # ((coeff, DecoratedTree), ...) canonical, sorted, no zeros

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:+d}*{t}" for c, t in self.terms)


def make_forest(m: int, raw_terms) -> IntersectionForest:
    """Merge (coefficient, canonical tree) pairs into a forest."""
    acc = {}
    for coeff, tree in raw_terms:
        if tree.kind == ROOTED:
            raise DomainError("forests contain no rooted trees")
        acc[tree] = acc.get(tree, 0) + coeff
    terms = tuple(
        (c, t) for t, c in sorted(acc.items(), key=lambda kv: kv[0].sort_key()) if c != 0
    )
    return IntersectionForest(m, terms)


def forest_add(a: IntersectionForest, b: IntersectionForest) -> IntersectionForest:
    if a.m != b.m:
        raise DomainError(f"index-count mismatch: {a.m} != {b.m}")
    return make_forest(a.m, list(a.terms) + list(b.terms))


def forest_scale(a: IntersectionForest, c: int) -> IntersectionForest:
    return make_forest(a.m, [(c * coeff, t) for coeff, t in a.terms])


# ---------------------------------------------------------------------------
# parsing


def parse_forest(text: str, m: int) -> IntersectionForest:
    """Parse forest-grammar text into a canonical forest."""
    if m < 1:
        raise ParameterError(f"index count m must be >= 1, got {m}")
    if text.strip() == "0":
        return IntersectionForest(m, ())
    return _scan(text, m)


def _scan(text: str, m: int) -> IntersectionForest:
    """Read the terms of a forest in one pass; see the module docstring."""
    n = len(text)
    t = text + "\0"  # a sentinel that no rule reads, so text[n] needs no bounds test
    i = 0
    labels = {}  # text of a label -> its `_canon` record
    acc = {}  # tree -> [coefficient, sort key]
    while True:
        while t[i].isspace():
            i += 1
        start = i
        if t[i] in "+-":
            i += 1
        digits = i
        while t[i].isdecimal():
            i += 1
        if i == digits:
            raise ParseError("expected integer", position=start)
        try:
            coeff = int(t[start:i])
        except ValueError:  # past int's digit limit
            raise _digit_limit(start) from None
        while t[i].isspace():
            i += 1
        if t[i] != "*":
            raise ParseError("expected '*'", position=i)
        i += 1
        while t[i].isspace():
            i += 1
        framed = t[i] == "<"
        if framed:
            i += 1
        # the left record of each open vertex, None before its ','; a framed
        # tree's first half is the bottom entry, closed by '>'
        stack = [None] if framed else []
        depth = vertices = 0
        rec = None  # the record of the rooted shape just read
        while True:
            c = t[i]
            if rec is None:  # a rooted shape starts here
                if c == "(":
                    if depth == MAX_NESTING:
                        raise ParseError(
                            f"trees may nest at most {MAX_NESTING} levels deep", position=i
                        )
                    if vertices == MAX_NESTING:
                        raise ParseError(
                            f"trees may have at most {MAX_NESTING} trivalent vertices",
                            position=i,
                        )
                    depth += 1
                    vertices += 1
                    stack.append(None)
                    i += 1
                elif c.isdecimal():
                    k = i + 1
                    while t[k].isdecimal():
                        k += 1
                    label = t[i:k]
                    rec = labels.get(label)
                    if rec is None:
                        try:
                            value = int(label)
                        except ValueError:
                            raise _digit_limit(i) from None
                        if value < 1:
                            raise ParseError("labels must be >= 1", position=i)
                        if value > m:
                            raise LabelOutOfRangeError(
                                f"label {value} exceeds index count {m}", position=i
                            )
                        rec = labels[label] = (value, (1, value), 1, False, None)
                    i = k
                elif c.isspace():
                    i += 1
                elif c == "+" or c == "-":
                    raise ParseError("labels must be unsigned", position=i)
                else:
                    raise ParseError("expected integer", position=i)
                continue
            if not stack:
                break  # a twisted tree's shape is read
            left = stack[-1]
            if left is None:
                if c == ",":
                    stack[-1], rec = rec, None
                    i += 1
                    continue
                expected = ","
            elif depth:
                if c == ")":
                    depth -= 1
                    stack.pop()
                    rec = _join(left, rec)
                    i += 1
                    continue
                expected = ")"
            else:
                if c == ">":
                    i += 1
                    break
                expected = ">"
            if c.isspace():
                i += 1
            elif c == "^" and framed:
                raise MalformedTwistedError("twist mark allowed only on a whole tree", position=i)
            else:
                raise ParseError(f"expected {expected!r}", position=i)
        while t[i].isspace():
            i += 1
        if framed:
            if t[i] == "^":
                raise MalformedTwistedError("framed trees cannot carry a twist mark", position=i)
            pair, (ka, kb), sign, torsion = canonical_framed_records(stack[0], rec)
            tree, key = DecoratedTree(FRAMED, pair, torsion), (vertices, 0, ka, kb)
            coeff *= sign
        else:
            if not t.startswith("^inf", i):
                raise MalformedTwistedError("expected '^inf' after rooted tree", position=i)
            i += 4
            tree, key = DecoratedTree(TWISTED, rec[0]), (vertices, 1, rec[1])
        entry = acc.get(tree)
        if entry is None:
            acc[tree] = [coeff, key]
        else:
            entry[0] += coeff
        while t[i].isspace():
            i += 1
        if i == n:
            break
        if t[i] != "+":
            raise ParseError("expected '+'", position=i)
        i += 1
    terms = sorted(acc.items(), key=lambda kv: kv[1][1])
    return IntersectionForest(m, tuple((c, tree) for tree, (c, _) in terms if c))


def _digit_limit(position):
    """The error of a coefficient or label past `int`'s digit limit."""
    return ParseError(
        f"integers may have at most {sys.get_int_max_str_digits()} digits", position=position
    )


def parse_tree_term(text: str, m: int):
    """Parse a single 'coeff*tree' term; returns (coeff, tree)."""
    forest = parse_forest(text, m)
    if len(forest.terms) != 1:
        raise ParseError("expected a single nonzero term")
    return forest.terms[0]
