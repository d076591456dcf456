"""Intersection forests: integer combinations of canonical decorated trees.

Grammar (whitespace-insensitive):

    forest  := term ( "+" term )* | "0"
    term    := int "*" tree
    tree    := framed | twisted
    framed  := "<" rooted "," rooted ">"
    twisted := rooted "^inf"
    rooted  := label | "(" rooted "," rooted ")"
    label   := decimal integer >= 1

Printing emits canonical forms with terms sorted by tree.  A tree may have
at most MAX_NESTING trivalent vertices (parenthesis pairs), and so nest at
most that deep in any presentation; printed forests always parse back.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DomainError,
    LabelOutOfRangeError,
    MalformedTwistedError,
    ParameterError,
    ParseError,
)
from .trees import ROOTED, DecoratedTree, framed_tree, twisted_tree

# Most trivalent vertices, and so deepest nesting, the parser accepts in one
# tree.  The parser and the shape walks in `trees` recurse once per level;
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


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.pos = 0
        self.depth = 0
        self.vertices = 0  # trivalent vertices of the tree being parsed
        self._twist_allowed = True

    def error(self, message, cls=ParseError):
        raise cls(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def parse_label(self):
        at = self.pos
        value = self.parse_int()
        if value < 1:
            self.pos = at
            self.error("labels must be >= 1")
        if value > self.m:
            self.pos = at
            self.error(f"label {value} exceeds index count {self.m}",
                       LabelOutOfRangeError)
        return value

    def parse_rooted(self):
        if self.peek() == "(":
            if self.depth == MAX_NESTING:
                self.error(f"trees may nest at most {MAX_NESTING} levels deep")
            if self.vertices == MAX_NESTING:
                self.error(f"trees may have at most {MAX_NESTING} trivalent vertices")
            self.pos += 1
            self.depth += 1
            self.vertices += 1
            left = self.parse_rooted()
            self.expect(",")
            right = self.parse_rooted()
            self.expect(")")
            self.depth -= 1
            shape = (left, right)
        else:
            shape = self.parse_label()
        if self.peek() == "^" and not self._twist_allowed:
            self.error("twist mark allowed only on a whole tree",
                       MalformedTwistedError)
        return shape

    def parse_tree(self):
        self.vertices = 0
        if self.peek() == "<":
            self.pos += 1
            self._twist_allowed = False
            left = self.parse_rooted()
            self.expect(",")
            right = self.parse_rooted()
            self.expect(">")
            if self.peek() == "^":
                self.error("framed trees cannot carry a twist mark",
                           MalformedTwistedError)
            return framed_tree(left, right)
        self._twist_allowed = True
        shape = self.parse_rooted()
        self.skip_ws()
        if self.text.startswith("^inf", self.pos):
            self.pos += 4
            return twisted_tree(shape), 1
        self.error("expected '^inf' after rooted tree",
                   MalformedTwistedError)

    def parse_forest(self):
        self.skip_ws()
        if self.peek() == "0":
            self.pos += 1
            self.skip_ws()
            if self.pos != len(self.text):
                self.error("trailing input after '0'")
            return make_forest(self.m, [])
        terms = []
        while True:
            coeff = self.parse_int()
            self.expect("*")
            tree, sign = self.parse_tree()
            terms.append((coeff * sign, tree))
            self.skip_ws()
            if self.pos == len(self.text):
                break
            self.expect("+")
        return make_forest(self.m, terms)


def parse_forest(text: str, m: int) -> IntersectionForest:
    """Parse forest-grammar text into a canonical forest."""
    if m < 1:
        raise ParameterError(f"index count m must be >= 1, got {m}")
    return _Parser(text, m).parse_forest()


def parse_tree_term(text: str, m: int):
    """Parse a single 'coeff*tree' term; returns (coeff, tree)."""
    forest = parse_forest(text, m)
    if len(forest.terms) != 1:
        raise ParseError("expected a single nonzero term")
    return forest.terms[0]
