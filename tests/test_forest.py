import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestcalc.errors import (
    DomainError,
    LabelOutOfRangeError,
    MalformedTwistedError,
    ParseError,
)
from forestcalc.forest import (
    MAX_NESTING,
    forest_add,
    forest_scale,
    make_forest,
    parse_forest,
    parse_tree_term,
)
from forestcalc.trees import framed_tree, twisted_tree


def test_parse_single_framed():
    f = parse_forest("+1*<1,2>", 2)
    assert len(f.terms) == 1
    assert f.terms[0][0] == 1
    assert str(f.terms[0][1]) == "<1,2>"


def test_parse_folds_canonical_sign():
    f = parse_forest("+1*<(2,1),3>", 3)
    assert f.terms[0][0] == -1
    assert str(f.terms[0][1]) == "<(1,2),3>"


def test_parse_twisted_keeps_coefficient():
    f = parse_forest("+2*((1,2),3)^inf", 3)
    assert f.terms[0][0] == 2
    assert f.terms[0][1].order == 2


def test_twisted_sign_free():
    # (-J)^inf = J^inf: a vertex swap does not change the term
    f1 = parse_forest("+1*((1,2),3)^inf", 3)
    f2 = parse_forest("+1*((2,1),3)^inf", 3)
    assert f1 == f2


def test_merge_and_cancel():
    assert parse_forest("+1*<1,2> + -1*<1,2>", 2).is_zero
    f = parse_forest("+1*<1,2> + +1*<1,2>", 2)
    assert f.terms[0][0] == 2


def test_mixed_kind_forest():
    f = parse_forest("+1*<1,2> + +1*(1,2)^inf", 2)
    assert len(f.terms) == 2


def test_print_parse_roundtrip():
    texts = [
        "+2*<1,2> + -1*<(1,2),3>",
        "+1*((1,2),1)^inf + +3*<(1,1),(2,2)>",
        "0",
    ]
    for text in texts:
        f = parse_forest(text, 3)
        assert parse_forest(str(f), 3) == f


def test_parse_errors():
    with pytest.raises(LabelOutOfRangeError):
        parse_forest("+1*<1,4>", 2)
    with pytest.raises(ParseError):
        parse_forest("+1*<1,2", 2)
    with pytest.raises(MalformedTwistedError):
        parse_forest("+1*<1,2>^inf", 2)
    with pytest.raises(ParseError):
        parse_forest("1,2", 2)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_forest("+1*<1,x>", 2)
    assert err.value.position is not None


def test_make_forest_rejects_rooted():
    from forestcalc.trees import rooted_tree

    t, _ = rooted_tree((1, 2))
    with pytest.raises(DomainError):
        make_forest(2, [(1, t)])


def test_add_scale():
    f = parse_forest("+1*<1,2>", 2)
    g = parse_forest("+2*<1,1>", 2)
    assert str(forest_add(f, g)) == "+2*<1,1> + +1*<1,2>"
    assert forest_scale(f, 0).is_zero
    with pytest.raises(DomainError):
        forest_add(f, parse_forest("+1*<1,2>", 3))


def test_parse_tree_term():
    coeff, tree = parse_tree_term("-3*(1,1)^inf", 1)
    assert coeff == -3
    assert tree == twisted_tree((1, 1))
    with pytest.raises(ParseError):
        parse_tree_term("+1*<1,2> + +1*<1,1>", 2)


def test_deterministic_term_order():
    f = parse_forest("+1*<2,2> + +1*<1,1> + +1*(1,1)^inf", 2)
    assert str(f) == str(parse_forest(str(f), 2))


# ---------------------------------------------------------------------------
# the recursive-descent reader that `parse_forest`'s one-pass scan replaced,
# kept as the oracle: on every text the scan gives the same forest, or the
# same error class, message and position, as this reader with the two
# deliberate grammar changes of `_FixedRecursiveParser`


class _RecursiveParser:
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
        return self.parse_terms()

    def parse_terms(self):
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


class _FixedRecursiveParser(_RecursiveParser):
    """The old reader with the grammar's two fixes and one error fix: "0" is
    the zero forest only as the whole text up to whitespace, where a leading
    0 was read as the zero forest followed by trailing input; a label takes
    no sign, where "+1" was read as 1; and a coefficient or label of more
    digits than int reads is a syntax error at its first character, where
    int's ValueError escaped."""

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        try:
            return super().parse_int()
        except ValueError:
            self.pos = start
            self.error(f"integers may have at most {sys.get_int_max_str_digits()} digits")

    def parse_label(self):
        if self.peek() in ("+", "-"):
            self.error("labels must be unsigned")
        return super().parse_label()

    def parse_forest(self):
        if self.text.strip() == "0":
            return make_forest(self.m, [])
        return self.parse_terms()


def _outcome(parse, text, m):
    """The forest `parse` reads, or its error's class, message and position."""
    try:
        return parse(text, m)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _assert_matches_oracle(text, m):
    oracle = _outcome(lambda s, k: _FixedRecursiveParser(s, k).parse_forest(), text, m)
    assert _outcome(parse_forest, text, m) == oracle, text


def test_grammar_fixes():
    # a first coefficient may start with 0, and "0" is zero only when whole
    assert str(parse_forest("07*<1,2>", 2)) == "+7*<1,2>"
    assert parse_forest("0*<1,2>", 2).is_zero
    assert parse_forest(" \t0\xa0", 2).is_zero
    with pytest.raises(ParseError, match=r"^expected '\*' \(at position 2\)$"):
        parse_forest("00", 2)
    with pytest.raises(ParseError, match=r"^expected '\*' \(at position 2\)$"):
        parse_forest("0 + 1*<1,2>", 2)
    # the old reader refused the first two and read the last as +1*<1,2>
    old = _RecursiveParser("07*<1,2>", 2)
    with pytest.raises(ParseError, match=r"^trailing input after '0' \(at position 1\)$"):
        old.parse_forest()
    assert str(_RecursiveParser("1*<+1,2>", 2).parse_forest()) == "+1*<1,2>"
    for text, at in (("1*<+1,2>", 3), ("1*<1, -2>", 6), ("1*((1,+2),1)^inf", 6)):
        with pytest.raises(ParseError, match=rf"^labels must be unsigned \(at position {at}\)$"):
            parse_forest(text, 2)


def _balanced(vertices):
    """A rooted shape with that many trivalent vertices, nesting about log2 deep."""
    if vertices == 0:
        return "1"
    left = (vertices - 1) // 2
    return f"({_balanced(left)},{_balanced(vertices - 1 - left)})"


def _deep(depth):
    return "(" * depth + "1" + ",1)" * depth


@pytest.mark.parametrize("size", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_nesting_limits_match_the_oracle(size):
    texts = [
        f"+1*<{_deep(size)},1>", f"+1*<1,{_deep(size)}>", f"-2*{_deep(size)}^inf",
        f"+1*<{_balanced(size - 40)},{_balanced(40)}>", f"+3*{_balanced(size)}^inf",
        f"+1*<1,1> + +1*<{_balanced(size)},1>",
    ]
    for text in texts:
        _assert_matches_oracle(text, 1)
    if size > MAX_NESTING:
        with pytest.raises(ParseError, match="nest at most"):
            parse_forest(texts[0], 1)
        with pytest.raises(ParseError, match=f"at most {MAX_NESTING} trivalent vertices"):
            parse_forest(texts[3], 1)
    else:
        assert parse_forest(texts[3], 1).terms[0][1].order == size


PRINTED = [
    "+2*<1,2> + -1*<(1,2),3>",
    "+1*((1,2),1)^inf + +3*<(1,1),(2,2)> + -1*3^inf",
    "-1*<(2,(3,1)),((1,2),3)> + +12*(3,(2,2))^inf",
    " +1 * < ( 2 , 1 ) , 3 > + -1*(1 ,1) ^inf ",
]


def test_insertions_in_every_position_match_the_oracle():
    for text in PRINTED:
        for at in range(len(text) + 1):
            for mark in ("^", "^inf", "-", "0", "٣", "²", " ", "\x00"):
                _assert_matches_oracle(text[:at] + mark + text[at:], 3)


# printed syntax, signs, twist marks, and Unicode digits and spaces: '٣' a
# decimal digit int reads as 3, '٠' one it reads as 0, '²' a digit to
# str.isdigit that is no decimal, spaces to str.isspace, and the NUL that
# the scan appends as its end sentinel
MUTATION_CHARS = "()<>,*+-^inf 0123456789" + "٣٠²\xa0\u2003\t\n\x00"


@st.composite
def _rooted_text(draw, m, leaves):
    if leaves == 1:  # one label in ten may fall outside 1..m
        return str(draw(st.integers(1, m) if draw(st.integers(0, 9)) else st.integers(0, m + 1)))
    left = draw(st.integers(1, leaves - 1))
    return f"({draw(_rooted_text(m, left))},{draw(_rooted_text(m, leaves - left))})"


@st.composite
def _forest_text(draw, m):
    """Forest-grammar text: a printed canonical forest, or raw terms."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.integers(-3, 3))
        leaves = draw(st.integers(1, 6))
        if leaves > 1 and draw(st.booleans()):
            a = draw(st.integers(1, leaves - 1))
            tree = f"<{draw(_rooted_text(m, a))},{draw(_rooted_text(m, leaves - a))}>"
        else:
            tree = f"{draw(_rooted_text(m, leaves))}^inf"
        terms.append(f"{coeff:+d}*{tree}" if draw(st.booleans()) else f"{coeff}*{tree}")
    text = " + ".join(terms)
    if draw(st.booleans()):
        try:
            text = str(parse_forest(text, m))
        except ParseError:
            pass
    return text


@st.composite
def _mutated(draw, text):
    """text with up to four edits: a deleted, inserted or replaced character,
    two characters swapped, or whitespace, a sign or a twist mark put in."""
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "swap", "space", "sign", "twist"]))
        if edit == "delete":
            text = text[:at] + text[at + 1:]
        elif edit == "insert":
            text = text[:at] + draw(st.sampled_from(MUTATION_CHARS)) + text[at:]
        elif edit == "replace":
            text = text[:at] + draw(st.sampled_from(MUTATION_CHARS)) + text[at + 1:]
        elif edit == "swap":
            a, b = sorted((at, draw(st.integers(0, len(text)))))
            if a < b < len(text):
                text = text[:a] + text[b] + text[a + 1:b] + text[a] + text[b + 1:]
        elif edit == "space":
            text = text[:at] + draw(st.sampled_from(" \t\xa0\u2003")) + text[at:]
        elif edit == "sign":
            text = text[:at] + draw(st.sampled_from("+-")) + text[at:]
        else:
            text = text[:at] + draw(st.sampled_from(["^", "^inf", "^in"])) + text[at:]
    return text


@settings(max_examples=1500, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), _forest_text(m).flatmap(_mutated))))
def test_scan_matches_the_recursive_oracle(case):
    m, text = case
    _assert_matches_oracle(text, m)


def test_digit_limit_matches_the_oracle():
    # int reads at most 4,300 digits; a coefficient or label past that is a
    # syntax error at its sign or first digit, where both readers ended in
    # int's ValueError
    assert sys.get_int_max_str_digits() == 4300
    many = "1" * 4301
    for text, at in ((many + "*<1,1>", 0), (" -" + many + "*<1,1>", 1), ("+1*<1," + many + ">", 6),
                     ("2*<1,1" + many + ">", 5), ("1*(( 1, 0" + many + "),1)^inf", 8)):
        _assert_matches_oracle(text, 2)
        with pytest.raises(ParseError) as exc:
            parse_forest(text, 2)
        assert (type(exc.value), str(exc.value)) == (
            ParseError, f"integers may have at most 4300 digits (at position {at})")
    # 4,300 digits are read
    assert parse_forest("1" * 4300 + "*<1,1>", 2).terms[0][0] == int("1" * 4300)
    _assert_matches_oracle("1" * 4300 + "*<1,1>", 2)
