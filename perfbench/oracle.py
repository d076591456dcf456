"""Answers the benchmark computes without forestcalc.

Nothing here imports the program.  Shapes use the same plain notation as the
forest grammar: a label is an int >= 1 and a rooted shape is a pair
``(left, right)``.  A forest term is ``(coeff, "framed", (half_a, half_b))``
or ``(coeff, "twisted", shape)``.

Sources of the expected values:
- Witt numbers W(m, n) by the Moebius sum (1/n) sum_{d | n} mu(d) m^(n/d).
- Free rank of T_n, T_n^inf and of the kernel of the bracket map:
  m W(m, n+1) - W(m, n+2).
- Torsion of T_n^inf: (Z/2)^W(m, (n+2)/4) when n = 2 mod 4, none otherwise
  (Conant-Schneiderman-Teichner); the kernel of eta_n is the same group.
- Framed T_n: only 2-torsion, and none at even n.
- eta and Milnor values as tensors in the free associative algebra, where a
  bracket [a, b] expands to ab - ba.
"""

from __future__ import annotations


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt(m: int, n: int) -> int:
    """Number of Lyndon words of length n over m letters (0 for n < 1)."""
    if n < 1:
        return 0
    total = sum(mobius(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def expected_free_rank(m: int, n: int) -> int:
    return m * witt(m, n + 1) - witt(m, n + 2)


def expected_twisted_torsion(m: int, n: int) -> list:
    return [2] * witt(m, (n + 2) // 4) if n % 4 == 2 else []


def check_group(m: int, n: int, flavor: str, free: int, torsion: list) -> list:
    """Problems with reported invariants of T_n (framed) or T_n^inf (twisted)."""
    problems = []
    if free != expected_free_rank(m, n):
        problems.append(f"free rank {free} != {expected_free_rank(m, n)}")
    if flavor == "twisted":
        if sorted(torsion) != expected_twisted_torsion(m, n):
            problems.append(f"torsion {torsion} != {expected_twisted_torsion(m, n)}")
    elif any(d != 2 for d in torsion) or (n % 2 == 0 and torsion):
        problems.append(f"framed torsion {torsion} is not 2-torsion vanishing at even n")
    return problems


def check_eta_kernel(m: int, n: int, factors: list, cokernel, lift_texts: list) -> list:
    """Problems with eta_kernel / eta_cokernel_invariants output at (m, n)."""
    problems = []
    if sorted(factors) != expected_twisted_torsion(m, n):
        problems.append(f"kernel factors {factors} != {expected_twisted_torsion(m, n)}")
    if list(cokernel[0]) != [] or cokernel[1] != 0:
        problems.append(f"cokernel {cokernel} != ([], 0)")
    for text in lift_texts:
        if tensor_eta(parse_forest(text)):
            problems.append(f"lift {text} does not map to 0 under eta")
            break
    return problems


# ---------------------------------------------------------------------------
# shapes and forests


def shape_text(shape) -> str:
    if isinstance(shape, int):
        return str(shape)
    return f"({shape_text(shape[0])},{shape_text(shape[1])})"


def term_text(coeff: int, kind: str, data) -> str:
    if kind == "framed":
        return f"{coeff:+d}*<{shape_text(data[0])},{shape_text(data[1])}>"
    return f"{coeff:+d}*{shape_text(data)}^inf"


def forest_text(terms) -> str:
    return " + ".join(term_text(*t) for t in terms) if terms else "0"


def shape_labels(shape) -> list:
    if isinstance(shape, int):
        return [shape]
    return shape_labels(shape[0]) + shape_labels(shape[1])


def term_labels(kind: str, data) -> list:
    """Leaf labels, with a twisted tree counting each label twice (as <J,J>)."""
    if kind == "framed":
        return shape_labels(data[0]) + shape_labels(data[1])
    return shape_labels(data) * 2


def parse_forest(text: str) -> list:
    """Terms of a printed forest (the grammar forestcalc prints)."""
    text = text.replace(" ", "")
    if text == "0":
        return []
    pos = 0

    def rooted():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = rooted()
            pos += 1  # ","
            right = rooted()
            pos += 1  # ")"
            return (left, right)
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos])

    terms = []
    while pos < len(text):
        star = text.index("*", pos)
        coeff = int(text[pos:star])
        pos = star + 1
        if text[pos] == "<":
            pos += 1
            a = rooted()
            pos += 1  # ","
            b = rooted()
            pos += 1  # ">"
            terms.append((coeff, "framed", (a, b)))
        else:
            shape = rooted()
            if not text.startswith("^inf", pos):
                raise ValueError(f"bad forest text at {pos}: {text!r}")
            pos += 4
            terms.append((coeff, "twisted", shape))
        if pos < len(text):
            if text[pos] != "+":
                raise ValueError(f"bad forest text at {pos}: {text!r}")
            pos += 1
    return terms


def leaf_rootings(half_a, half_b) -> list:
    """(label, rest) for each leaf of <half_a, half_b>, rest read from that leaf."""
    out = []
    stack = [(half_a, half_b), (half_b, half_a)]
    while stack:
        shape, outside = stack.pop()
        if isinstance(shape, int):
            out.append((shape, outside))
        else:
            left, right = shape
            stack.append((right, (outside, left)))
            stack.append((left, (right, outside)))
    return out


def term_rootings(kind: str, data) -> list:
    """Leaf rootings that make up eta of a term (one copy of <J,J> for J^inf)."""
    if kind == "framed":
        return leaf_rootings(*data)
    rootings = leaf_rootings(data, data)
    return rootings[: len(rootings) // 2]


# ---------------------------------------------------------------------------
# tensors


def shape_tensor(shape) -> dict:
    """Expansion of the bracket of a rooted shape: word tuple -> coefficient."""
    if isinstance(shape, int):
        return {(shape,): 1}
    left, right = shape_tensor(shape[0]), shape_tensor(shape[1])
    out = {}
    for wa, ca in left.items():
        for wb, cb in right.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def multiplicity(word) -> int:
    return max(word.count(i) for i in set(word)) if word else 0


def tensor_eta(terms, k=None) -> dict:
    """eta of a forest as {(root label, word): coeff}; k drops repeats beyond k."""
    out = {}
    for coeff, kind, data in terms:
        if k is not None and multiplicity(term_labels(kind, data)) > k:
            continue
        for label, rest in term_rootings(kind, data):
            for w, c in shape_tensor(rest).items():
                if k is not None and multiplicity(w + (label,)) > k:
                    continue
                key = (label, w)
                out[key] = out.get(key, 0) + coeff * c
    return {key: c for key, c in out.items() if c}


def is_lyndon(word) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


def standard_bracketing(word):
    """Rooted shape of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return word[0]
    for split in range(1, len(word)):
        if is_lyndon(word[split:]):
            return (standard_bracketing(word[:split]), standard_bracketing(word[split:]))
    raise ValueError(f"{word} is not a Lyndon word")


def lyndon_tensor(coeffs) -> dict:
    """Expand ((root label, Lyndon word), coeff) pairs into the tensor algebra."""
    out = {}
    for (label, word), c in coeffs:
        for w, x in shape_tensor(standard_bracketing(tuple(word))).items():
            key = (label, w)
            out[key] = out.get(key, 0) + c * x
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# longitudes of clasper forests


def commutator_word(shape) -> list:
    """Iterated group commutator of a rooted shape, [u, v] = u v u^-1 v^-1.

    Letters are (index, inverse) pairs, as in a longitude file.
    """
    if isinstance(shape, int):
        return [(shape, False)]
    u, v = commutator_word(shape[0]), commutator_word(shape[1])
    return u + v + invert(u) + invert(v)


def invert(word) -> list:
    return [(i, not inv) for i, inv in reversed(word)]


def longitude_words(m: int, terms) -> list:
    """Longitudes of the link made by clasper surgery along a forest.

    Each leaf of each tree contributes the commutator of the rest of the tree,
    read from that leaf, to the longitude of the leaf's label; a coefficient
    c contributes the c-th power.  The Magnus expansion of such a product is
    1 + (eta of the forest) + higher terms.
    """
    words = [[] for _ in range(m)]
    for coeff, kind, data in terms:
        for label, rest in term_rootings(kind, data):
            factor = commutator_word(rest)
            if coeff < 0:
                factor = invert(factor)
            words[label - 1] += factor * abs(coeff)
    return words


def longitude_text(m: int, words) -> str:
    lines = [f"m = {m}"]
    for i, word in enumerate(words, start=1):
        letters = " ".join(("X" if inv else "x") + str(j) for j, inv in word)
        lines.append(f"l{i}: {letters}")
    return "\n".join(lines) + "\n"
