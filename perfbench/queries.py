"""Seeded query stream for the clasper-queries workload.

A round is a fixed, stratified list of queries: every round holds the same
number of queries of each kind and size, and the seed only picks the trees,
labels, coefficients and scrambles inside each stratum.  Generation uses
`oracle` alone; the program sees only the texts made here.
"""

from __future__ import annotations

import random

from . import oracle

# Tree groups T_n^inf (m, n) built during set-up for the zero test.  eta is an
# isomorphism at n = 3, 4 (n != 2 mod 4), so there ZERO holds exactly when
# eta vanishes; at n = 2 only forests whose value is known either way are used.
# Every cell has a nonzero bracket kernel, so eta-nonzero forests exist there.
OBSTRUCT_CELLS = ((2, 2), (3, 2), (3, 3), (2, 4))

# (kind, parameters, queries per round).  Longitude queries cost milliseconds
# to a tenth of a second, the other kinds well under a millisecond, so the
# milnor share sets the total time and the other kinds set the median.
MIX = (
    ("normalize", (3, 2), 6), ("normalize", (4, 3), 6), ("normalize", (3, 4), 6),
    *(("obstruct", cell, 6) for cell in OBSTRUCT_CELLS),
    ("monoize", (2, 1), 6), ("monoize", (3, 2), 6), ("monoize", (2, 2), 6),
    ("milnor", (2, 2, False), 5), ("milnor", (3, 2, True), 5),
    ("milnor", (3, 3, False), 5), ("milnor", (4, 3, True), 5),
    ("milnor", (2, 4, False), 3), ("milnor", (3, 4, True), 3),
)


# ---------------------------------------------------------------------------
# random trees


def random_rooted(rng, labels):
    """A random rooted shape whose leaves carry `labels` in order."""
    if len(labels) == 1:
        return labels[0]
    split = rng.randint(1, len(labels) - 1)
    return (random_rooted(rng, labels[:split]), random_rooted(rng, labels[split:]))


def random_framed(rng, labels):
    """A random framed tree <A, B> with len(labels) - 2 trivalent vertices."""
    split = rng.randint(1, len(labels) - 1)
    return (random_rooted(rng, labels[:split]), random_rooted(rng, labels[split:]))


def random_labels(rng, m, count):
    return [rng.randint(1, m) for _ in range(count)]


def random_term(rng, m, n, allow_twisted=True, size=None):
    """A random order-n framed term, or a twisted one of order n/2 for even n.

    The coefficient is drawn from +-1..3, or is +-size when size is given.
    """
    coeff = rng.choice((-3, -2, -1, 1, 2, 3)) if size is None else rng.choice((-size, size))
    if allow_twisted and n % 2 == 0 and rng.random() < 0.3:
        return coeff, "twisted", random_rooted(rng, random_labels(rng, m, n // 2 + 1))
    return coeff, "framed", random_framed(rng, random_labels(rng, m, n + 2))


def as_swap(rng, shape):
    """Swap branches at random vertices; returns (shape, sign) with sign (-1)^swaps."""
    if isinstance(shape, int):
        return shape, 1
    left, sl = as_swap(rng, shape[0])
    right, sr = as_swap(rng, shape[1])
    if rng.random() < 0.5:
        return (right, left), -sl * sr
    return (left, right), sl * sr


def move_split(rng, pair, moves):
    """Re-present <A, B> at another edge; moving the split point costs no sign."""
    a, b = pair
    for _ in range(moves):
        if rng.random() < 0.5:
            a, b = b, a  # <A, B> = <B, A>
        if isinstance(a, int):
            continue
        if rng.random() < 0.5:
            a, b = a[0], (a[1], b)
        else:
            a, b = a[1], (b, a[0])
    return a, b


def scramble(rng, term):
    """The same tree element written another way: (coeff, kind, data)."""
    coeff, kind, data = term
    if kind == "twisted":
        shape, _ = as_swap(rng, data)  # (-J)^inf = J^inf
        return coeff, kind, shape
    a, b = move_split(rng, data, rng.randint(0, 2 * len(oracle.term_labels(kind, data))))
    a, sa = as_swap(rng, a)
    b, sb = as_swap(rng, b)
    return coeff * sa * sb, kind, (a, b)


# ---------------------------------------------------------------------------
# zero combinations in T_n^inf


def as_pair(rng, m, n):
    coeff, kind, data = random_term(rng, m, n, allow_twisted=False)
    other = scramble(rng, (coeff, kind, data))
    return [(coeff, kind, data), (-other[0], kind, other[2])]


def ihx(rng, m, n):
    """I - H + X for a random split ((A,B),(C,D)) of an order-n tree."""
    labels = random_labels(rng, m, n + 2)
    sizes = [1, 1, 1, 1]
    for _ in range(n + 2 - 4):
        sizes[rng.randrange(4)] += 1
    parts, at = [], 0
    for size in sizes:
        parts.append(random_rooted(rng, labels[at:at + size]))
        at += size
    a, b, c, d = parts
    coeff = rng.choice((-2, -1, 1, 2))
    return [(coeff, "framed", ((a, b), (c, d))),
            (-coeff, "framed", ((a, c), (b, d))),
            (coeff, "framed", ((a, d), (b, c)))]


def two_torsion(rng, m, n):
    """2 <(A, A), B>: the symmetric vertex makes the tree equal to its negative."""
    half = rng.randint(0, (n - 1) // 2)
    a = random_rooted(rng, random_labels(rng, m, half + 1))
    b = random_rooted(rng, random_labels(rng, m, n - 2 * half))
    return [(2 * rng.choice((-1, 1)), "framed", ((a, a), b))]


def interior_twist(rng, m, n):
    """2 J^inf - <J, J>."""
    j = random_rooted(rng, random_labels(rng, m, n // 2 + 1))
    coeff = rng.choice((-1, 1))
    return [(2 * coeff, "twisted", j), (-coeff, "framed", (j, j))]


def zero_combination(rng, m, n):
    makers = [as_pair]
    if n >= 2:
        makers.append(ihx)
    if n >= 1:
        makers.append(two_torsion)
    if n % 2 == 0:
        makers.append(interior_twist)
    return rng.choice(makers)(rng, m, n)


# ---------------------------------------------------------------------------
# queries


def draw(make, accept):
    """Redraw `make()` until `accept` holds for it."""
    for _ in range(1000):
        value = make()
        if accept(value):
            return value
    raise RuntimeError("no acceptable draw; the stratum admits no such input")


def normalize_query(rng, m, n):
    terms, seen, size = [], set(), rng.randint(1, 3)
    while len(terms) < size:
        term = random_term(rng, m, n)
        key = (term[1], tuple(sorted(oracle.term_labels(term[1], term[2]))))
        if key not in seen:  # distinct label multisets: no two terms merge
            seen.add(key)
            terms.append(term)
    scrambled = [scramble(rng, t) for t in terms]
    return {"kind": "normalize", "m": m, "text": oracle.forest_text(scrambled),
            "reference": oracle.forest_text(terms)}


def obstruct_query(rng, m, n):
    terms = []
    for _ in range(rng.randint(1, 3)):
        terms += zero_combination(rng, m, n)
    if rng.random() < 0.5:
        # a random part with nonzero eta is nonzero in T_n^inf
        terms += draw(lambda: [random_term(rng, m, n) for _ in range(rng.randint(1, 2))],
                      oracle.tensor_eta)
    rng.shuffle(terms)
    value = oracle.tensor_eta(terms)
    # where eta is an isomorphism the verdict must follow eta exactly; elsewhere
    # the forest was built to be either a sum of zero relations or eta-nonzero
    return {"kind": "obstruct", "m": m, "n": n, "text": oracle.forest_text(terms),
            "zero": not value}


def monoize_query(rng, m, k):
    """Trees where one label fills more than half the leaves and at least k+1."""
    target = rng.randint(1, m)
    terms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(max(1, 2 * k - 1), 3)
        twisted = n % 2 == 0 and rng.random() < 0.3
        count = n // 2 + 1 if twisted else n + 2
        need = max(k + 1 if not twisted else (k + 2) // 2, count // 2 + 1)
        labels = [target] * need + [rng.choice([x for x in range(1, m + 1) if x != target])
                                    for _ in range(count - need)]
        rng.shuffle(labels)
        coeff = rng.choice((-2, -1, 1, 2))
        if twisted:
            terms.append((coeff, "twisted", random_rooted(rng, labels)))
        else:
            terms.append((coeff, "framed", random_framed(rng, labels)))
    return {"kind": "monoize", "m": m, "k": k, "text": oracle.forest_text(terms)}


def milnor_query(rng, m, n, with_k):
    def forest_and_k():
        # a longitude holds the c-th power of each commutator, so the query's
        # cost follows sum |c|; fixing it at 1 + 2 keeps each stratum's cost narrow
        terms = [random_term(rng, m, n, size=1), random_term(rng, m, n, size=2)]
        if not with_k:
            return terms, None
        top = max(oracle.multiplicity(oracle.term_labels(kind, data)) for _, kind, data in terms)
        return terms, rng.randint(max(1, top - 1), top)

    # a forest whose (k-repeating) eta vanishes has its first invariant elsewhere
    terms, k = draw(forest_and_k, lambda pick: oracle.tensor_eta(*pick))
    words = oracle.longitude_words(m, terms)
    return {"kind": "milnor", "m": m, "n": n, "k": k, "text": oracle.forest_text(terms),
            "longitudes": oracle.longitude_text(m, words)}


def make_round(seed, index: int) -> list:
    """The index-th round of the stream for a seed, in a seeded order.

    The set-up warms the caches with the draw of the seed "warm-up", which no
    timed run uses, so every run's set-up does the same work.
    """
    makers = {"normalize": normalize_query, "obstruct": obstruct_query,
              "monoize": monoize_query, "milnor": milnor_query}
    rng = random.Random(f"clasper-queries/{seed}/{index}")
    queries = []
    for kind, params, count in MIX:
        for _ in range(count):
            query = makers[kind](rng, *params)
            query["stratum"] = f"{kind}{params}"
            queries.append(query)
    rng.shuffle(queries)
    return queries
