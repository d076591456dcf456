"""Summation maps from tree groups into the bracket kernel.

eta sends a framed tree of order n to the sum over its univalent vertices v
of X_{label(v)} (x) B_v, where B_v is the Lie bracket read off the tree
re-rooted at v.  A twisted tree J^inf maps to half of eta(<J,J>), whose two
halves read alike, so to the readings of one half: the result is integral.

Every B_v is read in one walk (`freelie.tree_readings`): each subtree's
Lyndon coordinates are reduced once, and the bracket y of the rest of the
tree is carried down to every leaf, into the left branch a of a vertex
(a, b) as [b, y] and into the right branch as [y, a].  So brackets are read
off the plane as written, the left branch of each trivalent vertex first.
That is the only orientation choice, and it is a sign.  Reading the mirror
image instead (every pair reversed) applies one antisymmetry per trivalent
vertex of the re-rooted tree, so the mirror reading of eta_n is (-1)^n
times this one, on framed and twisted trees alike.  Ranks, invariant
factors and zero tests do not see that sign.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    BracketNonzeroError,
    DomainError,
    NotPrimitiveError,
    OrderMismatchError,
    ParameterError,
)
from .forest import IntersectionForest, make_forest
from .freelie import (
    TensorElement,
    bracket_map,
    k_project_lie,
    k_project_tensor,
    lie_coordinates,
    lyndon_words,
    standard_bracketing,
    tree_readings,
    witt,
    word_multiplicity,
)
from .groups import FLAVOR_TWISTED, content_orbit, divisibility_chain, lie_blocks
from .intlinalg import left_kernel, presentation
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    multiplicity,
    twisted_tree,
)


def eta_tree(m: int, n: int, tree: DecoratedTree, coeff: int = 1) -> TensorElement:
    """eta of a single canonical tree of generating order n, read in one
    walk (`tree_readings`) over both halves of a framed <A, B>, and over
    one half of <J, J> for J^inf, as its two halves read alike.

    A reading with a nonzero bracket of a label outside 1..m has no place
    in L_1 (x) L_{n+1} of m labels and is refused.
    """
    if tree.kind == FRAMED:
        if tree.order != n:
            raise OrderMismatchError(f"framed tree {tree} has order {tree.order} != {n}")
        halves = tree.data, tree.data[::-1]
    elif tree.kind == TWISTED:
        if 2 * tree.order != n:
            raise OrderMismatchError(
                f"twisted tree {tree} has order {tree.order} != {n}/2"
            )
        halves = (tree.data, tree.data),
    else:
        raise DomainError("eta is defined on framed and twisted trees")
    past = not all(0 < x <= m for x in tree.leaves())
    acc, memo, known = {}, {}, {}
    for half, rest in halves:
        for label, reading in tree_readings(half, lie_coordinates(rest, memo, known), memo, known):
            for word, c in reading.items():
                if c:
                    if past and not all(0 < x <= m for x in word):
                        raise NotPrimitiveError(f"eta of {tree} reads a bracket of labels outside 1..{m}")
                    acc[label, word] = acc.get((label, word), 0) + coeff * c
    return TensorElement.make(m, n + 1, acc)


def eta(forest: IntersectionForest, n: int) -> TensorElement:
    """eta_n of a forest; every term must have generating order n."""
    out = TensorElement.zero(forest.m, n + 1)
    for coeff, tree in forest.terms:
        out = out + eta_tree(forest.m, n, tree, coeff)
    return out


def eta_k(forest: IntersectionForest, n: int, k: int) -> TensorElement:
    """k-repeating eta: drop trees of multiplicity > k, project the image."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    filtered = make_forest(
        forest.m,
        [(c, t) for c, t in forest.terms if multiplicity(t) <= k],
    )
    return k_project_tensor(eta(filtered, n), k)


def milnor_from_forest(forest: IntersectionForest, n: int, k=None) -> TensorElement:
    """The order-n invariant of a forest, checked to lie in the bracket kernel."""
    image = eta(forest, n) if k is None else eta_k(forest, n, k)
    check = bracket_map(image)
    if k is not None:
        check = k_project_lie(check, k)
    if not check.is_zero:
        raise BracketNonzeroError("eta image escapes the bracket kernel")
    return image


@lru_cache(maxsize=None)
def _free_rows(m: int, n: int):
    """(size, block, group, summands, rows, snf) per S_m-orbit of contents
    with a nonempty block: the orbit's size, its representative's block of
    the twisted T_n^inf and the block's `Presentation` (`lie_blocks`, which
    `group` shares), that one's summands, eta of each free summand as a
    sparse row over the block's (label, Lyndon word) keys, and the rows'
    `Presentation`, which eta_kernel and eta_cokernel_invariants read.
    """
    out = []
    for _, size, block, group in lie_blocks(m, n, FLAVOR_TWISTED):
        if not block.images:
            continue
        summands = group.summands()
        rows = []
        for row in summands[sum(d > 1 for d in group.diag):]:
            acc = {}
            for g, c in row:
                for j, x in block.images[g].items():
                    acc[j] = acc.get(j, 0) + c * x
            rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
        out.append((size, block, group, summands, rows, presentation(rows, len(block.framed))))
    return tuple(out)


def eta_cokernel_invariants(m: int, n: int):
    """Invariant factors of coker(eta_n) plus its free rank, as (torsion, free).

    The free summands' rows span im(eta) in each block.  D_n is a kernel,
    so saturated in L_1 (x) L_{n+1}, and the torsion is that of the rows'
    presentations, once per block of each orbit.  The bracket to L_{n+2} is
    onto, so D_n has rank m W(m,n+1) - W(m,n+2).
    """
    rank, torsion = m * witt(m, n + 1) - witt(m, n + 2), []
    for size, *_, snf in _free_rows(m, n):
        rank -= size * (len(snf.pivots) + len(snf.diag))
        torsion += [d for d in snf.diag if d > 1] * size
    return divisibility_chain(torsion)[0], rank


def eta_kernel(m: int, n: int):
    """Kernel of the induced map T_n^inf -> D_n, as (invariant factors, lifts).

    D_n is torsion-free, so a block's kernel is its torsion plus that of eta
    on its free summands: the lifts are the torsion summands, then the free
    ones combined by the Hermite basis of the left kernel of their eta rows,
    computed only when the rows' presentation gives a rank below the row
    count.  Each block of an orbit takes the representative's lifts
    relabeled (`TwistedBlock.forest`), in the order of the contents, and the
    factors of all blocks merge into one chain.  Only the lifts' classes
    are fixed, not their strings.
    """
    found = []  # (content, factors, lifts) of each block with a kernel
    for _, block, group, summands, rows, snf in _free_rows(m, n):
        torsion = [d for d in group.diag if d > 1]
        free = summands[len(torsion):]
        kernel = left_kernel(rows) if len(snf.pivots) + len(snf.diag) < len(rows) else []
        lifts = summands[:len(torsion)]
        lifts += [[(g, c * y) for i, c in x for g, y in free[i]] for x in kernel]
        if lifts:
            found += [(content, torsion + [0] * len(kernel), [block.forest(r, labels) for r in lifts])
                      for content, labels in content_orbit(m, block.content)]
    found.sort(key=lambda f: f[0])
    factors, merged = divisibility_chain([d for _, ds, _ in found for d in ds])
    lifts = [lift for *_, forests in found for lift in forests]
    return factors, [make_forest(m, [(c * x, t) for i, c in row for x, t in lifts[i].terms])
                     for row in merged.summands()]


def check_arf_parameters(m: int, j: int, k: int):
    """Refuse the parameters that `arf_classes` has no classes for."""
    if m < 1:
        raise ParameterError(f"arf classes require m >= 1, got {m}")
    if j < 1:
        raise ParameterError(f"arf classes require order >= 1, got {j}")
    if k < 4:
        raise ParameterError("arf classes require k >= 4")


def arf_classes(m: int, j: int, k: int):
    """Representatives (J,J)^inf indexed by degree-j Lyndon words.

    In the k-repeating setting only words of multiplicity <= k//4 survive;
    k < 4 leaves nothing.
    """
    check_arf_parameters(m, j, k)
    bound = k // 4
    out = []
    for w in lyndon_words(m, j):
        if word_multiplicity(w) > bound:
            continue
        shape = standard_bracketing(w)
        out.append((w, twisted_tree((shape, shape))))
    return out
