"""Summation maps from tree groups into the bracket kernel.

eta sends a framed tree of order n to the sum over its univalent vertices v
of X_{label(v)} (x) B_v, where B_v is the Lie bracket read off the tree
re-rooted at v.  A twisted tree J^inf maps to half of eta(<J,J>); those
coefficients are always even, so the result stays integral.

Brackets are read off the plane as written: the left branch of each
trivalent vertex comes first.  That is the only orientation choice, and it
is a sign.  Reading the mirror image instead (every pair reversed) applies
one antisymmetry per trivalent vertex of the re-rooted tree, so the mirror
reading of eta_n is (-1)^n times this one, on framed and twisted trees
alike.  Ranks, invariant factors and zero tests do not see that sign.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    BracketNonzeroError,
    DomainError,
    OddCoefficientError,
    OrderMismatchError,
    ParameterError,
)
from .forest import IntersectionForest, make_forest
from .freelie import (
    TensorElement,
    bracket_map,
    k_project_lie,
    k_project_tensor,
    lyndon_words,
    shape_to_lie,
    standard_bracketing,
    word_multiplicity,
)
from .groups import twisted_lie
from .intlinalg import left_kernel, presentation
from .trees import (
    FRAMED,
    TWISTED,
    DecoratedTree,
    leaf_rootings,
    multiplicity,
    twisted_tree,
)


def _eta_framed_raw(m: int, pair) -> dict:
    """Raw tensor coefficients of eta on a framed pair, no basis reduction."""
    acc = {}
    for label, shape in leaf_rootings(*pair):
        lie = shape_to_lie(m, shape)
        for w, c in lie.coeffs:
            key = (label, w)
            acc[key] = acc.get(key, 0) + c
    return acc


def eta_tree(m: int, n: int, tree: DecoratedTree, coeff: int = 1) -> TensorElement:
    """eta of a single canonical tree of generating order n."""
    if tree.kind == FRAMED:
        if tree.order != n:
            raise OrderMismatchError(f"framed tree {tree} has order {tree.order} != {n}")
        acc = {k: coeff * c for k, c in _eta_framed_raw(m, tree.data).items()}
        return TensorElement.make(m, n + 1, acc)
    if tree.kind == TWISTED:
        if 2 * tree.order != n:
            raise OrderMismatchError(
                f"twisted tree {tree} has order {tree.order} != {n}/2"
            )
        acc = {}
        for key, c in _eta_framed_raw(m, (tree.data, tree.data)).items():
            half, rem = divmod(coeff * c, 2)
            if rem:
                raise OddCoefficientError(
                    f"odd coefficient halving eta(<J,J>) for {tree}"
                )
            acc[key] = half
        return TensorElement.make(m, n + 1, acc)
    raise DomainError("eta is defined on framed and twisted trees")


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
    """(lie, group, summands, rows, snf): the twisted T_n^inf on Lie
    coordinates (`twisted_lie`), its `Presentation` and that one's
    summands, eta of each free summand, summed from the images of the
    generators it names as a sparse row over the (label, Lyndon word) keys
    of L_1 (x) L_{n+1}, and the `Presentation` of those rows, which both
    eta_kernel and eta_cokernel_invariants read.
    """
    lie = twisted_lie(m, n)
    group = presentation(lie.relations, len(lie.images))
    summands = group.summands()
    rows = []
    for row in summands[sum(d > 1 for d in group.diag):]:
        acc = {}
        for g, c in row:
            for j, x in lie.images[g].items():
                acc[j] = acc.get(j, 0) + c * x
        rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
    snf = presentation(rows, m * len(lie.words))
    return lie, group, summands, rows, snf


def eta_cokernel_invariants(m: int, n: int):
    """Invariant factors of coker(eta_n) plus its free rank, as (torsion, free).

    The free summands' rows span im(eta).  D_n is a kernel, so saturated in
    L_1 (x) L_{n+1}, and the torsion is that of the rows' presentation.  The
    bracket to L_{n+2} is onto, so D_n has rank m W(m,n+1) - W(m,n+2).
    """
    snf = _free_rows(m, n)[4]
    rank = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
    return sorted(d for d in snf.diag if d > 1), rank - len(snf.pivots) - len(snf.diag)


def eta_kernel(m: int, n: int):
    """Kernel of the induced map T_n^inf -> D_n, as (invariant factors, lifts).

    D_n is torsion-free, so the kernel is the torsion of T_n^inf plus that
    of eta on its free summands.  The lifts are the torsion summands, then
    the free ones combined by the Hermite basis of the left kernel of their
    eta rows, each generator standing for its tree (`TwistedLie.forest`); only
    their classes are fixed, not their strings.  The rows' presentation
    gives their rank, and the left kernel is computed only when that is
    below the row count.
    """
    lie, group, summands, rows, snf = _free_rows(m, n)
    torsion = [d for d in group.diag if d > 1]
    free = summands[len(torsion):]
    kernel = left_kernel(rows) if len(snf.pivots) + len(snf.diag) < len(rows) else []
    lifts = summands[:len(torsion)]
    lifts += [[(g, c * y) for i, c in x for g, y in free[i]] for x in kernel]
    return torsion + [0] * len(kernel), [lie.forest(row) for row in lifts]


def arf_classes(m: int, j: int, k: int):
    """Representatives (J,J)^inf indexed by degree-j Lyndon words.

    In the k-repeating setting only words of multiplicity <= k//4 survive;
    k < 4 leaves nothing.
    """
    if m < 1:
        raise ParameterError(f"arf classes require m >= 1, got {m}")
    if j < 1:
        raise ParameterError(f"arf classes require order >= 1, got {j}")
    if k < 4:
        raise ParameterError("arf classes require k >= 4")
    bound = k // 4
    out = []
    for w in lyndon_words(m, j):
        if word_multiplicity(w) > bound:
            continue
        shape = standard_bracketing(w)
        out.append((w, twisted_tree((shape, shape))))
    return out
