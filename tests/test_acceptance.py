"""Acceptance gate: one test per headline criterion, each printing a verdict line."""

import random
import subprocess
import sys

from sympy import divisors, mobius

from lie_oracle import k_project_tensor
from table_oracle import framed_generators, table_group, twisted_generators

from forestcalc.cli import main as cli_main
from forestcalc.eta import (
    eta,
    eta_cokernel_invariants,
    eta_k,
    eta_kernel,
    milnor_from_forest,
)
from forestcalc.forest import make_forest, parse_forest
from forestcalc.freelie import (
    bracket_kernel,
    bracket_map_cokernel,
    lyndon_words,
)
from forestcalc.groups import build_group
from forestcalc.magnus import milnor_from_longitudes, parse_longitudes
from forestcalc.rewrite import collapse_framed_edge, collapse_twisted_edge, monoize_forest
from forestcalc.trees import multiplicity, tree_stats, twisted_tree


def _verdict(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_witt_counts():
    ok = True
    for m in (1, 2, 3):
        for n in range(1, 7):
            expect = sum(mobius(d) * m ** (n // d) for d in divisors(n)) // n
            ok = ok and len(lyndon_words(m, n)) == expect
    _verdict(1, "Lyndon basis sizes match the Witt formula (m<=3, n<=6)", ok)


def test_criterion_2_bracket_kernel_ranks():
    ok = True
    for m in (1, 2, 3):
        for n in range(0, 5):
            kern = bracket_kernel(m, n)
            expect = m * len(lyndon_words(m, n + 1)) - len(lyndon_words(m, n + 2))
            ok = ok and kern.rank == expect
            ok = ok and bracket_map_cokernel(m, n) == []
    ok = ok and bracket_kernel(2, 1).rank == 0
    ok = ok and bracket_kernel(3, 1).rank == 1
    _verdict(2, "bracket map surjective with kernel of the predicted rank", ok)


def test_criterion_3_eta_isomorphism():
    ok = True
    pairs = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1),
             (1, 3), (2, 3), (1, 4), (2, 4)]
    for m, n in pairs:
        kernel_invfac, _ = eta_kernel(m, n)
        cok = eta_cokernel_invariants(m, n)
        ok = ok and kernel_invfac == [] and cok == ([], 0)
    _verdict(3, "eta is an isomorphism at orders 0, 1, 3, 4", ok)


def test_criterion_4_kernel_at_order_two():
    ok = True
    for m in (1, 2, 3):
        invfac, lifts = eta_kernel(m, 2)
        ok = ok and invfac == [2] * m
        group = build_group(m, 2, "twisted")
        reps = {
            tuple(group.reduce_forest(make_forest(m, [(1, twisted_tree((i, i)))])).coords)
            for i in range(1, m + 1)
        }
        classes = {tuple(group.reduce_forest(f).coords) for f in lifts}
        ok = ok and classes == reps
    _verdict(4, "Ker(eta_2) = (Z/2)^m with classes of (i,i)^inf", ok)


def test_criterion_5_relation_soundness():
    ok = True
    for m in (1, 2):
        for n in range(0, 5):
            group = table_group(m, n, "twisted")
            for rel in group.relations:
                terms = [(c, group.generators[i]) for i, c in rel]
                if not eta(make_forest(m, terms), n).is_zero:
                    ok = False
            for gen in group.generators:
                if gen.kind != "twisted":
                    continue
                from forestcalc.trees import framed_tree

                pair, sign = framed_tree(gen.data, gen.data)
                two_inf = eta(make_forest(m, [(2, gen)]), n)
                framed = eta(make_forest(m, [(sign, pair)]), n)
                if two_inf != framed:
                    ok = False
    _verdict(5, "eta kills every relation row (m<=2, n<=4) incl. the half rule", ok)


HOPF = "m = 2\nl1: x2\nl2: x1\n"
BORROMEAN = (
    "m = 3\nl1: x2 x3 X2 X3\nl2: x3 x1 X3 X1\nl3: x1 x2 X1 X2\n"
)


def test_criterion_6_milnor_oracle():
    hopf = milnor_from_longitudes(parse_longitudes(HOPF))
    forest_value = milnor_from_forest(parse_forest("+1*<1,2>", 2), 0)
    ok = hopf.order == 0 and hopf.value == forest_value

    borr = milnor_from_longitudes(parse_longitudes(BORROMEAN))
    ok = ok and borr.order == 1
    kern = bracket_kernel(3, 1)
    ok = ok and kern.rank == 1 and not borr.value.is_zero
    coeffs = {(w, i): c for w, i, c in borr.table}
    ok = ok and all(c in (-1, 0, 1) for c in coeffs.values())
    ok = ok and coeffs.get(((1, 2), 3), 0) != 0
    _verdict(6, "Magnus oracle agrees on Hopf and Borromean data", ok)


def _random_forest(rng, m, order, flavor_twisted):
    pool = list(framed_generators(m, order))
    if flavor_twisted and order % 2 == 0:
        pool += list(twisted_generators(m, order // 2))
    terms = []
    for _ in range(rng.randint(1, 4)):
        terms.append((rng.randint(-3, 3), rng.choice(pool)))
    return make_forest(m, terms)


def test_criterion_7_k_repeating_laws():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        m = rng.randint(1, 3)
        order = rng.randint(0, 3)
        k = rng.randint(1, 2)
        forest = _random_forest(rng, m, order, flavor_twisted=True)
        filtered = make_forest(
            m, [(c, t) for c, t in forest.terms if multiplicity(t) <= k]
        )
        if eta_k(forest, order, k) != k_project_tensor(eta(filtered, order), k):
            ok = False
        big = 2 * (order + 1)  # no order-n tree exceeds this multiplicity
        full = build_group(m, order, "twisted")
        capped = build_group(m, order, "twisted", big)
        if full.is_zero(forest) != capped.is_zero(forest):
            ok = False
    _verdict(7, "k-repeating eta and obstruction laws on 200 random forests", ok)


def test_criterion_8_rewriting_suite():
    ok = True
    rng = random.Random(31)
    for m in (1, 2, 3):
        for order in (1, 2, 3, 4):
            for tree in framed_generators(m, order):
                label = rng.choice(tree.leaves())
                out = collapse_framed_edge(1, tree, label)
                if not make_forest(m, out).is_zero:
                    ok = False
                r_in = tree_stats(tree).r
                for _, x in out:
                    if tree_stats(x).r.get(label, 0) != r_in[label] - 1:
                        ok = False
            for tree in twisted_generators(m, (order + 1) // 2):
                label = tree.leaves()[0]
                r_in = tree_stats(tree).r
                for _, x in collapse_twisted_edge(1, tree, label):
                    if tree_stats(x).r.get(label, 0) != r_in[label] - 2:
                        ok = False
    for m in (1, 2, 3):
        for order in (1, 2, 3, 4):
            for tree in framed_generators(m, order):
                k = tree_stats(tree).r_max - 1
                if k < 1:
                    continue
                try:
                    result, _ = monoize_forest(make_forest(m, [(1, tree)]), k)
                except Exception:
                    ok = False
                    continue
                if not all(tree_stats(t).mono_labeled for _, t in result.terms):
                    ok = False
    _verdict(8, "collapse bookkeeping and monoize sweep (order<=4, m<=3)", ok)


GOLDEN_COMMANDS = [
    ["group", "--m", "2", "--order", "2", "--flavor", "twisted"],
    ["group", "--m", "1", "--order", "1", "--flavor", "framed"],
    ["obstruct", "--m", "2", "--order", "0", "--flavor", "framed", "+1*<1,2> + -1*<1,2>"],
    ["obstruct", "--m", "1", "--order", "2", "--flavor", "twisted",
     "+2*(1,1)^inf + -1*<(1,1),(1,1)>"],
    ["arf", "--m", "2", "--order", "1", "--k", "4"],
    ["lie", "--m", "2", "--order", "4"],
    ["normalize", "--m", "3", "+1*<(2,1),3> + +2*((2,1),3)^inf"],
    ["monoize", "--m", "2", "--k", "1", "+1*<(1,2),2>"],
]
# eta at odd n: the mirror reading negates the printed value
ODD_ORDER_MILNOR = ["milnor", "--m", "3", "--order", "1", "+1*<(1,2),3>"]


def _run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "forestcalc.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_determinism(capsys, monkeypatch):
    ok = True
    baseline = []
    for argv in GOLDEN_COMMANDS:
        runs = {_run_cli(argv) for _ in range(3)}
        ok = ok and len(runs) == 1
        baseline.append(runs.pop())
    borromean = milnor_from_longitudes(parse_longitudes(BORROMEAN)).value
    ok = ok and {_run_cli(ODD_ORDER_MILNOR) for _ in range(3)} == {
        (0, f"order 1; value: {borromean}\n")
    }
    # the mirror reading of eta is (-1)^n times the plane one: every golden
    # is unchanged under it, and the odd-order milnor value is negated
    import forestcalc.eta
    import forestcalc.groups

    plane_eta_tree = forestcalc.eta.eta_tree
    plane_twisted_block = forestcalc.groups.twisted_block
    reached = set()  # goldens whose eta_kernel read the images in the mirror convention

    def mirror_twisted_block(n, *args):
        block = plane_twisted_block(n, *args)
        reached.add(golden)
        sign = (-1) ** n
        return block._replace(images=tuple(
            {j: sign * c for j, c in image.items()} for image in block.images
        ))

    monkeypatch.setattr(
        forestcalc.eta, "eta_tree",
        lambda m, n, tree, coeff=1: plane_eta_tree(m, n, tree, coeff).scale((-1) ** n),
    )
    monkeypatch.setattr(forestcalc.groups, "twisted_block", mirror_twisted_block)
    try:
        for idx in range(len(GOLDEN_COMMANDS)):
            golden = GOLDEN_COMMANDS[idx][0]
            # the blocks are built once per process, for group and eta
            # alike: each golden builds its own
            forestcalc.groups.lie_block.cache_clear()
            forestcalc.eta._free_rows.cache_clear()
            code, out = cli_main_capture(GOLDEN_COMMANDS[idx], capsys)
            if (code, out) != baseline[idx]:
                ok = False
        code, out = cli_main_capture(ODD_ORDER_MILNOR, capsys)
        ok = ok and (code, out) == (0, f"order 1; value: {borromean.scale(-1)}\n")
    finally:
        forestcalc.groups.lie_block.cache_clear()
        forestcalc.eta._free_rows.cache_clear()
    ok = ok and "arf" in reached
    _verdict(9, "CLI goldens byte-identical across runs and conventions", ok)


def cli_main_capture(argv, capsys):
    capsys.readouterr()
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out
