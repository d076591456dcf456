"""Tests of the benchmark's own checks: run with `python3 -m pytest perfbench`."""

import json
import os
import random
import subprocess
import sys

import pytest

from perfbench import oracle, queries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_witt_numbers():
    assert [oracle.witt(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [oracle.witt(3, n) for n in range(1, 6)] == [3, 3, 8, 18, 48]


def test_group_formulas():
    assert oracle.check_group(2, 4, "twisted", 3, []) == []
    assert oracle.check_group(5, 2, "twisted", 50, [2] * 5) == []
    assert oracle.check_group(2, 5, "framed", 0, [2, 2, 2, 2]) == []
    assert oracle.expected_twisted_torsion(2, 6) == [2]  # Z/2 (x) L_2, W(2,2) = 1


def test_perturbed_group_answers_fail():
    assert oracle.check_group(2, 4, "twisted", 4, [])
    assert oracle.check_group(5, 2, "twisted", 50, [2] * 4)
    assert oracle.check_group(2, 5, "framed", 0, [2, 4])
    assert oracle.check_group(5, 2, "framed", 50, [2])


def test_eta_kernel_checks():
    lifts = ["+1*(1,1)^inf + +2*<((1,1),1),1>"]
    assert oracle.check_eta_kernel(1, 2, [2], ([], 0), lifts) == []
    assert oracle.check_eta_kernel(1, 2, [], ([], 0), lifts)
    assert oracle.check_eta_kernel(1, 2, [2], ([2], 0), lifts)
    assert oracle.check_eta_kernel(1, 2, [2], ([], 0), ["+1*<(1,2),3>"])  # Borromean tree


def test_hopf_and_borromean_longitudes():
    hopf = oracle.longitude_words(2, [(1, "framed", (1, 2))])
    assert oracle.longitude_text(2, hopf) == "m = 2\nl1: x2\nl2: x1\n"
    borromean = oracle.longitude_words(3, [(1, "framed", ((2, 3), 1))])
    assert oracle.longitude_text(3, borromean) == (
        "m = 3\nl1: x2 x3 X2 X3\nl2: x3 x1 X3 X1\nl3: x1 x2 X1 X2\n")
    assert oracle.longitude_words(2, [(-2, "framed", (1, 2))]) == [[(2, True)] * 2,
                                                                     [(1, True)] * 2]


def test_forest_printing_round_trip():
    terms = [(-2, "framed", ((1, 2), (3, (1, 1)))), (3, "twisted", ((2, 1), 3))]
    assert oracle.parse_forest(oracle.forest_text(terms)) == terms
    assert oracle.parse_forest("0") == []


def test_relations_have_zero_eta():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        for make in (queries.as_pair, queries.ihx, queries.two_torsion, queries.interior_twist):
            if make is queries.interior_twist and n % 2:
                continue
            assert oracle.tensor_eta(make(rng, m, n)) == {}, make.__name__


def test_scramble_keeps_the_element():
    rng = random.Random(6)
    for _ in range(300):
        term = queries.random_term(rng, 4, rng.randint(0, 4))
        assert oracle.tensor_eta([queries.scramble(rng, term)]) == oracle.tensor_eta([term])


def test_rounds_are_seeded_and_stratified():
    a, b = queries.make_round(3, 0), queries.make_round(3, 0)
    assert a == b and len(a) == sum(count for _, _, count in queries.MIX)
    assert a != queries.make_round(4, 0)
    strata = sorted(q["stratum"] for q in a)
    assert strata == sorted(q["stratum"] for q in queries.make_round(4, 1))
    quick = sum(q["kind"] != "milnor" for q in a)
    assert 2 * quick >= len(a)  # at least half the queries are sub-millisecond kinds


@pytest.fixture(scope="module")
def job():
    from perfbench import job as module

    return module


def test_stream_answers_pass_and_perturbed_ones_fail(job):
    stream = job.Stream()
    stream.build_groups()
    batch = queries.make_round(9, 0)
    for q in batch:
        out = stream.call(q)
        assert stream.check(q, out) == [], q
        if q["kind"] == "obstruct":
            assert stream.check(q, not out)
        elif q["kind"] == "milnor":
            value, result = out
            assert stream.check(q, (value.scale(2), result))
            assert stream.check(q, (value, result.__class__(result.order + 1, result.value,
                                                            result.table)))
        elif q["kind"] == "normalize":
            c, tree = out.terms[0]
            bad = out.__class__(out.m, ((c + 1, tree),) + out.terms[1:])
            assert stream.check(q, bad)
        else:
            mixed = stream.parse_forest("+1*<(1,2),1>", q["m"])
            assert stream.check(q, mixed)


def test_wrong_cold_answer_counts_as_failed(monkeypatch, capsys):
    from perfbench import run

    def fake_spawn(args, deadline):
        report = {"ready": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 10.0, "trace": None,
                  "refs": [0.005, 0.005],
                  "result": {"free_rank": 99, "torsion": [], "generators": 1}}
        return report, 0.0

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "tree-groups", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(run.TREE_GROUP_CELLS)


def test_tracer_spans_layer_boundaries():
    code = """
import json, sys
sys.path[:0] = ["src", "."]
from perfbench.tracer import LayerTracer
from forestcalc import eta
plain = eta.eta_kernel(3, 2)[0]
eta.eta_matrix.cache_clear()
from forestcalc import groups
groups.build_group.cache_clear()
tracer = LayerTracer().install()
from forestcalc import eta
traced = eta.eta_kernel(3, 2)[0]
report = tracer.report()
print(json.dumps({"same": traced == plain, "report": report}))
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    data = json.loads(out.stdout)
    report = data["report"]
    assert data["same"]
    assert report["calls"]["eta"] == 1 and report["calls"]["intlinalg"] > 0
    # eta_kernel calls solve_left once per relation row, and BracketKernel.coordinates,
    # which imports it inside its body, once per generator: both open spans
    coordinates = report["functions"]["freelie.BracketKernel.coordinates"][0]
    assert coordinates > 0
    assert report["functions"]["intlinalg.solve_left"][0] == report["relation_rows"] + coordinates
    assert report["cells_in"] > 0
    assert "trees.shape_key" not in report["functions"]  # calls within a layer open none
