import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forestcalc import eta as eta_module
from forestcalc.cli import main
from forestcalc.forest import MAX_NESTING, parse_forest
from forestcalc.magnus import milnor_from_longitudes, parse_longitudes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_example(capsys):
    code, out, _ = run(capsys, "group", "--m", "1", "--order", "1", "--flavor", "framed")
    assert code == 0
    assert out == "Z^0 + Z/2\n"


def test_obstruct_zero(capsys):
    code, out, _ = run(
        capsys,
        "obstruct", "--m", "2", "--order", "0", "--flavor", "framed",
        "+1*<1,2> + -1*<1,2>",
    )
    assert code == 0
    assert out == "ZERO\n"


def test_obstruct_nonzero_witness(capsys):
    code, out, _ = run(
        capsys,
        "obstruct", "--m", "2", "--order", "0", "--flavor", "framed", "+1*<1,2>",
    )
    assert code == 0
    assert out.splitlines()[0] == "NONZERO"
    assert out.splitlines()[1].startswith("witness:")


@pytest.mark.parametrize(
    "forest, verdict",
    [
        ("+1*<((((((1,2),1),1),1),1),(1,2)),(1,2)>", "ZERO"),
        ("+1*((((1,2),1),2),1)^inf", "NONZERO"),
    ],
)
def test_obstruct_large_twisted_cell(capsys, forest, verdict):
    # (2,8) twisted has 2,430 generators and 10,198 relation rows; the
    # normal form comes from the unit-pivot presentation, on 13 survivors
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "obstruct", "--m", "2", "--order", "8", "--flavor", "twisted", forest
    )
    assert code == 0
    assert out.splitlines()[0] == verdict
    assert time.perf_counter() - start < 30


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--m", "3", "+1*<(2,1),3>")
    assert code == 0
    assert out == "-1*<(1,2),3>\n"


HOPF = "m = 2\nl1: x2\nl2: x1\n"
BORROMEAN = "m = 3\nl1: x2 x3 X2 X3\nl2: x3 x1 X3 X1\nl3: x1 x2 X1 X2\n"
WHITEHEAD = (
    "m = 2\n"
    "l1: x2 x1 x2 X1 X2 X2 x2 x1 X2 X1\n"
    "l2: x1 x2 X1 X2 x1 x2 x1 X2 X1 X1\n"
)

# full stdout of `milnor --longitudes`, plain and --json
MILNOR_GOLDENS = [
    (HOPF, [], "order 0; mu(12)=1 mu(21)=1\nvalue: +1*x1 (x) x2 + +1*x2 (x) x1\n"),
    (HOPF, ["--json"],
     '{"mu": [{"coeff": 1, "longitude": 2, "word": [1]}, '
     '{"coeff": 1, "longitude": 1, "word": [2]}], "order": 0, '
     '"value": "+1*x1 (x) x2 + +1*x2 (x) x1"}\n'),
    (BORROMEAN, [],
     "order 1; mu(123)=1 mu(132)=-1 mu(213)=-1 mu(231)=1 mu(312)=1 mu(321)=-1\n"
     "value: +1*x1 (x) [x2,x3] + -1*x2 (x) [x1,x3] + +1*x3 (x) [x1,x2]\n"),
    (BORROMEAN, ["--json"],
     '{"mu": [{"coeff": 1, "longitude": 3, "word": [1, 2]}, '
     '{"coeff": -1, "longitude": 2, "word": [1, 3]}, '
     '{"coeff": -1, "longitude": 3, "word": [2, 1]}, '
     '{"coeff": 1, "longitude": 1, "word": [2, 3]}, '
     '{"coeff": 1, "longitude": 2, "word": [3, 1]}, '
     '{"coeff": -1, "longitude": 1, "word": [3, 2]}], "order": 1, '
     '"value": "+1*x1 (x) [x2,x3] + -1*x2 (x) [x1,x3] + +1*x3 (x) [x1,x2]"}\n'),
    (WHITEHEAD, [],
     "order 2; mu(1122)=-1 mu(1212)=2 mu(1221)=-1 mu(2112)=-1 mu(2121)=2 mu(2211)=-1\n"
     "value: -1*x1 (x) [[x1,x2],x2] + -1*x2 (x) [x1,[x1,x2]]\n"),
    (WHITEHEAD, ["--json"],
     '{"mu": [{"coeff": -1, "longitude": 2, "word": [1, 1, 2]}, '
     '{"coeff": 2, "longitude": 2, "word": [1, 2, 1]}, '
     '{"coeff": -1, "longitude": 1, "word": [1, 2, 2]}, '
     '{"coeff": -1, "longitude": 2, "word": [2, 1, 1]}, '
     '{"coeff": 2, "longitude": 1, "word": [2, 1, 2]}, '
     '{"coeff": -1, "longitude": 1, "word": [2, 2, 1]}], "order": 2, '
     '"value": "-1*x1 (x) [[x1,x2],x2] + -1*x2 (x) [x1,[x1,x2]]"}\n'),
    ("m = 1\nl1: x1\n", ["--k", "1", "--cap", "4"],
     "all invariants vanish through order 4\n"),
]


def test_milnor_longitudes(capsys, tmp_path):
    path = tmp_path / "link.lnk"
    for text, options, expected in MILNOR_GOLDENS:
        path.write_text(text)
        code, out, err = run(capsys, "milnor", "--longitudes", str(path), *options)
        assert (code, out, err) == (0, expected, "")


def test_milnor_freely_trivial_longitude(capsys, tmp_path):
    # w w^-1 with 40 letters in w: free reduction leaves the empty word
    w = " ".join(["x1 x2 x3 x4 X1 X2 X3 X4"] * 5)
    w_inverse = " ".join(t.swapcase() for t in reversed(w.split()))
    path = tmp_path / "trivial.lnk"
    path.write_text(f"m = 4\nl1: {w} {w_inverse}\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "milnor", "--longitudes", str(path), "--cap", "12")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "all invariants vanish through order 12\n")


def test_milnor_forest(capsys):
    code, out, _ = run(capsys, "milnor", "--m", "2", "--order", "0", "+1*<1,2>")
    assert code == 0
    assert "x1 (x) x2" in out


def test_lie(capsys):
    code, out, _ = run(capsys, "lie", "--m", "2", "--order", "2")
    assert code == 0
    assert out == "[x1,x2]\n"


def test_arf(capsys):
    code, out, _ = run(capsys, "arf", "--m", "1", "--order", "1", "--k", "4")
    assert code == 0
    assert out == (
        "classes: (1,1)^inf\n"
        "kernel: 2\n"
        "lift: +1*(1,1)^inf\n"
    )
    code, out, _ = run(capsys, "arf", "--m", "2", "--order", "1", "--k", "4")
    assert code == 0
    assert out == (
        "classes: (1,1)^inf (2,2)^inf\n"
        "kernel: 2 2\n"
        "lift: +1*(1,1)^inf\n"
        "lift: +1*(2,2)^inf\n"
    )


def test_arf_order_zero(capsys):
    code, out, err = run(capsys, "arf", "--m", "2", "--order", "0", "--k", "4")
    assert code == 1
    assert out == ""
    assert err == "error[bad-parameter]: arf classes require order >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["milnor", "--longitudes", "HOPF", "--k", "0"], "k must be >= 1, got 0"),
        (["milnor", "--longitudes", "HOPF", "--k", "-2"], "k must be >= 1, got -2"),
        (["eta", "--m", "2", "--order", "0", "--k", "0", "+1*<1,2>"], "k must be >= 1, got 0"),
        (["milnor", "--m", "2", "--order", "0", "--k", "0", "+1*<1,2>"], "k must be >= 1, got 0"),
        (["monoize", "--m", "2", "--k", "0", "+1*<(1,2),2>"], "k must be >= 1, got 0"),
        (["arf", "--m", "0", "--order", "1", "--k", "4"], "arf classes require m >= 1, got 0"),
        (["normalize", "--m", "0", "+1*<1,1>"], "index count m must be >= 1, got 0"),
        (["normalize", "--m", "-3", "+1*<1,1>"], "index count m must be >= 1, got -3"),
    ],
)
def test_bad_k_or_m_is_bad_parameter(capsys, tmp_path, argv, err):
    hopf = tmp_path / "hopf.lnk"
    hopf.write_text(HOPF)
    argv = [str(hopf) if a == "HOPF" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error[bad-parameter]: {err}\n")


def test_collapse(capsys):
    code, out, _ = run(capsys, "collapse", "--m", "3", "+1*<(1,2),3>", "3")
    assert code == 0
    assert out == "+1*<1,2> + -1*<1,2>\n"


def test_monoize(capsys):
    code, out, _ = run(capsys, "monoize", "--m", "2", "--k", "1", "+1*<(1,2),2>")
    assert code == 0
    assert out.splitlines()[-1] == "result: 0"


def test_json_mirror(capsys):
    code, out, _ = run(
        capsys, "group", "--m", "2", "--order", "0", "--flavor", "framed", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "Z^3"
    assert data["free_rank"] == 3


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "normalize", "--m", "2", "+1*<1,4>")
    assert code == 2
    assert err.startswith("error[label-out-of-range]")


def _nested(depth):
    shape = "1"
    for _ in range(depth):
        shape = f"({shape},1)"
    return shape


def test_nesting_limit(capsys):
    for depth in (MAX_NESTING + 1, 2000):
        code, out, err = run(capsys, "normalize", "--m", "1", f"+1*<{_nested(depth)},1>")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[syntax-error]: trees may nest at most")
    code, out, err = run(capsys, "normalize", "--m", "1", f"+1*<{_nested(MAX_NESTING)},1>")
    assert code == 0
    assert err == ""
    assert out.startswith("+1*<((")


def test_vertex_limit(capsys):
    # order 105 although no half nests deeper than 100: its canonical form
    # is re-rooted and would print 105 levels deep
    text = f"+1*<{_nested(MAX_NESTING)},{_nested(5)}>"
    code, out, err = run(capsys, "normalize", "--m", "1", text)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error[syntax-error]: trees may have at most")


def test_normalize_output_parses_back():
    # order exactly MAX_NESTING, re-rooted by canonicalization
    text = f"+1*<{_nested(MAX_NESTING - 5)},{_nested(5)}>"
    once = str(parse_forest(text, 1))
    assert str(parse_forest(once, 1)) == once


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "collapse", "--m", "2", "+1*<1,2>", "1")
    assert code == 1
    assert err.startswith("error[domain-error]")


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "milnor", "--longitudes", "/nonexistent.lnk")
    assert code == 1
    assert err.startswith("error[io-error]")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    # the reader closes stdout before anything is written: the run ends with
    # 0 and nothing on stderr, whether stdout is buffered or not
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "forestcalc.cli", "normalize", "--m", "2", "+1*<1,2>"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_determinism_three_runs(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(
            capsys, "group", "--m", "2", "--order", "2", "--flavor", "twisted", "--json"
        )
        outs.add(out)
    assert len(outs) == 1


def test_sign_robust_across_conventions(capsys, monkeypatch):
    """The mirror reading of eta is (-1)^n times the plane one.

    Groups, kernels and verdicts ignore it; the order-1 milnor value, the
    only output here with eta at odd n, is negated.
    """
    borromean = milnor_from_longitudes(parse_longitudes(BORROMEAN)).value
    plane = _sign_robust_outputs(capsys)
    assert plane[-1] == f"order 1; value: {borromean}\n"
    plane_eta_tree = eta_module.eta_tree
    plane_eta_images = eta_module._eta_images
    reached = []  # the (m, n) of each image eta_kernel read in the mirror convention

    def mirror_eta_images(m, n, gens):
        for image in plane_eta_images(m, n, gens):
            reached.append((m, n))
            yield image.scale((-1) ** n)

    monkeypatch.setattr(
        eta_module, "eta_tree",
        lambda m, n, tree, coeff=1: plane_eta_tree(m, n, tree, coeff).scale((-1) ** n),
    )
    monkeypatch.setattr(eta_module, "_eta_images", mirror_eta_images)
    eta_module._free_rows.cache_clear()
    try:
        mirror = _sign_robust_outputs(capsys)
    finally:
        eta_module._free_rows.cache_clear()
    assert plane[:-1] == mirror[:-1]
    assert mirror[-1] == f"order 1; value: {borromean.scale(-1)}\n"
    assert (2, 2) in reached  # the arf kernel went through the mirror reading


def _sign_robust_outputs(capsys):
    _, out_group, _ = run(
        capsys, "group", "--m", "2", "--order", "1", "--flavor", "twisted"
    )
    _, out_arf, _ = run(capsys, "arf", "--m", "2", "--order", "1", "--k", "4")
    _, out_obstruct, _ = run(
        capsys,
        "obstruct", "--m", "1", "--order", "1", "--flavor", "framed",
        "+2*<(1,1),1>",
    )
    _, out_milnor, _ = run(capsys, "milnor", "--m", "3", "--order", "1", "+1*<(1,2),3>")
    return out_group, out_arf.splitlines()[:2], out_obstruct, out_milnor


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--m", "x"],
        ["group", "--m", "2", "--order", "1", "--flavor", "bogus"],
        [],
        ["normalize", "--k", "1"],
    ],
)
def test_usage_error_is_one_tagged_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[syntax-error]:")


# ---------------------------------------------------------------------------
# cold start: a command builds only its own subparser, and importing the CLI
# pulls in no code generation; help and usage errors still list every command

EVERY_COMMAND = "{normalize,group,obstruct,eta,milnor,lie,arf,collapse,monoize}"


def test_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys; before = set(sys.modules); import forestcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_unknown_command_lists_every_command(capsys):
    assert run(capsys, "bogus") == (
        2, "",
        "error[syntax-error]: argument command: invalid choice: 'bogus' (choose from "
        "'normalize', 'group', 'obstruct', 'eta', 'milnor', 'lie', 'arf', 'collapse', "
        "'monoize')\n",
    )


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_top_level_help_lists_every_command(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["usage: forestcalc [-h]", " " * 18 + EVERY_COMMAND, " " * 18 + "..."]
    assert lines[7:17] == [
        "  " + EVERY_COMMAND,
        "    normalize           parse and canonically print a forest",
        "    group               invariants of a tree group",
        "    obstruct            test a forest for zero in a tree group",
        "    eta                 summation map of a forest",
        "    milnor              first nonvanishing invariant",
        "    lie                 Lyndon bracket basis of a graded piece",
        "    arf                 twist classes and the order-2j kernel",
        "    collapse            one edge collapse on a single term",
        "    monoize             collapse a forest to mono-labeled trees",
    ]


def test_command_help_and_missing_arguments(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["obstruct", "--help"])
    assert capsys.readouterr().out.splitlines()[:2] == [
        "usage: forestcalc obstruct [-h] --m M --order ORDER [--k K] [--json] --flavor",
        "                           {framed,twisted}",
    ]
    assert run(capsys, "obstruct") == (
        2, "",
        "error[syntax-error]: the following arguments are required: "
        "--m, --order, forest, --flavor\n",
    )


# ---------------------------------------------------------------------------
# fuzzing: every input ends with exit 0, 1 or 2, and a nonzero exit with one
# tagged stderr line; an uncaught exception fails the test with its traceback

TAGGED = re.compile(r"error\[[a-z-]+\]: ")


def _check_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and TAGGED.match(lines[0]), (argv, err)
    else:
        assert err == "", (argv, err)


@st.composite
def _garbled(draw, text, alphabet):
    """text with up to two small random edits (insert, delete or replace);
    most draws are left whole."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.text(alphabet, max_size=2)) + text[at + cut:]
    return text


def _labels(draw, m):
    """Labels in 1..m, or, for some draws, anywhere in -1..5."""
    return st.integers(1, max(m, 1)) if draw(st.booleans()) else st.integers(-1, 5)


@st.composite
def _rooted(draw, leaves, label):
    if leaves == 1:
        return str(draw(label))
    left = draw(st.integers(1, leaves - 1))
    return f"({draw(_rooted(left, label))},{draw(_rooted(leaves - left, label))})"


FOREST_CHARS = "()<>,*+-^inf 0123456789"
_small = st.integers(-1, 4)


@st.composite
def _forest_argv(draw):
    """argv of a forest command on forest-grammar text whose terms share
    one leaf count, so that the order often fits."""
    command = draw(st.sampled_from(["normalize", "eta", "obstruct", "monoize"]))
    m = draw(_small)
    leaves, label = draw(st.integers(2, 5)), _labels(draw, m)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-3, 3))
        if leaves % 2 or draw(st.booleans()):
            a = draw(st.integers(1, leaves - 1))
            terms.append(f"{c:+d}*<{draw(_rooted(a, label))},{draw(_rooted(leaves - a, label))}>")
        else:
            terms.append(f"{c:+d}*{draw(_rooted(leaves // 2, label))}^inf")
    text = draw(st.one_of(_garbled(" + ".join(terms), FOREST_CHARS),
                          st.text(FOREST_CHARS, max_size=24)))
    argv = [command, "--m", str(m)]
    if command in ("eta", "obstruct"):
        argv += ["--order", str(draw(st.one_of(st.just(leaves - 2), _small)))]
    if command == "obstruct":
        argv += ["--flavor", draw(st.sampled_from(["framed", "twisted"]))]
    if command == "monoize" or (command != "normalize" and draw(st.booleans())):
        argv += ["--k", str(draw(_small))]
    return argv + [text]


@settings(max_examples=150, deadline=None)
@given(_forest_argv())
def test_fuzzed_forest_commands_exit_cleanly(argv):
    _check_exit(argv)


@st.composite
def _longitude_text(draw):
    """A longitude file, "m = <int>" then "l<i>: <word>" lines."""
    m = draw(_small)
    index, letter = _labels(draw, m), _labels(draw, m)
    lines = [f"m = {m}"]
    for i in draw(st.lists(index, max_size=4, unique=True)):
        word = [f"{draw(st.sampled_from('xX'))}{draw(letter)}"
                for _ in range(draw(st.integers(0, 6)))]
        lines.append(f"l{i}: {' '.join(word)}")
    return draw(_garbled("\n".join(lines), "lmxX0123456789:=# \n"))


_option = st.one_of(st.none(), _small.map(str))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_longitude_text(), _option, _option)
def test_fuzzed_longitude_files_exit_cleanly(tmp_path, text, cap, k):
    path = tmp_path / "fuzz.lnk"  # rewritten by every example
    path.write_text(text)
    argv = ["milnor", "--longitudes", str(path)]
    if cap is not None:
        argv += ["--cap", cap]
    if k is not None:
        argv += ["--k", k]
    _check_exit(argv)
