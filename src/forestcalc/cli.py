"""Command-line front end.

Line-oriented plain-text reports with a --json mirror of the same data.
Exit codes: 0 success, 1 domain error, 2 parse error.  A reader that closes
stdout early ends the run with 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ForestcalcError, ParameterError, ParseError
from .eta import arf_classes, eta, eta_k, eta_kernel, milnor_from_forest
from .forest import parse_forest, parse_tree_term
from .freelie import bracket_str, lyndon_words
from .groups import build_group
from .magnus import AllVanishing, milnor_from_longitudes, parse_longitudes
from .rewrite import collapse_edge, monoize_forest


def _emit(args, lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_normalize(args):
    forest = parse_forest(args.forest, args.m)
    _emit(args, [str(forest)], {"forest": str(forest)})
    return 0


def cmd_group(args):
    g = build_group(args.m, args.order, args.flavor, args.k)
    text = g.invariants_str()
    free, torsion = g.invariants()
    _emit(
        args,
        [text],
        {
            "group": text,
            "free_rank": free,
            "torsion": torsion,
            "generators": [str(t) for t in g.generators],
        },
    )
    return 0


def cmd_obstruct(args):
    g = build_group(args.m, args.order, args.flavor, args.k)
    forest = parse_forest(args.forest, args.m)
    element = g.reduce_forest(forest)
    verdict = "ZERO" if element.is_zero else "NONZERO"
    lines = [verdict]
    if not element.is_zero:
        lines.append("witness: " + " ".join(str(c) for c in element.coords))
    _emit(args, lines, {"verdict": verdict, "witness": list(element.coords)})
    return 0


def cmd_eta(args):
    forest = parse_forest(args.forest, args.m)
    if args.k is None:
        value = eta(forest, args.order)
    else:
        value = eta_k(forest, args.order, args.k)
    _emit(args, [str(value)], {"value": str(value)})
    return 0


def _mu_table_lines(result):
    entries = sorted(result.table, key=lambda e: e[0] + (e[1],))
    cells = [
        "mu(" + "".join(str(d) for d in w) + str(i) + f")={c}" for w, i, c in entries
    ]
    return f"order {result.order}; " + " ".join(cells), entries


def cmd_milnor(args):
    if args.longitudes:
        with open(args.longitudes, encoding="utf-8") as fh:
            data = parse_longitudes(fh.read())
        try:
            result = milnor_from_longitudes(data, cap=args.cap, k=args.k)
        except AllVanishing as exc:
            _emit(args, [str(exc)], {"vanishing": True, "cap": exc.cap})
            return 0
        line, entries = _mu_table_lines(result)
        _emit(
            args,
            [line, f"value: {result.value}"],
            {
                "order": result.order,
                "value": str(result.value),
                "mu": [
                    {"word": list(w), "longitude": i, "coeff": c}
                    for w, i, c in entries
                ],
            },
        )
        return 0
    if args.forest is None:
        raise ParameterError("milnor needs a forest argument or --longitudes")
    if args.m is None or args.order is None:
        raise ParameterError("milnor on a forest requires --m and --order")
    forest = parse_forest(args.forest, args.m)
    value = milnor_from_forest(forest, args.order, args.k)
    _emit(
        args,
        [f"order {args.order}; value: {value}"],
        {"order": args.order, "value": str(value)},
    )
    return 0


def cmd_lie(args):
    words = lyndon_words(args.m, args.order)
    lines = [bracket_str(w) for w in words]
    _emit(args, lines, {"basis": lines})
    return 0


def cmd_arf(args):
    if args.k is None:
        raise ParameterError("arf requires --k")
    classes = arf_classes(args.m, args.order, args.k)
    invfac, lifts = eta_kernel(args.m, 2 * args.order)
    lines = [
        "classes: " + " ".join(str(t) for _, t in classes),
        "kernel: " + (" ".join(str(d) for d in invfac) or "trivial"),
    ]
    lines += [f"lift: {f}" for f in lifts]
    _emit(
        args,
        lines,
        {
            "classes": [str(t) for _, t in classes],
            "kernel_invariant_factors": invfac,
            "lifts": [str(f) for f in lifts],
        },
    )
    return 0


def cmd_collapse(args):
    coeff, tree = parse_tree_term(args.term, args.m)
    out = collapse_edge(coeff, tree, args.label, strict=args.strict_collapse)
    text = " + ".join(f"{c:+d}*{t}" for c, t in out) or "0"
    _emit(args, [text], {"terms": [[c, str(t)] for c, t in out]})
    return 0


def cmd_monoize(args):
    if args.k is None:
        raise ParameterError("monoize requires --k")
    forest = parse_forest(args.forest, args.m)
    result, steps = monoize_forest(forest, args.k, strict=args.strict_collapse)
    lines = [str(s) for s in steps] + [f"result: {result}"]
    _emit(
        args,
        lines,
        {"steps": [str(s) for s in steps], "result": str(result)},
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors become parse errors, reported as one tagged line (exit 2)."""

    def error(self, message):
        raise ParseError(message)


def _common(p, forest=False, need_order=False, k=True):
    # a missing-arguments error names the required ones in this order
    p.add_argument("--m", type=int, required=True, help="number of indices")
    if need_order:
        p.add_argument("--order", type=int, required=True)
    if k:
        p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    if forest:
        p.add_argument("forest", help="forest in the bracket grammar")


def _group_args(p, forest=False):
    _common(p, forest=forest, need_order=True)
    p.add_argument("--flavor", choices=["framed", "twisted"], required=True)


def _milnor_args(p):
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--longitudes", default=None, help="longitude file path")
    p.add_argument("--json", action="store_true")
    p.add_argument("forest", nargs="?", default=None)


def _collapse_args(p):
    _common(p, k=False)
    p.add_argument("--strict-collapse", action="store_true")
    p.add_argument("term", help="single signed term")
    p.add_argument("label", type=int)


def _monoize_args(p):
    _common(p, forest=True)
    p.add_argument("--strict-collapse", action="store_true")


# name -> (help, handler, adds the arguments), in the order --help lists them
_COMMANDS = {
    "normalize": ("parse and canonically print a forest", cmd_normalize,
                  lambda p: _common(p, forest=True, k=False)),
    "group": ("invariants of a tree group", cmd_group, _group_args),
    "obstruct": ("test a forest for zero in a tree group", cmd_obstruct,
                 lambda p: _group_args(p, forest=True)),
    "eta": ("summation map of a forest", cmd_eta,
            lambda p: _common(p, forest=True, need_order=True)),
    "milnor": ("first nonvanishing invariant", cmd_milnor, _milnor_args),
    "lie": ("Lyndon bracket basis of a graded piece", cmd_lie,
            lambda p: _common(p, need_order=True, k=False)),
    "arf": ("twist classes and the order-2j kernel", cmd_arf,
            lambda p: _common(p, need_order=True)),
    "collapse": ("one edge collapse on a single term", cmd_collapse, _collapse_args),
    "monoize": ("collapse a forest to mono-labeled trees", cmd_monoize, _monoize_args),
}


def build_parser(command=None):
    """The top-level parser with the subparser of `command` only, or of
    every command when `command` is None or names none, so that help and
    usage errors still list them all."""
    parser = _Parser(
        prog="forestcalc",
        description="Exact calculus of decorated trees and free Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, whether the output was still
        # buffered or not, and let the flush at exit write to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"error[{exc.tag}]: {exc}", file=sys.stderr)
        return 2
    except ForestcalcError as exc:
        print(f"error[{exc.tag}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io-error]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
