"""Command-line front end.

Line-oriented plain-text reports with a --json mirror of the same data.
Exit codes: 0 success, 1 domain error, 2 parse error.  A reader that closes
stdout early ends the run with 0 and nothing on stderr.

Every command's arguments are data in one table, `_COMMANDS`: its help,
its handler and its arguments in usage order, each a flag or positional
name with a kind (int, str, a switch or choices), whether it is required
and its default.  A plain command line (the command, options by their
exact names, then the positionals) is read off the table by `_parse`,
into the namespace argparse would make of it, without importing argparse,
whose first message lookup alone imports gettext and locale.  Any other
line, help, "=" forms, abbreviations and usage errors among them, goes to
the argparse parser `build_parser` makes from the same table, so help
texts and usage errors are argparse's own.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .errors import ForestcalcError, ParameterError, ParseError
from .eta import arf_classes, check_arf_parameters, eta, eta_k, eta_kernel, milnor_from_forest
from .forest import parse_forest, parse_tree_term
from .freelie import bracket_str, lyndon_words
from .groups import build_group


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
    payload = {"group": text, "free_rank": free, "torsion": torsion}
    if args.json:  # the listing has a budget of its own, so only --json builds it
        payload["generators"] = g.generator_texts()
    _emit(args, [text], payload)
    return 0


def cmd_obstruct(args):
    g = build_group(args.m, args.order, args.flavor, args.k)
    forest = parse_forest(args.forest, args.m)
    zero = g.is_zero(forest)
    witness = [] if zero else g.witness(forest)
    lines = ["ZERO" if zero else "NONZERO"]
    if witness:
        lines.append("witness: " + "; ".join(
            f"[{','.join(map(str, block))}] " + " ".join(map(str, coords)) for block, coords in witness))
    _emit(args, lines, {"verdict": lines[0], "witness": [
        {"block": list(block), "coords": list(coords)} for block, coords in witness]})
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
        # only longitude runs compile and load the Magnus expansion
        from .magnus import AllVanishing, milnor_from_longitudes, parse_longitudes

        with open(args.longitudes, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            message = f"longitude file is not UTF-8 ({exc.reason} at byte {exc.start})"
            raise ParseError(message) from None
        data = parse_longitudes(text)
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
    memo = {}
    lines = [bracket_str(w, memo) for w in words]
    _emit(args, lines, {"basis": lines})
    return 0


def cmd_arf(args):
    if args.k is None:
        raise ParameterError("arf requires --k")
    # the kernel meets its budget before the classes are built
    check_arf_parameters(args.m, args.order, args.k)
    invfac, lifts = eta_kernel(args.m, 2 * args.order)
    classes = arf_classes(args.m, args.order, args.k)
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
    from .rewrite import collapse_edge  # only collapse and monoize load the rewriting

    coeff, tree = parse_tree_term(args.term, args.m)
    out = collapse_edge(coeff, tree, args.label, strict=args.strict_collapse)
    text = " + ".join(f"{c:+d}*{t}" for c, t in out) or "0"
    _emit(args, [text], {"terms": [[c, str(t)] for c, t in out]})
    return 0


def cmd_monoize(args):
    from .rewrite import monoize_forest

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


class _Arg(NamedTuple):
    """One argument of a command: an option when `name` starts with "--",
    else a positional.  `kind` is int, str, bool (a switch) or a tuple of
    choices; a positional that is not required may be left out."""

    name: str
    kind: object = str
    required: bool = False
    default: object = None
    help: str | None = None


_M = _Arg("--m", int, required=True, help="number of indices")
_ORDER = _Arg("--order", int, required=True)
_K = _Arg("--k", int)
_JSON = _Arg("--json", bool, default=False)
_FLAVOR = _Arg("--flavor", ("framed", "twisted"), required=True)
_FOREST = _Arg("forest", required=True, help="forest in the bracket grammar")
_STRICT = _Arg("--strict-collapse", bool, default=False)

# name -> (help, handler, arguments), in the order --help lists them; each
# command's arguments are in the order its usage line and a missing-arguments
# error name them
_COMMANDS = {
    "normalize": ("parse and canonically print a forest", cmd_normalize,
                  (_M, _JSON, _FOREST)),
    "group": ("invariants of a tree group", cmd_group, (_M, _ORDER, _K, _JSON, _FLAVOR)),
    "obstruct": ("test a forest for zero in a tree group", cmd_obstruct,
                 (_M, _ORDER, _K, _JSON, _FOREST, _FLAVOR)),
    "eta": ("summation map of a forest", cmd_eta, (_M, _ORDER, _K, _JSON, _FOREST)),
    "milnor": ("first nonvanishing invariant", cmd_milnor, (
        _Arg("--m", int), _Arg("--order", int), _K, _Arg("--cap", int, default=8),
        _Arg("--longitudes", help="longitude file path"), _JSON, _Arg("forest"))),
    "lie": ("Lyndon bracket basis of a graded piece", cmd_lie, (_M, _ORDER, _JSON)),
    "arf": ("twist classes and the order-2j kernel", cmd_arf, (_M, _ORDER, _K, _JSON)),
    "collapse": ("one edge collapse on a single term", cmd_collapse, (
        _M, _JSON, _STRICT, _Arg("term", required=True, help="single signed term"),
        _Arg("label", int, required=True))),
    "monoize": ("collapse a forest to mono-labeled trees", cmd_monoize,
                (_M, _K, _JSON, _FOREST, _STRICT)),
}


def _value(kind, text):
    """`text` read as an argument of this kind; ValueError if it is none."""
    if kind is int:
        return int(text)
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(text)
    return text


def _parse(argv):
    """The namespace argparse would make of a plain command line, else None.

    Plain means: a command, then options by their exact names, each at most
    once, then exactly the command's positionals, no value or positional
    starting with "-", every value of its kind and every required option
    given.  Anything else, help and usage errors among it, is left to
    `build_parser`.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    options = {a.name: a for a in arguments if a.name.startswith("--")}
    positionals = [a for a in arguments if a.name not in options]
    given = {}
    i = 1
    try:
        while i < len(argv) and argv[i].startswith("-"):
            option = options.get(argv[i])
            if option is None or option.name in given:
                return None
            if option.kind is bool:
                given[option.name] = True
                i += 1
                continue
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            given[option.name] = _value(option.kind, argv[i + 1])
            i += 2
        words = argv[i:]
        if len(words) > len(positionals) or any(w.startswith("-") for w in words):
            return None
        for a, word in zip(positionals, words):
            given[a.name] = _value(a.kind, word)
    except ValueError:
        return None
    if any(a.required and a.name not in given for a in arguments):
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for a in arguments:
        setattr(args, a.name.lstrip("-").replace("-", "_"), given.get(a.name, a.default))
    return args


def build_parser(command=None):
    """The argparse parser of the commands in `_COMMANDS`, with the
    subparser of `command` only, or of every command when `command` is None
    or names none, so that help and usage errors still list them all.  Usage
    errors become parse errors, reported as one tagged line (exit 2)."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ParseError(message)

    parser = Parser(
        prog="forestcalc",
        description="Exact calculus of decorated trees and free Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for a in arguments:
            if a.kind is bool:
                kwargs = {"action": "store_true"}
            elif a.name.startswith("--"):
                kwargs = {"required": a.required, "default": a.default}
            else:
                kwargs = {} if a.required else {"nargs": "?", "default": a.default}
            if a.kind is int:
                kwargs["type"] = int
            elif isinstance(a.kind, tuple):
                kwargs["choices"] = list(a.kind)
            p.add_argument(a.name, help=a.help, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        if args is None:
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
