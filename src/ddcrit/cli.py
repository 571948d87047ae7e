"""Command-line front end.

Subcommands map one-to-one onto library operations; all output is JSON
(pretty by default, ``--compact`` for single-line).  Exit codes: 0 = success
or witness found, 1 = check failed or nothing found, 2 = invalid input,
3 = stdout was closed before the answer was written.

argparse (``build_parser``) defines the grammar, with its abbreviations,
``--opt=value`` forms, negative values, help and usage errors.  An argv
spelled out in full, ``[--compact] words (--opt value | --flag)*`` with exact
option strings and no value starting with '-', skips argparse's per-call
parse: the first call of ``main`` compiles a table off the parser's actions,
defaults and subcommands, and parses such an argv from it into the namespace
argparse would build (``_table_parse``).  Any other argv goes to argparse.

Input grammars:
  polynomial   ascending comma-separated integers, e.g. "1,0,2" = 1 + 2t^2
               (over an extension field each integer indexes an element)
  laurent      signed monomial sum in t, e.g. "2*t^-5+t^-1-1"
  witt entries semicolon-separated laurent strings
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cartier import Quadruple
from .construct import construct_small, construct_trace, d9_witnesses
from .criterion import certify, certify_data
from .errors import DdcritError
from .gf import make_field
from .planner import profiles_for_group, quadruples_for_group, step_radii
from .poly import LaurentPoly, Poly
from .search import NotFound, first_witness
from .witt import (
    WittVector,
    reduce_jumps,
    standard_form,
    upper_breaks,
)

# one monomial with the blanks around it; a blank may stand between two
# tokens (sign, coefficient, `*`, `t`, `^`, exponent), never inside a number
_MONOMIAL = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coeff>\d+)\s*(?:\*\s*(?=t))?)?"
    r"(?P<t>t(?:\s*\^\s*(?P<exp>-?\d+))?)?\s*"
)


# the largest |exponent| a Witt entry may reach in `witt breaks`: each carry
# multiplies exponents by at most p, so entry j of n reaches p^(n-1-j) times
# its own, and the dense spans of the standard form are that wide
WITT_EXPONENT_CAP = 2**14


def _laurent_terms(text: str) -> dict[int, int]:
    """The exponents of a signed sum of monomials like ``2*t^-5+t^-1-1``,
    each with the sum of its integer coefficients.  Every monomial after
    the first needs its sign."""
    if not text.strip():
        raise ValueError("empty laurent string")
    terms: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        # every part of _MONOMIAL is optional, so it always matches
        match = _MONOMIAL.match(text, pos)
        sign, coeff, tpart, exp = match.group("sign", "coeff", "t", "exp")
        if (coeff is None and tpart is None) or (pos and not sign):
            raise ValueError(f"bad laurent string at {text[pos:]!r}")
        exp = 0 if tpart is None else int(exp or 1)
        terms[exp] = terms.get(exp, 0) + int(sign + (coeff or "1"))
        pos = match.end()
    return terms


def _laurent(spec, terms: dict[int, int]) -> LaurentPoly:
    """The Laurent polynomial of ``_laurent_terms``' exponents and sums."""
    return LaurentPoly.from_terms(spec, {e: spec.from_int(c) for e, c in terms.items()})


def parse_laurent(spec, text: str) -> LaurentPoly:
    """Parse a signed sum of monomials like ``2*t^-5+t^-1-1``."""
    return _laurent(spec, _laurent_terms(text))


def parse_poly(spec, text: str) -> Poly:
    """Parse ascending element indices like ``1,0,2``; each must lie in
    [0, q) for the field of order q."""
    indices = [int(c) for c in text.split(",")]
    for index in indices:
        if not 0 <= index < spec.order:
            raise ValueError(f"element index {index} outside [0, {spec.order})")
    return Poly(spec, [spec.element_by_index(i) for i in indices])


def _dump(obj, compact: bool) -> str:
    # every payload is a fresh acyclic tree built by to_json, so the
    # encoder's cycle check only costs time
    if compact:
        return json.dumps(obj, separators=(",", ":"), check_circular=False)
    return json.dumps(obj, indent=2, check_circular=False)


def _quadruple(args) -> Quadruple:
    return Quadruple(args.p, args.m, args.u, args.n1)


def _cmd_check(args) -> tuple[object, int]:
    q = _quadruple(args)
    spec = make_field(args.p, args.field_degree)
    f = parse_poly(spec, args.f)
    cert = certify(q, f)
    return cert.to_json(), 0 if cert.all_ok else 1


def _cmd_search(args) -> tuple[object, int]:
    q = _quadruple(args)
    result = first_witness(
        q,
        args.field_degree,
        require_isolated=args.isolated,
        budget_seconds=args.budget,
    )
    if isinstance(result, NotFound):
        return result.to_json(), 1
    return result.to_json(), 0


def _cmd_plan(args) -> tuple[object, int]:
    quadruples = quadruples_for_group(args.p, args.m, args.n)
    # a profile's JSON is built once, for its entry and its radii rows, and a
    # step's quadruple and radii JSON once, though it recurs in many profiles
    profiles = [(prof.breaks, prof.to_json())
                for prof in profiles_for_group(args.p, args.m, args.n)]
    steps: dict[tuple[int, ...], tuple[dict, dict]] = {}
    radii = []
    for u, prof_json in profiles:
        for i in range(1, len(u)):
            if (step := u[i - 1 : i + 1]) not in steps:
                q, report = step_radii(args.p, args.m, *step)
                steps[step] = q.to_json(), report.to_json()
            quad, rad = steps[step]
            radii.append(
                {"profile": prof_json, "step": i + 1, "quadruple": quad, "radii": rad}
            )
    return {
        "quadruples": [q.to_json() for q in quadruples],
        "profiles": [prof_json for _, prof_json in profiles],
        "radii": radii,
    }, 0


def _cmd_construct(args) -> tuple[object, int]:
    if args.family == "d9":
        certs = d9_witnesses()
        return [c.to_json() for c in certs], 0 if all(c.all_ok for c in certs) else 1
    if args.family == "small":
        rd = construct_small(args.p, args.n1)
    else:
        rd = construct_trace(args.p, args.m, args.u)
    cert = certify_data(rd)
    return cert.to_json(), 0 if cert.ddc_ok and cert.power_sum_ok else 1


def _cmd_witt_breaks(args) -> tuple[object, int]:
    spec = make_field(args.p, args.field_degree)
    parts = args.entries.split(";")
    # each entry is read once, last first, and its exponents bounded before
    # any entry is built
    read = []
    scale = 1  # p^(n-1-j), held at most one above the cap
    for j in reversed(range(len(parts))):
        read.append(terms := _laurent_terms(parts[j]))
        for e in terms:
            if abs(e) * scale > WITT_EXPONENT_CAP:
                raise ValueError(
                    f"exponent {e} of entry {j + 1} times p^{len(parts) - 1 - j}"
                    f" exceeds the cap {WITT_EXPONENT_CAP} on witt exponents"
                )
        scale = min(scale * args.p, WITT_EXPONENT_CAP + 1)
    v = WittVector(spec, tuple(_laurent(spec, terms) for terms in reversed(read)))
    result = standard_form(v)
    profile = upper_breaks(result.vector)
    return {
        "standard_form": result.vector.to_json(),
        "extension_degree": result.extension_degree,
        "breaks": profile.to_json(),
    }, 0


def _cmd_reduce_jumps(args) -> tuple[object, int]:
    jumps = [int(x) for x in args.jumps.split(",")]
    return reduce_jumps(jumps, args.p, args.m), 0


def _add_quadruple_args(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--u", type=int, required=True, help="u~ of the quadruple")
    sub.add_argument("--n1", type=int, required=True)


class _JsonErrorParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, like every other invalid input,
    print an error JSON on stderr and exit 2.  ``add_subparsers`` makes the
    subcommand parsers of this class too; ``--help`` is unchanged."""

    def error(self, message):
        self.exit(2, json.dumps({"error": f"{self.prog}: {message}"}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="ddcrit",
        description="differential data criterion toolkit",
    )
    parser.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="certify a given f")
    _add_quadruple_args(check)
    check.add_argument("--field-degree", type=int, default=1)
    check.add_argument("--f", required=True, help="ascending coefficients")
    check.set_defaults(fn=_cmd_check)

    search = subs.add_parser("search", help="pruned complete witness search")
    _add_quadruple_args(search)
    search.add_argument("--field-degree", type=int, default=1)
    search.add_argument("--isolated", action="store_true")
    search.add_argument("--budget", type=float, default=None, help="seconds >= 0 "
                        "for the DFS nodes; certifying a leaf and rendering the "
                        "winner are not bounded")
    search.set_defaults(fn=_cmd_search)

    plan = subs.add_parser("plan", help="quadruples, profiles and radii")
    plan.add_argument("--p", type=int, required=True)
    plan.add_argument("--m", type=int, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.set_defaults(fn=_cmd_plan)

    construct = subs.add_parser("construct", help="closed-form witnesses")
    families = construct.add_subparsers(dest="family", required=True)
    for family, options, help_text in (
        ("small", ("--p", "--n1"), "(p, 2, 1, N1) for N1 in {p-1, p-3}"),
        ("trace", ("--p", "--m", "--u"), "(p, m, u~, (p-1)u~) from roots of unity"),
        ("d9", (), "the four certificates behind D_9"),
    ):
        family_parser = families.add_parser(family, help=help_text)
        for option in options:
            family_parser.add_argument(option, type=int, required=True)
        family_parser.set_defaults(fn=_cmd_construct)

    witt = subs.add_parser("witt", help="Witt-vector utilities")
    witt_subs = witt.add_subparsers(dest="witt_command", required=True)
    breaks = witt_subs.add_parser("breaks", help="standard form and breaks")
    breaks.add_argument("--p", type=int, required=True)
    breaks.add_argument("--field-degree", type=int, default=1)
    breaks.add_argument(
        "--entries", required=True, help="semicolon-separated laurent strings"
    )
    breaks.set_defaults(fn=_cmd_witt_breaks)

    reduce_cmd = subs.add_parser("reduce-jumps", help="remove essential ramification")
    reduce_cmd.add_argument("--p", type=int, required=True)
    reduce_cmd.add_argument("--m", type=int, required=True)
    reduce_cmd.add_argument("--jumps", required=True, help="comma-separated")
    reduce_cmd.set_defaults(fn=_cmd_reduce_jumps)

    return parser


# -- parse table (see the module docstring) -----------------------------------


def _level(parser: argparse.ArgumentParser):
    """One parser as the parse table reads it, off its actions and
    ``set_defaults``: its options (option string -> Action), the namespace
    parse_args starts it with, its required option Actions and its
    subparsers action or None.  None if the parser takes what the table does
    not follow: another prefix character, argument files, mutually exclusive
    options, positionals other than one subparsers action, or a str default
    its type would convert.  The options are the exact strings of its store,
    store_const and store_true/false actions of one value or none, without
    choices; any other option is left out, so an argv that uses it goes to
    argparse."""
    registry = parser._registry_get
    positionals = [a for a in parser._actions if not a.option_strings]
    subparsers = positionals[0] if positionals else None
    if (parser.prefix_chars != "-" or parser.fromfile_prefix_chars
            or parser._mutually_exclusive_groups or len(positionals) > 1
            or (subparsers and type(subparsers) is not registry("action", "parsers"))
            or any(isinstance(a.default, str) and a.type is not None
                   for a in parser._actions)):
        return None
    kinds = {registry("action", kind)
             for kind in ("store", "store_const", "store_true", "store_false")}
    options = {
        option: action
        for action in parser._actions
        if type(action) in kinds and action.choices is None
        and not getattr(action, "deprecated", False)
        and (action.nargs == 0 or (action.nargs is None
                                   and (action.type is None or callable(action.type))))
        for option in action.option_strings
    }
    defaults = {}
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and (
                action.default is not argparse.SUPPRESS):
            defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    required = tuple(a for a in parser._actions if a.required and a.option_strings)
    return options, defaults, required, subparsers


def _leaves(subparsers, path: tuple):
    """(path, (options, defaults, required)) for every leaf command below a
    subparsers action, the defaults being what argparse sets in the
    namespace above it: the command word, then each sub-namespace, defaults
    and all, over the one above it; the required Actions are those of every
    level below."""
    dest, skipped = subparsers.dest, getattr(subparsers, "_deprecated", ())
    for word, parser in subparsers.choices.items():
        if word in skipped or (level := _level(parser)) is None:
            continue
        options, defaults, required, below = level
        head = {} if dest is argparse.SUPPRESS else {dest: word}
        if below is None:
            yield path + (word,), (options, head | defaults, required)
            continue
        for leaf_path, (leaf_options, leaf_defaults, leaf_required) in _leaves(
                below, path + (word,)):
            yield leaf_path, (leaf_options, head | defaults | leaf_defaults,
                              required + leaf_required)


def _compile(parser: argparse.ArgumentParser):
    """The parse table: the top parser's options and defaults, and {leaf
    command path: (options, defaults, required)}; None if the top parser has
    no subcommands to look up."""
    if (top := _level(parser)) is None:
        return None
    options, defaults, required, subparsers = top
    if subparsers is None:
        return None
    return options, defaults, {
        path: (leaf_options, leaf_defaults, required + leaf_required)
        for path, (leaf_options, leaf_defaults, leaf_required)
        in _leaves(subparsers, ())
    }


def _read_options(options: dict, argv, i: int, values: dict, seen: set) -> int:
    """Read ``--opt value`` and ``--flag`` from argv[i] on into values, as
    long as each word is one of options; return the index of the first word
    that is not, or -1 for a value that is missing, starts with '-' or fails
    its type."""
    while i < len(argv) and (action := options.get(argv[i])) is not None:
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        else:
            if i + 1 == len(argv) or argv[i + 1][:1] == "-":
                return -1
            try:
                value = argv[i + 1] if action.type is None else action.type(argv[i + 1])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return -1
            values[action.dest] = value
            i += 2
        seen.add(action)
    return i


def _table_parse(table, argv) -> argparse.Namespace | None:
    """The Namespace parse_args returns for an argv of the exact shape [top
    options] words (--opt value | --flag)*, or None for any other argv."""
    top_options, values, leaves = table
    values = dict(values)
    seen: set = set()
    start = _read_options(top_options, argv, 0, values, seen)
    if start < 0:
        return None
    end = start
    while end < len(argv) and argv[end][:1] != "-":
        end += 1
    leaf = leaves.get(tuple(argv[start:end]))
    if leaf is None:
        return None
    options, defaults, required = leaf
    values.update(defaults)
    if (_read_options(options, argv, end, values, seen) != len(argv)
            or not seen.issuperset(required)):
        return None
    return argparse.Namespace(**values)


# built on the first call of main and shared by the later ones: parse_args
# leaves the parser as it found it, and the table is read off it
_parser: argparse.ArgumentParser | None = None
_table: tuple | None = None


def main(argv=None) -> int:
    global _parser, _table
    if _parser is None:
        _parser = build_parser()
        _table = _compile(_parser)
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(_table, argv) if _table else None
    if args is None:
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        payload, code = args.fn(args)
        # rendering can fail too: an int of over 4300 digits raises ValueError
        text = _dump(payload, args.compact)
    except (DdcritError, ValueError, TypeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter's flush at exit now writes what is left to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
