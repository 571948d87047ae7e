"""Command-line front end.

Subcommands map one-to-one onto library operations; all output is JSON
(pretty by default, ``--compact`` for single-line).  Exit codes: 0 = success
or witness found, 1 = check failed or nothing found, 2 = invalid input,
3 = stdout was closed before the answer was written.

Every answer is written through ``_pieces``.  Most are one piece, rendered
whole before the first byte is written.  ``plan`` streams: it checks the
group and builds its quadruple and profile lists, writes the envelope, then
renders its rows as it writes them, ``BATCH`` (64) at a time.  Each row is
a %-template filled with its ints; ``_row_template`` has the JSON encoder
lay each template out once per mode and row shape, so a row's text is the
encoder's own.  The step cache holds the ints of each distinct step, not
its JSON, so plan's memory is the quadruple and profile lists, those ints
and one batch of row text, not the whole payload and its text.  The bytes
are those of one ``json.dumps`` of the whole payload, in both modes.  A
streamed answer can end early: exit 3, or an error (exit 2) after the
first byte, may leave a partial document on stdout.

``COMMANDS`` declares the grammar once.  ``build_parser`` builds argparse from
it, with argparse's abbreviations, ``--opt=value`` forms, negative values,
help and usage errors.  An argv spelled out in full, ``[--compact] words
(--opt value | --flag)*`` with exact option strings and no value starting
with '-', skips argparse: ``_fast_parse`` reads it off the declaration into
a namespace with the attributes argparse would set.  Only an argv it
declines imports argparse and builds the parser.

Input grammars:
  polynomial   ascending comma-separated integers, e.g. "1,0,2" = 1 + 2t^2
               (over an extension field each integer indexes an element)
  laurent      signed monomial sum in t, e.g. "2*t^-5+t^-1-1"
  witt entries semicolon-separated laurent strings
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterator
from itertools import islice
from types import SimpleNamespace

from .cartier import Quadruple
from .construct import DEFAULT_DEGREE_CAP, construct_small, construct_trace, d9_witnesses
from .criterion import certify, certify_data
from .errors import DdcritError, ExtensionCapExceeded
from .gf import make_field
from .planner import RadiiReport, profiles_for_group, quadruples_for_group, step_radii
from .poly import LaurentPoly, Poly
from .search import NotFound, first_witness
from .witt import (
    JumpProfile,
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


# the encoders json.dumps builds for each call, built once: every payload
# is a fresh acyclic tree built by to_json, so the cycle check only costs time
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_INDENTED = json.JSONEncoder(indent=2, check_circular=False)


def _dump(obj, compact: bool) -> str:
    return (_COMPACT if compact else _INDENTED).encode(obj)


# the rows of a streamed array joined and written at a time
BATCH = 64


def _pieces(payload, compact: bool) -> Iterator[str]:
    """The JSON text of payload in pieces to be written in turn.

    A non-empty dict whose values are all iterators is an object of arrays
    whose rows come rendered: each iterator yields the text of one row as
    ``_row_template`` lays it out, at the depth of the dict's arrays.  The
    dict is written key by key, and each array's rows are joined and
    written BATCH at a time, so only one batch of rows is held at once.
    Any other payload is one piece, its text from ``_dump``."""
    if not (isinstance(payload, dict) and payload
            and all(isinstance(value, Iterator) for value in payload.values())):
        yield _dump(payload, compact)
        return
    if compact:
        yield "{"
        sep, colon, first_row, row_sep, close = ",", ":", "[", ",", "]"
    else:
        yield "{\n  "
        sep, colon, first_row, row_sep, close = ",\n  ", ": ", "[\n    ", ",\n    ", "\n  ]"
    for i, (key, rows) in enumerate(payload.items()):
        head = (sep if i else "") + json.dumps(key) + colon
        if not (batch := list(islice(rows, BATCH))):
            yield head + "[]"
            continue
        lead = head + first_row
        while batch:
            yield lead + row_sep.join(batch)
            lead = row_sep
            batch = list(islice(rows, BATCH))
        yield close
    yield "}" if compact else "\n}"


# sentinel k is _SENTINEL + k: every sentinel has 20 digits, so none is
# inside another, and no key of a row has a run of 20 digits
_SENTINEL = 10**19


def _sentinels(count: int) -> tuple[int, ...]:
    return tuple(range(_SENTINEL, _SENTINEL + count))


def _row_template(row, compact: bool) -> str:
    """The text ``_dump`` gives row as a row of an array in a dict, as a
    %-template: row holds the sentinels 0, 1, ... in the order the encoder
    writes them, and sentinel k becomes the k-th ``%d``.  So template %
    ints renders a row of the same shape with those ints in their place,
    in either mode, and ``_pieces`` joins such rows."""
    # the text before and after a row whose whole text is "0"
    head, tail = _dump({"": [0]}, compact).split("0")
    text = _dump({"": [row]}, compact)[len(head):-len(tail)]
    parts = re.split(r"(\d{20})", text.replace("%", "%%"))
    if parts[1::2] != [str(s) for s in _sentinels(len(parts) // 2)]:
        raise RuntimeError(f"the sentinels of {row!r} are not in encoder order")
    return "%d".join(parts[::2])


def _quadruple(args) -> Quadruple:
    return Quadruple(args.p, args.m, args.u, args.n1)


def _field(args):
    """F_{p^k} for k = --field-degree, refused above the degree cap that
    ``construct`` has, before any modulus scan: the scan for a large k
    runs unbounded."""
    if args.field_degree > DEFAULT_DEGREE_CAP:
        raise ExtensionCapExceeded(
            f"--field-degree {args.field_degree} exceeds the cap {DEFAULT_DEGREE_CAP}"
        )
    return make_field(args.p, args.field_degree)


def _cmd_check(args) -> tuple[object, int]:
    q = _quadruple(args)
    spec = _field(args)
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


# (compact, profile length) -> the templates of a quadruple, a profile and
# a radii row, laid out when a plan first needs them
_PLAN_TEMPLATES: dict[tuple[bool, int], tuple[str, str, str]] = {}


def _quadruple_json(ints) -> dict:
    """The JSON of a quadruple with fields p, m, u~, N1 = ints, unchecked."""
    return tuple.__new__(Quadruple, (*ints, 0, 0)).to_json()


def _plan_templates(compact: bool, n: int) -> tuple[str, str, str]:
    """The templates of a quadruple row, a profile row of length n and a
    radii row of a profile of length n, laid out once per mode and n.  A
    quadruple fills in (p, m, u~, N1), a profile its breaks, and a radii
    row the breaks, the step index and ``_step_ints`` of the step."""
    if (templates := _PLAN_TEMPLATES.get((compact, n))) is None:
        s = _sentinels(n + 14)
        radii = tuple.__new__(RadiiReport, (s[n + 5:n + 7], s[n + 7:n + 9],
                                            s[n + 9:n + 11], s[n + 11], s[n + 12:]))
        profile = JumpProfile(s[:n]).to_json()
        row = {"profile": profile, "step": s[n],
               "quadruple": _quadruple_json(s[n + 1:n + 5]), "radii": radii.to_json()}
        templates = _PLAN_TEMPLATES[compact, n] = (
            _row_template(_quadruple_json(s[:4]), compact),
            _row_template(profile, compact),
            _row_template(row, compact),
        )
    return templates


def _step_ints(p: int, m: int, step: tuple[int, int]) -> tuple[int, ...]:
    """The ints of the quadruple and radii of a lifting step, in the order
    their JSON lists them: (p, m, u~, N1), then each radius's (num, den)
    with n2 after r_n."""
    q, (crit, hub, r_n, n2, delta) = step_radii(p, m, *step)
    return (*q[:4], *crit, *hub, *r_n, n2, *delta)


def _radii_rows(p: int, m: int, profiles, template: str) -> Iterator[str]:
    """The text of the radii row of each step of each profile's breaks, in
    order.  A step's ints are computed once, though the step recurs in many
    profiles and at more than one step index."""
    steps: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in profiles:
        for i, step in enumerate(zip(u, u[1:]), 2):
            if (ints := steps.get(step)) is None:
                ints = steps[step] = _step_ints(p, m, step)
            yield template % (*u, i, *ints)


def _cmd_plan(args) -> tuple[object, int]:
    # both lists are built here, so an invalid group raises before any write;
    # the rows of all three arrays are rendered as they are written
    quadruples = quadruples_for_group(args.p, args.m, args.n)
    profiles = [prof.breaks for prof in profiles_for_group(args.p, args.m, args.n)]
    quadruple, profile, radii = _plan_templates(args.compact, args.n)
    return {
        "quadruples": (quadruple % q[:4] for q in quadruples),
        "profiles": (profile % u for u in profiles),
        "radii": _radii_rows(args.p, args.m, profiles, radii),
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
    spec = _field(args)
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


# -- the grammar (see the module docstring) ------------------------------------

# the default of an option that must be given
REQUIRED = object()

_P, _M = ("--p", int, REQUIRED, None), ("--m", int, REQUIRED, None)
_N1 = ("--n1", int, REQUIRED, None)
_FIELD_DEGREE = ("--field-degree", int, 1, None)
_QUADRUPLE = (_P, _M, ("--u", int, REQUIRED, "u~ of the quadruple"), _N1)

# every command path with its help, its function and its options, each
# (option string, type or None for a flag, default or REQUIRED, help), in
# the order --help lists them
COMMANDS = (
    (("check",), "certify a given f", _cmd_check,
     (*_QUADRUPLE, _FIELD_DEGREE, ("--f", str, REQUIRED, "ascending coefficients"))),
    (("search",), "pruned complete witness search", _cmd_search,
     (*_QUADRUPLE, _FIELD_DEGREE, ("--isolated", None, False, None),
      ("--budget", float, None, "seconds >= 0 for the DFS nodes; certifying a "
       "leaf and rendering the winner are not bounded"))),
    (("plan",), "quadruples, profiles and radii", _cmd_plan,
     (_P, _M, ("--n", int, REQUIRED, None))),
    (("construct", "small"), "(p, 2, 1, N1) for N1 in {p-1, p-3}", _cmd_construct,
     (_P, _N1)),
    (("construct", "trace"), "(p, m, u~, (p-1)u~) from roots of unity",
     _cmd_construct, (_P, _M, ("--u", int, REQUIRED, None))),
    (("construct", "d9"), "the four certificates behind D_9", _cmd_construct, ()),
    (("witt", "breaks"), "standard form and breaks", _cmd_witt_breaks,
     (_P, _FIELD_DEGREE,
      ("--entries", str, REQUIRED, "semicolon-separated laurent strings"))),
    (("reduce-jumps",), "remove essential ramification", _cmd_reduce_jumps,
     (_P, _M, ("--jumps", str, REQUIRED, "comma-separated"))),
)

# the first word of each two-word command path: its help and the namespace
# attribute that holds the second word
GROUPS = {
    "construct": ("closed-form witnesses", "family"),
    "witt": ("Witt-vector utilities", "witt_command"),
}


def build_parser():
    import argparse  # here, so an argv that _fast_parse reads never loads it

    class _JsonErrorParser(argparse.ArgumentParser):
        """An ArgumentParser whose usage errors, like every other invalid
        input, print an error JSON on stderr and exit 2.  ``add_subparsers``
        makes the subcommand parsers of this class too; ``--help`` is
        unchanged."""

        def error(self, message):
            self.exit(2, json.dumps({"error": f"{self.prog}: {message}"}) + "\n")

    parser = _JsonErrorParser(
        prog="ddcrit",
        description="differential data criterion toolkit",
    )
    parser.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, help_text, _, options in COMMANDS:
        if path[:-1] not in subs:
            group_help, dest = GROUPS[path[0]]
            subs[path[:-1]] = subs[()].add_parser(path[0], help=group_help) \
                .add_subparsers(dest=dest, required=True)
        command = subs[path[:-1]].add_parser(path[-1], help=help_text)
        for option, kind, default, option_help in options:
            command.add_argument(
                option, help=option_help,
                **({"action": "store_true"} if kind is None else {"type": kind}),
                **({"required": True} if default is REQUIRED else {"default": default}))
    return parser


def _command_grammar(path, options):
    """{option string: (dest, type or None)} and the namespace argparse
    starts a command with, REQUIRED standing for a required option's."""
    defaults = {"command": path[0]}
    if len(path) == 2:
        defaults[GROUPS[path[0]][1]] = path[1]
    types = {}
    for option, kind, default, _ in options:
        dest = option[2:].replace("-", "_")
        types[option] = dest, kind
        defaults[dest] = default
    return types, defaults


_GRAMMAR = {path: _command_grammar(path, options) for path, _, _, options in COMMANDS}
_FUNCTIONS = {path: fn for path, _, fn, _ in COMMANDS}


def _fast_parse(argv) -> SimpleNamespace | None:
    """A namespace with the attributes parse_args returns for an argv of
    the exact shape [--compact] words (--opt value | --flag)*, with no
    value starting with '-' and every required option given, or None for
    any other argv."""
    start = 1 if argv and argv[0] == "--compact" else 0
    i = start
    while i < len(argv) and argv[i][:1] != "-":
        i += 1
    grammar = _GRAMMAR.get(tuple(argv[start:i]))
    if grammar is None:
        return None
    options, defaults = grammar
    values = dict(defaults, compact=start == 1)
    while i < len(argv):
        if (option := options.get(argv[i])) is None:
            return None
        dest, kind = option
        if kind is None:
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1][:1] == "-":
            return None
        try:
            values[dest] = kind(argv[i + 1])
        except (TypeError, ValueError):
            return None
        i += 2
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(**values)


# built when _fast_parse first declines an argv and shared by the later
# calls: parse_args leaves the parser as it found it
_parser = None


def main(argv=None) -> int:
    global _parser
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        if _parser is None:
            _parser = build_parser()
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    path = (args.command,)
    if args.command in GROUPS:
        path += (getattr(args, GROUPS[args.command][1]),)
    try:
        payload, code = _FUNCTIONS[path](args)
        # rendering can fail too, before or after the first write: an int of
        # over 4300 digits raises ValueError, and a streamed row is built
        # only when its batch is rendered
        write = sys.stdout.write
        for piece in _pieces(payload, args.compact):
            write(piece)
        write("\n")
        sys.stdout.flush()
    except (DdcritError, ValueError, TypeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter's flush at exit now writes what is left to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
