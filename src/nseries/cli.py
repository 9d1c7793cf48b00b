"""Command-line front end.

Subcommands: bch, series, order, op, exp-der, log-aut, star, iterate, vaut,
verify.  The work runs in three steps:

1. Parse once: `PARSER` is built at import, and `main` parses with it.
2. Compute purely: each handler reads its input files and returns its
   result without writing.  A result is an `OpTable`, or `(payload, lines,
   passed)`: a JSON payload, its text lines, and whether the checks passed.
3. Write once: `main` is the one writer.  It prints a table in the table
   grammar; else, under --json (always for `vaut decompose`), the payload
   with the schema as one sorted, byte-stable JSON line, or else the lines.
   The exit code is 0 if the result passed, 1 if not, and 2 on an
   `NSeriesError`, printed as one `error:` line on stderr.

Text output follows the published grammars, and vectors are written by
`textio.format_vec`.  A handler's pass/fail lines start with a plain `PASS `
or `FAIL ` marker, and no other text line starts so; `main` colors the
marker exactly when stdout is a terminal, so no handler reads the stream.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

from .errors import NotDecomposableError, NSeriesError, ParseError
from .correspondence import fractional_iterate, op_exp, op_log, star
from .free_algebra import free_to_json
from .operators import (
    OpTable,
    op_evaluate,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
)
from .series_calculus import bch_product, dynkin_bch, series_E0, series_L0
from .support_order import FinitePosetFragment, choice_closure, find_good_pair, minimal_elements, max_antichain, vec_add
from .textio import (
    format_free,
    format_op_table,
    format_vec,
    parse_ctx,
    parse_free,
    parse_op_table,
    parse_rational,
    parse_vec,
)
from .vaut_factors import (
    CharacterX,
    ExponentAut,
    FactorAut,
    compose_factors,
    decompose_vaut,
    one_aut_check,
)
from .verify import SUITES, run_suite

SCHEMA = 1
_MARK_COLORS = {"PASS": 32, "FAIL": 31}  # ANSI green and red


def _mark(passed: bool, what: str) -> str:
    """`PASS what` or `FAIL what`."""
    return f"{'PASS' if passed else 'FAIL'} {what}"


def _colored(line: str) -> str:
    """`line` with its leading PASS or FAIL marker, if any, in terminal color."""
    word, sep, rest = line.partition(" ")
    color = _MARK_COLORS.get(word)
    return f"\x1b[{color}m{word}\x1b[0m{sep}{rest}" if color and sep else line


def _read_factors(text: str) -> FactorAut:
    """The factor JSON that `vaut decompose` writes; a ParseError names the bad
    field, and a residual that is no near-identity automorphism is a
    NotDecomposableError with its witness."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"factor JSON is malformed: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("factor JSON must be an object with fields mu, chi and residual")
    for name in ("mu", "chi", "residual"):
        if name not in data:
            raise ParseError(f"factor JSON has no field {name!r}")
    mu, chi = data["mu"], data["chi"]
    if not isinstance(mu, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in mu
    ):
        raise ParseError("factor field 'mu' must be an array of integer rows")
    if not isinstance(chi, list) or not all(type(v) in (str, int) for v in chi):
        raise ParseError("factor field 'chi' must be an array of exact rationals")
    if not isinstance(data["residual"], str):
        raise ParseError("factor field 'residual' must be a table text string")
    try:
        chi = tuple(parse_rational(str(v)) for v in chi)
    except ParseError as exc:
        raise ParseError(f"factor field 'chi': {exc}") from None
    try:
        residual = parse_op_table(data["residual"])
    except ParseError as exc:
        raise ParseError(f"factor field 'residual': {exc}") from None
    one_aut_check(residual).require(
        NotDecomposableError,
        "factor field 'residual' is not a near-identity automorphism; witness {}",
    )
    ctx = residual.ctx
    return FactorAut(
        ExponentAut(ctx, tuple(tuple(row) for row in mu)),
        CharacterX(ctx, chi),
        residual,
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


def _table(path: str):
    """The operator table in the file at `path`."""
    return parse_op_table(_read(path))


# -- subcommand handlers: each returns an OpTable or (payload, lines, passed) --

def _cmd_bch(args):
    series = bch_product(args.order)
    payload, lines, agrees = {"series": free_to_json(series)}, [format_free(series)], True
    if args.oracle:
        oracle = dynkin_bch(args.order)
        agrees = series == oracle
        payload.update(oracle=free_to_json(oracle), agrees=agrees)
        lines += [f"oracle: {format_free(oracle)}",
                  _mark(agrees, "commutator-formula oracle agreement")]
    return payload, lines, agrees


def _cmd_series(args):
    series = (series_E0 if args.which == "exp" else series_L0)(args.order)
    return {"series": free_to_json(series)}, [format_free(series)], True


def _cmd_order(args):
    ctx = parse_ctx(args.ctx)
    if args.action == "closure":
        offsets = [parse_vec(v) for v in args.offsets]
        start = [parse_vec(v) for v in args.vectors]
        words = choice_closure(ctx, start, lambda p: [vec_add(p, d) for d in offsets], args.depth)
        good = find_good_pair(ctx, [w[-1] for w in words])
        payload = {"words": [[list(v) for v in w] for w in words],
                   "good_pair": list(good) if good else None}
        lines = [" -> ".join(map(format_vec, w)) for w in words]
        return payload, [*lines, f"good pair on last letters: {good}"], True
    if args.action == "cmp" and len(args.vectors) != 2:
        raise NSeriesError("cmp needs exactly two exponents")
    vecs = [parse_vec(v) for v in args.vectors]
    if args.action == "cmp":
        result = ctx.cmp(*vecs).value
        return {"cmp": result}, [result], True
    frag = FinitePosetFragment.of(ctx, vecs)
    found = sorted(minimal_elements(frag) if args.action == "minimal" else max_antichain(frag))
    return {args.action: [list(v) for v in found]}, [" ".join(map(format_vec, found))], True


def _cmd_op(args):
    table = _table(args.table)
    checks = {
        "contracting": op_is_contracting,
        "derivation": op_is_derivation,
        "endo": op_is_unital_endomorphism,
    }
    picked = [name for name in checks if getattr(args, name)]
    if not picked:
        raise NSeriesError("pick at least one of --contracting/--derivation/--endo")
    results = [(name, checks[name](table)) for name in picked]
    rows = [{"check": name, "passed": res.ok, "witness": None if res.ok else repr(res.witness)}
            for name, res in results]
    lines = [_mark(res.ok, name if res.ok else f"{name}  witness: {res.witness}")
             for name, res in results]
    passed = all(res.ok for _, res in results)
    return {"checks": rows, "passed": passed}, lines, passed


def _cmd_op_eval(args):
    tables = [_table(path) for path in args.table_files]
    P = parse_free(_read(args.series), alphabet_size=len(tables), grade=tables[0].bound)
    return op_evaluate(P, tuple(tables))


def _cmd_vaut(args):
    if args.action == "compose":
        return compose_factors(_read_factors(_read(args.path)))
    split = decompose_vaut(_table(args.path))
    payload = {
        "mu": [list(row) for row in split.mu.matrix],
        "chi": [str(v) for v in split.chi.values],
        "residual": format_op_table(split.residual),
    }
    return payload, [], True


def _cmd_verify(args):
    results = run_suite(args.suite, args.order, args.trials, args.seed)
    passed = all(r.passed for r in results)
    payload = {"suite": args.suite, "order": args.order, "trials": args.trials,
               "seed": args.seed, "results": [asdict(r) for r in results], "passed": passed}
    lines = [_mark(r.passed, r.name if r.passed else f"{r.name}  ({r.detail})") for r in results]
    return payload, [*lines, _mark(passed, f"suite {args.suite}")], passed


# -- argument wiring -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nseries",
        description="Exact truncated series, operator exp/log and automorphism factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bch", help="print the two-variable group-law series")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="compare with the commutator formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bch)

    p = sub.add_parser("series", help="print the exponential or logarithm series")
    p.add_argument("which", choices=("exp", "log"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("order", help="order utilities on exponent fragments")
    p.add_argument("action", choices=("cmp", "minimal", "antichain", "closure"))
    p.add_argument("vectors", nargs="*", help="exponents as comma-separated integers")
    p.add_argument("--ctx", required=True, help="lex:d | prod:d | weighted:w1,w2,...")
    p.add_argument("--offsets", nargs="*", default=[], help="closure step offsets")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("op", help="operator table checks and evaluation")
    op_sub = p.add_subparsers(dest="op_action", required=True)
    pc = op_sub.add_parser("check", help="predicate checks on a table file")
    pc.add_argument("table", help="operator table file")
    pc.add_argument("--contracting", action="store_true")
    pc.add_argument("--derivation", action="store_true")
    pc.add_argument("--endo", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_op)
    pe = op_sub.add_parser("eval", help="evaluate a free series at operator tables")
    pe.add_argument("-P", "--series", required=True, help="free series file")
    pe.add_argument("-f", "--table-files", nargs="+", required=True)
    pe.set_defaults(func=_cmd_op_eval)

    p = sub.add_parser("exp-der", help="exponential of a contracting derivation table")
    p.add_argument("table")
    p.set_defaults(func=lambda args: op_exp(_table(args.table)))

    p = sub.add_parser("log-aut", help="logarithm of a near-identity automorphism table")
    p.add_argument("table")
    p.set_defaults(func=lambda args: op_log(_table(args.table)))

    p = sub.add_parser("star", help="group law on two contracting derivation tables")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=lambda args: star(_table(args.left), _table(args.right)))

    p = sub.add_parser("iterate", help="fractional iterate of an automorphism table")
    p.add_argument("table")
    p.add_argument("--c", required=True, help="exact rational exponent p/q")
    # Read "-2/3" as a value, not an option, as argparse itself does from Python
    # 3.13 on; before that it takes only "-1" or "-0.5" for a negative number.
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(
        func=lambda args: fractional_iterate(_table(args.table), parse_rational(args.c))
    )

    p = sub.add_parser("vaut", help="decompose or recompose automorphism factors")
    p.add_argument("action", choices=("decompose", "compose"))
    p.add_argument("path", help="table file (decompose) or factor JSON file (compose)")
    p.set_defaults(func=_cmd_vaut, json=True)  # decompose always writes JSON

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        result = args.func(args)
    except NSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, OpTable):
        print(format_op_table(result), end="")
        return 0
    payload, lines, passed = result
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True, separators=(", ", ": ")))
    else:
        tty = sys.stdout.isatty()
        for line in lines:
            print(_colored(line) if tty else line)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
