"""Command-line front end.

Subcommands: bch, series, order, op, exp-der, log-aut, star, iterate, vaut,
verify.  Text output follows the published grammars; --json emits versioned,
byte-stable JSON.  Pass/fail markers are colored exactly when stdout is a
terminal.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NSeriesError, ParseError
from .correspondence import fractional_iterate, op_exp, op_log, star
from .free_algebra import free_to_json
from .operators import (
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
)
from .verify import SUITES, run_suite

SCHEMA = 1


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _mark(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if sys.stdout.isatty():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _read_factors(text: str) -> FactorAut:
    """The factor JSON that `vaut decompose` writes; a ParseError names the bad field."""
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


def _write_table(table) -> int:
    """Print a table result in the table grammar; exit code 0."""
    print(format_op_table(table), end="")
    return 0


# -- subcommand handlers ------------------------------------------------------

def _cmd_bch(args) -> int:
    series = bch_product(args.order)
    oracle = dynkin_bch(args.order) if args.oracle else None
    agrees = oracle is None or series == oracle
    if args.json:
        payload = {"schema": SCHEMA, "series": free_to_json(series)}
        if oracle is not None:
            payload["oracle"] = free_to_json(oracle)
            payload["agrees"] = agrees
        _emit_json(payload)
    else:
        print(format_free(series))
        if oracle is not None:
            print(f"oracle: {format_free(oracle)}")
            print(f"{_mark(agrees)} commutator-formula oracle agreement")
    return 0 if agrees else 1


def _cmd_series(args) -> int:
    series = series_E0(args.order) if args.which == "exp" else series_L0(args.order)
    if args.json:
        _emit_json({"schema": SCHEMA, "series": free_to_json(series)})
    else:
        print(format_free(series))
    return 0


def _cmd_order(args) -> int:
    ctx = parse_ctx(args.ctx)
    if args.action == "cmp":
        if len(args.vectors) != 2:
            raise NSeriesError("cmp needs exactly two exponents")
        a, b = (parse_vec(v) for v in args.vectors)
        result = ctx.cmp(a, b).value
        _emit_json({"schema": SCHEMA, "cmp": result}) if args.json else print(result)
        return 0
    if args.action in ("minimal", "antichain"):
        frag = FinitePosetFragment.of(ctx, [parse_vec(v) for v in args.vectors])
        found = minimal_elements(frag) if args.action == "minimal" else max_antichain(frag)
        vecs = sorted(found)
        if args.json:
            _emit_json({"schema": SCHEMA, args.action: [list(v) for v in vecs]})
        else:
            print(" ".join(",".join(str(x) for x in v) for v in vecs))
        return 0
    offsets = [parse_vec(v) for v in args.offsets]
    start = [parse_vec(v) for v in args.vectors]
    words = choice_closure(
        ctx, start, lambda p: [vec_add(p, d) for d in offsets], args.depth
    )
    lasts = [w[-1] for w in words]
    good = find_good_pair(ctx, lasts)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "words": [[list(v) for v in w] for w in words],
                "good_pair": list(good) if good else None,
            }
        )
    else:
        for w in words:
            print(" -> ".join(",".join(str(x) for x in v) for v in w))
        print(f"good pair on last letters: {good}")
    return 0


def _cmd_op(args) -> int:
    table = _table(args.table)
    checks = {
        "contracting": op_is_contracting,
        "derivation": op_is_derivation,
        "endo": op_is_unital_endomorphism,
    }
    picked = [name for name in checks if getattr(args, name)]
    if not picked:
        raise NSeriesError("pick at least one of --contracting/--derivation/--endo")
    all_ok = True
    rows = []
    for name in picked:
        res = checks[name](table)
        all_ok &= res.ok
        witness = None if res.ok else repr(res.witness)
        rows.append({"check": name, "passed": res.ok, "witness": witness})
        if not args.json:
            extra = "" if res.ok else f"  witness: {res.witness}"
            print(f"{_mark(res.ok)} {name}{extra}")
    if args.json:
        _emit_json({"schema": SCHEMA, "checks": rows, "passed": all_ok})
    return 0 if all_ok else 1


def _cmd_op_eval(args) -> int:
    tables = [_table(path) for path in args.table_files]
    P = parse_free(
        _read(args.series), alphabet_size=len(tables), grade=tables[0].bound
    )
    return _write_table(op_evaluate(P, tuple(tables)))


def _cmd_exp_der(args) -> int:
    return _write_table(op_exp(_table(args.table)))


def _cmd_log_aut(args) -> int:
    return _write_table(op_log(_table(args.table)))


def _cmd_star(args) -> int:
    return _write_table(star(_table(args.left), _table(args.right)))


def _cmd_iterate(args) -> int:
    return _write_table(fractional_iterate(_table(args.table), parse_rational(args.c)))


def _cmd_vaut(args) -> int:
    if args.action == "decompose":
        split = decompose_vaut(_table(args.path))
        _emit_json(
            {
                "schema": SCHEMA,
                "mu": [list(row) for row in split.mu.matrix],
                "chi": [str(v) for v in split.chi.values],
                "residual": format_op_table(split.residual),
            }
        )
        return 0
    return _write_table(compose_factors(_read_factors(_read(args.path))))


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.order, args.trials, args.seed)
    passed = all(r.passed for r in results)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "suite": args.suite,
                "order": args.order,
                "trials": args.trials,
                "seed": args.seed,
                "results": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail, "bound": r.bound}
                    for r in results
                ],
                "passed": passed,
            }
        )
    else:
        for r in results:
            extra = "" if r.passed else f"  ({r.detail})"
            print(f"{_mark(r.passed)} {r.name}{extra}")
        print(f"{_mark(passed)} suite {args.suite}")
    return 0 if passed else 1


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
    p.set_defaults(func=_cmd_exp_der)

    p = sub.add_parser("log-aut", help="logarithm of a near-identity automorphism table")
    p.add_argument("table")
    p.set_defaults(func=_cmd_log_aut)

    p = sub.add_parser("star", help="group law on two contracting derivation tables")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("iterate", help="fractional iterate of an automorphism table")
    p.add_argument("table")
    p.add_argument("--c", required=True, help="exact rational exponent p/q")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("vaut", help="decompose or recompose automorphism factors")
    p.add_argument("action", choices=("decompose", "compose"))
    p.add_argument("path", help="table file (decompose) or factor JSON file (compose)")
    p.set_defaults(func=_cmd_vaut)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NSeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
