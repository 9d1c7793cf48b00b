"""Print one sha256 over the outputs of a fixed set of nseries command lines.

The set is every corr and vaut job of the benchmark at seeds 1-3, with the
inputs drawn by `nsbench/workloads.py`; `iterate` at the exponents
0, -1, 2, -2/3 and 5/3 (spelled `--c=-2/3`, which older checkouts also
accept) on every automorphism table that the seed-1 corr jobs
iterate, beside their own 1/2; and `verify <suite> --json` for every
suite name at (order, trials, seed) = (6, 10, 1) and (8, 5, 7).  It adds
`op eval` of a seeded free series at two seeded contracting tables in three
contexts at seeds 1-3, `bch --order 8 --json`, `bch --order 6 --oracle` with
and without `--json`, `bch --order 8 --oracle --json`, and `series exp|log
--order 8`.  It runs `order
cmp|minimal|antichain|closure` in three contexts, and `op check` on a passing
and a failing table, each as text and with `--json`.  In the same three
contexts it makes one failing call per check the command line reaches:
`exp-der`, `star` (left and right) and `op eval` on the identity table,
`log-aut` on the zero table and `iterate` on Id plus a seeded contracting table.
It adds three failing matrix checks: `vaut compose` on factor JSON whose mu is
[[2]] on lex:1 or the swap on lex:2, and `vaut decompose` on the lex:1 table
t -> t^2, whose leads have det 2.  It adds three residuals that are no
near-identity automorphism to `vaut compose`: the zero table on prod:2, the
character rescale t -> 2t on lex:1, and Id plus t^2 -> t^3 on lex:1.
In the same contexts it runs `exp-der`, `log-aut` and `op eval` on files written
in every spelling the grammar has always accepted (see `respell`).  Last, it runs
`op check --contracting`, as text and with `--json`, and `exp-der` on a lex:2
N=3 table file whose image t^(1,0) -> t^(3,-1) lies outside the truncation.
Each command runs in this process against the package in `src/` of this
checkout; its exit code, stdout and stderr enter the digest, with the
temporary input directory stripped.  Equal digests on two checkouts mean byte-identical outputs.
No command reaches the factor tables alone, so last, in the contexts prod:2,
prod:3, weighted:1,2 and lex:2 and for each exponent map of `FACTOR_CONTEXTS`,
it digests the formatted tables, or the error lines, of `gexp_table`,
`gder_table` and `oaut_table` on a seeded character, `compose_factors` with a
seeded near-identity residual, and `pullback_morphism` of a seeded
contracting derivation, of a table at another bound and of a series.
No command reaches zero images alone either, so in the same four contexts it
takes a seeded contracting table t, a seeded near-identity table with one
image set to zero, and a seeded series a.  For each power of t up to two past
the bound (t^(N+1) = 0), the zero table and that near-identity table, it
digests the formatted compositions with t and with the near-identity table on
either side, one sum that cancels, and the application to a.
The one line on stdout is the digest over every command.  Stderr gets one
`<group> <digest>` line per command group (corr, iterate, vaut, verify, op eval,
bch/series, order, op check, failures, spellings, truncation, factors, kernel),
so two checkouts whose digests differ can be told apart by group.
`digests()` returns the same digests; `tests/test_output_digest.py` pins
them, so a change that alters an output on purpose updates that pin.

    python3 tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "nsbench")]

import workloads  # noqa: E402
from nseries import (  # noqa: E402
    CharacterX, ExponentAut, FactorAut, HahnPoly, MonoidCtx, NSeriesError, OpTable, cli,
    compose_factors, gder_table, gexp_table, oaut_table, op_apply, op_compose, op_exp,
    pullback_morphism, samples, textio,
)
from nseries.verify import SUITES  # noqa: E402

SEEDS = (1, 2, 3)
ITERATE_EXPONENTS = ("0", "-1", "2", "-2/3", "5/3")
VERIFY_CONFIGS = ((6, 10, 1), (8, 5, 7))
EVAL_CONTEXTS = (("lex:1", 5), ("prod:2", 3), ("weighted:1,2", 4))
ORDER_CONTEXTS = ("lex:2", "prod:2", "weighted:1,2")
ORDER_ARGV = (
    ["cmp", "1,0", "0,1"],
    ["cmp", "1,1", "2,-1"],
    ["minimal", "1,0", "0,1", "1,1", "2,0", "0,2"],
    ["antichain", "1,0", "0,1", "1,1", "2,0", "0,2", "2,-1"],
    ["closure", "0,0", "1,0", "--offsets", "1,0", "0,1", "--depth", "3"],
)
# lex:2 N=3 in basis order; t^(3,-1) has weight 2 and a negative entry.
OUT_OF_TRUNCATION = (
    "ctx=lex:2 N=3\nt^(0,0) -> 0\nt^(0,1) -> 0\nt^(1,0) -> t^(3,-1)\nt^(0,2) -> 0\n"
    "t^(1,1) -> 0\nt^(2,0) -> 0\nt^(0,3) -> 0\nt^(1,2) -> 0\nt^(2,1) -> 0\nt^(3,0) -> 0\n"
)
# (context, bound, exponent maps): the identity, then a permutation or shears,
# some of which leave the truncation.
FACTOR_CONTEXTS = (
    ("prod:2", 4, (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
    ("prod:3", 3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))),
    ("weighted:1,2", 4, (((1, 0), (0, 1)), ((3, 4), (-1, -1)))),
    ("lex:2", 3, (((1, 0), (0, 1)), ((1, 0), (-1, 1)), ((1, 0), (1, 1)))),
)
# Id plus the contracting non-derivation t^2 -> t^3: it fixes 1 and breaks t * t.
SHIFTED_RESIDUAL = (
    "ctx=lex:1 N=3\nt^(0) -> 1\nt^(1) -> t^(1)\nt^(2) -> t^(2) + t^(3)\nt^(3) -> t^(3)\n"
)


def respell(series, write_key, sep: str = " ") -> str:
    """`series` in the spellings the canonical writer never uses: a sign before
    every term, the first included; each key written twice, a decimal 0.5 and
    its negation -1/2 added to it; and the constant term as `2*c/2`.  Terms are
    joined by `sep`, so a newline splits them across lines."""
    parts = ["- 0", "+ 0.0"]
    for key, coeff in series.sorted_terms():
        sign, body = "+" if coeff > 0 else "-", write_key(key)
        if body:
            parts += [f"+ 0.5*{body}", f"{sign} {abs(coeff)}*{body}", f"- 1/2 * {body}"]
        else:
            parts.append(f"{sign} 2*{abs(coeff) / 2}")
    return sep.join(parts)


def respell_table(table) -> str:
    """A table file with spaced exponent tuples and respelled images."""
    def spaced(exp):
        return "t^( " + ", ".join(str(e) for e in exp) + " )"

    lines = [f"ctx={textio.format_ctx(table.ctx)} N={table.bound}"]
    for m, image in table.images.items():
        lines.append(f"{spaced(m)} -> {respell(image, lambda e: spaced(e) if any(e) else '')}")
    return "\n".join(lines) + "\n"


def feed(hashes, argv: list[str], strip: str = "") -> None:
    """Run one command line and add its exit code, stdout and stderr to each of `hashes`."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    for part in (str(rc), out.getvalue(), err.getvalue()):
        for h in hashes:
            h.update(part.replace(strip, "").encode() + b"\0")


def feed_table(hashes, call) -> None:
    """Add the formatted table or series `call()` returns, or its error line, to
    each of `hashes`."""
    try:
        result = call()
        write = textio.format_hahn if isinstance(result, HahnPoly) else textio.format_op_table
        text = write(result)
    except (NSeriesError, TypeError) as exc:
        text = f"error: {type(exc).__name__}: {exc}\n"
    for h in hashes:
        h.update(text.encode() + b"\0")


def digests() -> tuple[str, dict[str, str]]:
    """The digest over every command, and {group: digest} in group order."""
    h = hashlib.sha256()
    groups = {name: hashlib.sha256() for name in ("corr", "iterate", "vaut", "verify", "op eval",
                                                   "bch/series", "order", "op check", "failures",
                                                   "spellings", "truncation", "factors",
                                                   "kernel")}
    ns = workloads.load_modules()
    for name in ("corr", "vaut"):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                setup = workloads.SETUPS[name](ns, seed, Path(tmp))
                for job in setup.jobs:
                    feed((h, groups[name]), job.argv, strip=tmp + "/")
                if name == "corr" and seed == 1:
                    for job in setup.jobs:
                        if job.kind == "iterate":
                            for c in ITERATE_EXPONENTS:
                                feed((h, groups["iterate"]), ["iterate", job.argv[1], f"--c={c}"],
                                     strip=tmp + "/")
    for order, trials, seed in VERIFY_CONFIGS:
        for suite in SUITES:
            argv = ["verify", suite, "--order", str(order), "--trials", str(trials),
                    "--seed", str(seed), "--json"]
            feed((h, groups["verify"]), argv)
    for descr, bound in EVAL_CONTEXTS:
        ctx = textio.parse_ctx(descr)
        for seed in SEEDS:
            rng = random.Random(seed)
            tables = [samples.random_contracting_table(rng, ctx, bound) for _ in range(2)]
            series = samples.random_free_series(rng, 2, bound, terms=8)
            with tempfile.TemporaryDirectory() as tmp:
                t0, t1, P = (Path(tmp, name) for name in ("t0.tbl", "t1.tbl", "P.txt"))
                t0.write_text(textio.format_op_table(tables[0]))
                t1.write_text(textio.format_op_table(tables[1]))
                P.write_text(textio.format_free(series))
                feed((h, groups["op eval"]), ["op", "eval", "-P", str(P), "-f", str(t0), str(t1)],
                     strip=tmp + "/")
    for argv in (["bch", "--order", "8", "--json"], ["bch", "--order", "6", "--oracle"],
                 ["bch", "--order", "6", "--oracle", "--json"],
                 ["bch", "--order", "8", "--oracle", "--json"],
                 ["series", "exp", "--order", "8"], ["series", "log", "--order", "8"]):
        feed((h, groups["bch/series"]), argv)
    for descr in ORDER_CONTEXTS:
        for argv in ORDER_ARGV:
            for json_flag in ([], ["--json"]):
                feed((h, groups["order"]), ["order", *argv, "--ctx", descr, *json_flag])
    for seed, (descr, bound) in enumerate(EVAL_CONTEXTS, start=1):
        ctx = textio.parse_ctx(descr)
        rng = random.Random(seed)
        ident = OpTable.identity(ctx, bound)
        tables = {
            "id": ident,
            "zero": OpTable.zero(ctx, bound),
            "der": samples.random_contracting_derivation(rng, ctx, bound),
            "con": samples.random_contracting_table(rng, ctx, bound),
        }
        tables["id+con"] = ident + tables["con"]
        series = samples.random_free_series(rng, 2, bound, terms=8)
        with tempfile.TemporaryDirectory() as tmp:
            path = {name: str(Path(tmp, name + ".tbl")) for name in tables}
            for name, table in tables.items():
                Path(path[name]).write_text(textio.format_op_table(table))
            P = Path(tmp, "P.txt")
            P.write_text(textio.format_free(series))
            for name, flags in (("der", ["--contracting", "--derivation"]),
                                ("id", ["--contracting", "--derivation", "--endo"])):
                for json_flag in ([], ["--json"]):
                    feed((h, groups["op check"]), ["op", "check", path[name], *flags, *json_flag],
                         strip=tmp + "/")
            for argv in (["exp-der", path["id"]], ["log-aut", path["zero"]],
                         ["star", path["id"], path["der"]], ["star", path["der"], path["id"]],
                         ["op", "eval", "-P", str(P), "-f", path["con"], path["id"]],
                         ["iterate", path["id+con"], "--c", "1/2"]):
                feed((h, groups["failures"]), argv, strip=tmp + "/")
    lex1, lex2, prod2 = MonoidCtx.lex(1), MonoidCtx.lex(2), MonoidCtx.product(2)
    with tempfile.TemporaryDirectory() as tmp:
        for name, mu, residual in (
            ("det2", [[2]], textio.format_op_table(OpTable.identity(lex1, 2))),
            ("swap", [[0, 1], [1, 0]], textio.format_op_table(OpTable.identity(lex2, 2))),
            ("zero", [[1, 0], [0, 1]], textio.format_op_table(OpTable.zero(prod2, 2))),
            ("rescale", [[1]], textio.format_op_table(gexp_table(CharacterX(lex1, (2,)), 2))),
            ("shifted", [[1]], SHIFTED_RESIDUAL),
        ):
            factors = {"mu": mu, "chi": ["1"] * len(mu), "residual": residual}
            Path(tmp, name + ".json").write_text(json.dumps(factors))
            feed((h, groups["failures"]), ["vaut", "compose", str(Path(tmp, name + ".json"))],
                 strip=tmp + "/")
        square = Path(tmp, "square.tbl")
        square.write_text("ctx=lex:1 N=4\nt^(0) -> 1\nt^(1) -> t^(2)\nt^(2) -> t^(4)\n"
                          "t^(3) -> 0\nt^(4) -> 0\n")
        feed((h, groups["failures"]), ["vaut", "decompose", str(square)], strip=tmp + "/")
    for seed, (descr, bound) in enumerate(EVAL_CONTEXTS, start=1):
        ctx = textio.parse_ctx(descr)
        rng = random.Random(seed)
        der = samples.random_contracting_derivation(rng, ctx, bound)
        tables = {"der": der, "aut": op_exp(der),
                  "con": samples.random_contracting_table(rng, ctx, bound)}
        series = samples.random_free_series(rng, 2, bound, terms=8)
        with tempfile.TemporaryDirectory() as tmp:
            path = {name: str(Path(tmp, name + ".tbl")) for name in tables}
            for name, table in tables.items():
                Path(path[name]).write_text(respell_table(table))
            P = Path(tmp, "P.txt")
            P.write_text(respell(series, lambda w: " ".join(f"x{i}" for i in w), sep="\n"))
            for argv in (["exp-der", path["der"]], ["log-aut", path["aut"]],
                         ["op", "eval", "-P", str(P), "-f", path["der"], path["con"]]):
                feed((h, groups["spellings"]), argv, strip=tmp + "/")
    with tempfile.TemporaryDirectory() as tmp:
        stray = Path(tmp, "stray.tbl")
        stray.write_text(OUT_OF_TRUNCATION)
        for argv in (["op", "check", str(stray), "--contracting"],
                     ["op", "check", str(stray), "--contracting", "--json"],
                     ["exp-der", str(stray)]):
            feed((h, groups["truncation"]), argv, strip=tmp + "/")
    hashes = (h, groups["factors"])
    for seed, (descr, bound, mats) in enumerate(FACTOR_CONTEXTS, start=1):
        ctx = textio.parse_ctx(descr)
        rng = random.Random(seed)
        for mat in mats:
            mu, chi = ExponentAut(ctx, mat), samples.random_character(rng, ctx)
            alpha = samples.random_additive_char(rng, ctx)
            residual = op_exp(samples.random_contracting_derivation(rng, ctx, bound))
            d = samples.random_contracting_derivation(rng, ctx, bound)
            feed_table(hashes, lambda: gexp_table(chi, bound))
            feed_table(hashes, lambda: gder_table(alpha, bound))
            feed_table(hashes, lambda: oaut_table(mu, bound))
            feed_table(hashes, lambda: compose_factors(FactorAut(mu, chi, residual)))
            for arg in (d, OpTable.identity(ctx, bound + 1), samples.random_hahn(rng, ctx, bound)):
                feed_table(hashes, lambda: pullback_morphism(mu, bound)(arg))
    hashes = (h, groups["kernel"])
    for seed, (descr, bound, _) in enumerate(FACTOR_CONTEXTS, start=1):
        ctx = textio.parse_ctx(descr)
        rng = random.Random(seed)
        t = samples.random_contracting_table(rng, ctx, bound)
        images = dict((OpTable.identity(ctx, bound) + t.scale(rng.randint(1, 3))).images)
        images[rng.choice(t.basis())] = HahnPoly.zero(ctx, bound)
        one_zero, a = OpTable(ctx, bound, images), samples.random_hahn(rng, ctx, bound)
        powers = [OpTable.identity(ctx, bound)]
        while len(powers) < bound + 3:
            powers.append(op_compose(t, powers[-1]))
        for x in (*powers, OpTable.zero(ctx, bound), one_zero):
            for f, g in ((t, x), (x, t), (one_zero, x), (x, one_zero)):
                feed_table(hashes, lambda: op_compose(f, g))
            feed_table(hashes, lambda: x.lin_comb([(1, x), (2, one_zero), (-1, x), (-2, one_zero),
                                                   (Fraction(1, 3), t)]))
            feed_table(hashes, lambda: op_apply(x, a))
    return h.hexdigest(), {name: group.hexdigest() for name, group in groups.items()}


def main() -> None:
    total, groups = digests()
    for name, digest in groups.items():
        print(f"{name} {digest}", file=sys.stderr)
    print(total)


if __name__ == "__main__":
    main()
