"""Print one sha256 over the outputs of a fixed set of nseries command lines.

The set is every corr and vaut job of the benchmark at seeds 1-3, with the
inputs drawn by `nsbench/workloads.py`, and `verify <suite> --json` for every
suite name at (order, trials, seed) = (6, 10, 1) and (8, 5, 7).  It adds
`op eval` of a seeded free series at two seeded contracting tables in three
contexts at seeds 1-3, `bch --order 8 --json`, `bch --order 6 --oracle` with
and without `--json`, and `series exp|log --order 8`.
Each command runs in this process against the package in `src/` of this
checkout; its exit code, stdout and stderr enter the digest, with the
temporary input directory stripped.  Equal digests on two checkouts mean byte-identical outputs.

    python3 tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "nsbench")]

import workloads  # noqa: E402
from nseries import cli, samples, textio  # noqa: E402
from nseries.verify import SUITES  # noqa: E402

SEEDS = (1, 2, 3)
VERIFY_CONFIGS = ((6, 10, 1), (8, 5, 7))
EVAL_CONTEXTS = (("lex:1", 5), ("prod:2", 3), ("weighted:1,2", 4))


def feed(h, argv: list[str], strip: str = "") -> None:
    """Run one command line and add its exit code, stdout and stderr to `h`."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    for part in (str(rc), out.getvalue(), err.getvalue()):
        h.update(part.replace(strip, "").encode() + b"\0")


def main() -> None:
    h = hashlib.sha256()
    ns = workloads.load_modules()
    for name in ("corr", "vaut"):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                setup = workloads.SETUPS[name](ns, seed, Path(tmp))
                for job in setup.jobs:
                    feed(h, job.argv, strip=tmp + "/")
    for order, trials, seed in VERIFY_CONFIGS:
        for suite in SUITES:
            argv = ["verify", suite, "--order", str(order), "--trials", str(trials),
                    "--seed", str(seed), "--json"]
            feed(h, argv)
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
                feed(h, ["op", "eval", "-P", str(P), "-f", str(t0), str(t1)], strip=tmp + "/")
    for argv in (["bch", "--order", "8", "--json"], ["bch", "--order", "6", "--oracle"],
                 ["bch", "--order", "6", "--oracle", "--json"],
                 ["series", "exp", "--order", "8"], ["series", "log", "--order", "8"]):
        feed(h, argv)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
