"""Time one benchmark workload's jobs on two checkouts in one process, A/B interleaved.

    python3 tools/ab_time.py TREE_A TREE_B --workload verify [--seed 1] [--repeat 5] [--jobs N]

Each tree's `src/nseries` is imported under its own package name (`nseries_a`,
`nseries_b`), so both live in this process and no bytecode is written into
either tree.  The job list comes from `nsbench/workloads.py` of this checkout,
which is only imported: both trees set the workload up from the seed, their
input digests must agree, and both then run on tree A's input files.  The
first `--jobs` jobs run (default: the workload's traced pass, which covers
every job kind; 0 runs them all).  Each job runs `--repeat` times per tree,
A then B in the first round, B then A in the second and so on, and a job's
time is its minimum over the rounds, so load that drifts during the run hits
both trees alike.
Separate benchmark runs on a loaded two-core machine swing by about 30%;
the ratios printed here come from interleaved runs and move far less.

Stdout gets one line per job kind and a total: jobs, summed minimum
milliseconds of A and of B, then B/A and its range, both read off the
per-round B/As, a round's B/A being its summed B time over its summed A
time: B/A is their median and the range their lowest and highest, so B/A
always lies in its own range.  A range that holds 1 is as likely noise as
change.  Under each kind, an indented line of the same form for each input
context shows where a change lands: the context is the first input file's
name up to its first `-` (`w12`, `p2`, `lex1`), and a kind whose jobs name
no file (verify's) gets no such line.
The exit code is 1 if any run of a job gives another (exit code, stdout)
than its first run, on either tree, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "nsbench"))
sys.dont_write_bytecode = True

import workloads  # noqa: E402


def import_tree(tree: Path, name: str):
    """`tree`'s src/nseries imported as package `name`: (cli module, the
    modules `workloads.load_modules` gives, under the same attribute names)."""
    init = tree / "src" / "nseries" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no nseries sources under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)

    def sub(module):
        return importlib.import_module(f"{name}.{module}")

    ns = SimpleNamespace(
        corr=sub("correspondence"), hahn=sub("hahn_series"), ops=sub("operators"),
        samples=sub("samples"), order=sub("support_order"), textio=sub("textio"),
        vaut=sub("vaut_factors"),
    )
    return sub("cli"), ns


def run_job(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    """(seconds, (exit code, stdout)) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        elapsed = perf_counter() - start
    return elapsed, (rc, out.getvalue())


def context(argv: list[str]) -> str | None:
    """The name of the job's first input file up to its first `-`; None when
    the job names no file.  Input files are the absolute paths of the argv."""
    return next((Path(a).name.partition("-")[0] for a in argv if Path(a).is_absolute()), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)
    trees = {"A": import_tree(args.tree_a, "nseries_a"),
             "B": import_tree(args.tree_b, "nseries_b")}
    set_up = workloads.SETUPS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        setups = {side: set_up(ns, args.seed, Path(tmp, side)) for side, (_, ns) in trees.items()}
        if setups["A"].digest != setups["B"].digest:
            print("error: the trees draw different inputs for this workload and seed",
                  file=sys.stderr)
            return 1
        jobs = setups["A"].jobs
        limit = setups["A"].trace_jobs if args.jobs is None else args.jobs or len(jobs)
        jobs = jobs[:limit]
        times = {side: [[] for _ in jobs] for side in trees}
        first = [None] * len(jobs)
        for rnd in range(args.repeat):
            for i, job in enumerate(jobs):
                for side in ("AB" if rnd % 2 == 0 else "BA"):
                    elapsed, result = run_job(trees[side][0], job.argv)
                    times[side][i].append(elapsed)
                    if first[i] is None:
                        first[i] = result
                    elif result != first[i]:
                        print(f"error: tree {side} gives another (exit code, stdout) on {job.argv}",
                              file=sys.stderr)
                        return 1
    kinds: dict[str, dict[str | None, list[int]]] = {}
    for i, job in enumerate(jobs):
        kinds.setdefault(job.kind, {}).setdefault(context(job.argv), []).append(i)
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs, min of {args.repeat}, "
          f"A={args.tree_a} B={args.tree_b}")

    def report(label: str, idx) -> None:
        a = sum(min(times["A"][i]) for i in idx) * 1000
        b = sum(min(times["B"][i]) for i in idx) * 1000
        rounds = [sum(times["B"][i][r] for i in idx) / sum(times["A"][i][r] for i in idx)
                  for r in range(args.repeat)]
        print(f"{label:20s} {len(idx):4d} jobs  A {a:9.1f} ms  B {b:9.1f} ms"
              f"  B/A {median(rounds):.3f}  rounds {min(rounds):.3f}..{max(rounds):.3f}")

    for kind, contexts in kinds.items():
        report(kind, [i for idx in contexts.values() for i in idx])
        for ctx, idx in contexts.items():
            if ctx is not None:
                report(f"  {ctx}", idx)
    report("total", range(len(jobs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
