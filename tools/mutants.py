"""Break each fast path of src/nseries on purpose, and check that its tests notice.

    python3 tools/mutants.py [--list] [NAME ...]

A mutant is one exact substitution (file under src/nseries, old text, new
text) with the tests expected to kill it.  The tool copies `src/`, `tests/`
and `pyproject.toml` of this checkout to a temporary directory, first runs
the union of the named tests there unchanged, and then applies one mutant at
a time and runs its tests with `pytest -x`.  A mutant is killed when pytest
reports a failing test (exit code 1); it survives when every test passes.
Any other pytest exit (a collection error, say) is reported as an error,
since a mutant that breaks the import kills nothing.

Each line of stdout is `killed`, `SURVIVED`, `ERROR` or `STALE` and the
mutant's name; `STALE` means that the old text no longer occurs exactly once
in its file, so a refactor that moves a fast path must carry its mutants
along.  The exit code is 1 if the unchanged tests fail or any mutant is not
killed, else 0.  With names, only those mutants run; `--list` prints the
names.  The tier-1 suite does not run this tool: each mutant costs one
pytest start-up and its tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ORACLES = "tests/test_table_oracles.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/nseries
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # -- SparseTable._read, the one row read of the factor tables ------------
    Mutant("read keeps a zero-scale row", "sparse.py",
           "            if c:\n                p = c.numerator",
           "            if True:\n                p = c.numerator",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    Mutant("read drops the scales' denominator", "sparse.py",
           "return self._reduced(den * common, out)",
           "return self._reduced(den, out)",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    Mutant("read ignores the relabeling", "sparse.py",
           "else {relabel[key]: p * n for key, n in row.items()})",
           "else {key: p * n for key, n in row.items()})",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    # -- _LatticeChar._on_basis, the character walk ---------------------------
    Mutant("multiplicative character walks by sums", "vaut_factors.py",
           "_UNIT, _STEP = Fraction(1), operator.mul",
           "_UNIT, _STEP = Fraction(1), operator.add",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    Mutant("additive character walks by products", "vaut_factors.py",
           "_UNIT, _STEP = Fraction(0), operator.add",
           "_UNIT, _STEP = Fraction(0), operator.mul",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    # -- SparseSeries._product: the shift loop and the room lists ------------
    Mutant("shift loop drops the bound", "sparse.py",
           "for gb, (kb, nb) in graded if gb <= room}",
           "for gb, (kb, nb) in graded if gb < room}",
           ("tests/test_sparse.py::test_a_one_term_operand_shifts_the_other",)),
    Mutant("shift loop takes every product", "sparse.py",
           "if len(left) == 1 or len(graded) == 1:",
           "if True:",
           ("tests/test_sparse.py",)),
    Mutant("room lists drop the bound", "sparse.py",
           "[term for gb, term in graded if gb <= room]",
           "[term for gb, term in graded if gb < room]",
           ("tests/test_sparse.py::test_the_product_visits_only_fitting_pairs",)),
    # -- SparseTable.row_keys, the rows of the contracting test ---------------
    Mutant("row keys skip the row of t^0", "sparse.py",
           "rows = (self._form or _table_form(self))[1]\n        for m in self.basis():",
           "rows = (self._form or _table_form(self))[1]\n        for m in self.basis()[1:]:",
           (f"{ORACLES}::test_row_reads_build_no_images",)),
    # -- samples: the cone table ----------------------------------------------
    Mutant("cone table leaves out the generators", "samples.py",
           "for m in (*universe, *ctx.generators())}",
           "for m in universe}",
           ("tests/test_samples.py::test_drawn_tables_equal_checked_builds_of_the_same_draws",)),
    # -- operators._extend, the up-front check of the generator images --------
    Mutant("generator image type unchecked", "operators.py",
           "if not isinstance(img := gen_images[i], HahnPoly):",
           "if not isinstance(img := gen_images[i], (HahnPoly, int)):",
           ("tests/test_rejections.py::test_each_rejection_keeps_its_class_and_message",)),
    Mutant("generator image space unchecked", "operators.py",
           "            if img._space() != space:",
           "            if False:",
           ("tests/test_rejections.py::test_each_rejection_keeps_its_class_and_message",)),
    # -- ExponentAut.identity, built without the probe scan -------------------
    Mutant("unchecked identity is another matrix", "vaut_factors.py",
           'object.__setattr__(obj, "matrix", ctx.generators())',
           'object.__setattr__(obj, "matrix", ctx.generators()[::-1])',
           ("tests/test_vaut_factors.py::test_the_identity_equals_its_checked_build",)),
    # -- earlier fast paths: the kernel loops, the order and the factor reads -
    Mutant("table form keeps unscaled rows", "sparse.py",
           "{m: nums if d == den else {key: n * (den // d) for key, n in nums.items()}",
           "{m: nums if True else {key: n * (den // d) for key, n in nums.items()}",
           ("tests/test_sparse.py",)),
    Mutant("table sum keeps the gcd", "sparse.py",
           "        if g > 1:\n            common //= g",
           "        if False:\n            common //= g",
           ("tests/test_sparse.py",)),
    Mutant("a cancelled key keeps its place in _through", "sparse.py",
           "                    del out[r]",
           "                    out[r] = 0",
           ("tests/test_sparse.py",)),
    Mutant("no shared zero image", "sparse.py",
           "return {m: zero if (row := rows.get(m)) is None",
           "return {m: image._held(space, (1, {})) if (row := rows.get(m)) is None",
           ("tests/test_sparse.py::test_a_late_read_of_images_matches_the_per_image_fold",)),
    Mutant("equality ignores the space", "sparse.py",
           "return self._space() == other._space() and (",
           "return (",
           ("tests/test_sparse.py",)),
    Mutant("product order is not strict", "support_order.py",
           "return a != b and all(map(operator.le, a, b))",
           "return all(map(operator.le, a, b))",
           ("tests/test_support_order.py",)),
    Mutant("truncation admits negative entries", "support_order.py",
           "return min(m) >= 0 and self.weight(m) <= bound",
           "return self.weight(m) <= bound",
           (f"{ORACLES}::test_a_term_outside_the_basis_names_its_exponent",)),
    Mutant("read scales by the character at m", "sparse.py",
           "picked = [(m, row, 1 if scale is None else scale[q])",
           "picked = [(m, row, 1 if scale is None else scale[m])",
           (f"{ORACLES}::test_row_reads_match_the_chains_and_the_per_image_scale",)),
    Mutant("pullback reads d through mu", "vaut_factors.py",
           "source = {m: back[m] for m in basis}",
           "source = {m: forward[m] for m in basis}",
           (f"{ORACLES}::test_pullback_matches_the_conjugation_chain",)),
    Mutant("decompose reads chi at the generator", "vaut_factors.py",
           "chi = CharacterX(ctx, tuple(base.at(mat_vec(back, g)) for g in gens))",
           "chi = CharacterX(ctx, tuple(base.at(g) for g in gens))",
           (f"{ORACLES}::test_decompose_residual_matches_the_inverse_chain",)),
    Mutant("generator walk splits off the last generator", "operators.py",
           "e = gens[next(j for j, x in enumerate(m) if x)]",
           "e = gens[max(j for j, x in enumerate(m) if x)]",
           ("tests/test_operators.py::test_a_failed_predicate_splits_off_the_first_generator",)),
    Mutant("nilpotent sum stops one power early", "free_algebra.py",
           "    for n in range(1, P.grade + 1):\n        pw = x * pw",
           "    for n in range(1, P.grade):\n        pw = x * pw",
           ("tests/test_evaluation_oracles.py",)),
)


def _pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _verdict(tree: Path, mutant: Mutant) -> str:
    """Apply `mutant` to `tree`, run its tests and restore the file."""
    path = tree / "src" / "nseries" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "STALE"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code = _pytest(tree, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")
    return {0: "SURVIVED", 1: "killed"}.get(code, "ERROR")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(tree, tests) != 0:
            print("ERROR the unchanged tests fail", flush=True)
            return 1
        failed = 0
        for mutant in chosen:
            verdict = _verdict(tree, mutant)
            failed += verdict != "killed"
            print(f"{verdict} {mutant.name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
