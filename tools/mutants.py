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
WALK = "tests/test_predicate_oracles.py"
EXTENSIONS = f"{WALK}::test_row_extensions_equal_the_image_by_image_walk"
PREDICATES = f"{WALK}::test_row_predicates_equal_the_image_by_image_walk"
ORDER = "tests/test_support_order.py"
SPARSE = "tests/test_sparse.py"
CALCULUS = "tests/test_series_calculus.py"
VERIFY = "tests/test_verify.py"
VAUT = "tests/test_vaut_factors.py"
EVALUATION = "tests/test_evaluation_oracles.py"


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
    # -- _multiply, the one truncated product loop: the room lists ------------
    Mutant("room lists drop the bound", "sparse.py",
           "[term for gb, term in graded if gb <= room]",
           "[term for gb, term in graded if gb < room]",
           ("tests/test_sparse.py::test_the_product_visits_only_fitting_pairs",
            "tests/test_sparse.py::test_a_one_term_operand_shifts_the_other")),
    # -- SparseTable.row_keys, the rows of the contracting test ---------------
    Mutant("row keys skip the row of t^0", "sparse.py",
           "rows = self._form[1]\n        for m in self.basis():",
           "rows = self._form[1]\n        for m in self.basis()[1:]:",
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
    Mutant("generator image keys unchecked", "operators.py",
           "        if i not in range(ctx.dim):",
           "        if False:",
           ("tests/test_rejections.py::test_each_rejection_keeps_its_class_and_message",)),
    Mutant("missing generator image unchecked", "operators.py",
           "            if i not in gen_images:",
           "            if False:",
           ("tests/test_rejections.py::test_each_rejection_keeps_its_class_and_message",)),
    # -- SparseTable._extended and _walk_check, the generator walk on rows ----
    Mutant("Leibniz row's room test drops the bound", "sparse.py",
           "out = {key_mul(k, rest): n for k, n in row_e.items() if grade(k) <= room}",
           "out = {key_mul(k, rest): n for k, n in row_e.items() if grade(k) < room}",
           (EXTENSIONS,)),
    Mutant("Leibniz row's second room test drops the bound", "sparse.py",
           "for k, n in row_rest.items() if grade(k) <= room})",
           "for k, n in row_rest.items() if grade(k) < room})",
           (EXTENSIONS,)),
    Mutant("a cancelled Leibniz key is kept at 0", "sparse.py",
           "_add_into(out, 1, {key_mul(e, k): n for k, n in row_rest.items() if grade(k) <= room})",
           "half = {key_mul(e, k): n for k, n in row_rest.items() if grade(k) <= room}\n"
           "        _add_into(out, 1, half)\n"
           "        out.update({key: 0 for key in half if key not in out})",
           (EXTENSIONS,)),
    Mutant("Leibniz generator rows keep their own denominator", "sparse.py",
           "row = nums if d == den else {key: n * (den // d) for key, n in nums.items()}",
           "row = nums",
           (EXTENSIONS,)),
    Mutant("multiplicative extension without the lcm rescale", "sparse.py",
           "return cls._held(space, _over_lcm(parts.items()))",
           "return cls._held(space, (lcm(*[d for d, _ in parts.values()]),"
           " {m: nums for m, (d, nums) in parts.items() if nums}))",
           (EXTENSIONS,)),
    Mutant("endomorphism check without the D scale", "sparse.py",
           "!= {key: n * den for key, n in row.items()}):",
           "!= row):",
           (PREDICATES,)),
    Mutant("derivation check passes every zero row", "sparse.py",
           "grade, bound, key_mul) != row\n",
           "grade, bound, key_mul) != row and row\n",
           (PREDICATES,)),
    Mutant("unit-row check skipped", "sparse.py",
           "if (one in rows) if leibniz else rows.get(one) != {one: den}:",
           "if False:",
           (PREDICATES,)),
    # -- _order_violation, which passes the identity matrix unscanned ---------
    Mutant("identity test admits a unit diagonal", "vaut_factors.py",
           "    if mat == ctx.generators():",
           "    if all(row[i] == 1 for i, row in enumerate(mat)):",
           (f"{VAUT}::test_every_other_matrix_runs_both_scans",
            f"{VAUT}::test_lex_order_breakers_still_raise_on_their_probe_pair")),
    Mutant("identity test admits every permutation", "vaut_factors.py",
           "    if mat == ctx.generators():",
           "    if sorted(mat) == sorted(ctx.generators()):",
           (f"{VAUT}::test_order_violations_name_their_pair",
            f"{VAUT}::test_every_other_matrix_runs_both_scans")),
    Mutant("identity test never fires", "vaut_factors.py",
           "    if mat == ctx.generators():",
           "    if False:",
           (f"{VAUT}::test_the_identity_runs_no_order_comparison",)),
    # -- earlier fast paths: the kernel loops, the order and the factor reads -
    Mutant("table form keeps unscaled rows", "sparse.py",
           "{m: nums if d == den else {key: n * (den // d) for key, n in nums.items()}",
           "{m: nums if True else {key: n * (den // d) for key, n in nums.items()}",
           ("tests/test_sparse.py", EXTENSIONS)),
    Mutant("table sum keeps the gcd", "sparse.py",
           "    if g > 1:\n        common //= g",
           "    if False:\n        common //= g",
           ("tests/test_sparse.py",)),
    Mutant("_through ignores the row coefficient", "sparse.py",
           "            _add_into(out, n, row)",
           "            _add_into(out, 1, row)",
           ("tests/test_sparse.py",)),
    Mutant("table sum adds every part unscaled", "sparse.py",
           "_add_into(out.setdefault(m, {}), p, row)",
           "_add_into(out.setdefault(m, {}), 1, row)",
           ("tests/test_sparse.py",)),
    Mutant("no shared zero image", "sparse.py",
           "return {m: zero if (row := rows.get(m)) is None",
           "return {m: image._held(space, (1, {})) if (row := rows.get(m)) is None",
           ("tests/test_sparse.py::test_a_late_read_of_images_matches_the_per_image_fold",)),
    Mutant("equality ignores the space", "sparse.py",
           "return self._space() == other._space() and self._form == other._form",
           "return self._form == other._form",
           ("tests/test_sparse.py",)),
    # -- one state: the add helper and the form of a public constructor -----
    Mutant("the add helper keeps a cancelled key at 0", "sparse.py",
           "            out.pop(key, None)",
           "            out[key] = 0",
           ("tests/test_sparse.py", EXTENSIONS)),
    Mutant("a public constructor holds the form of its input", "sparse.py",
           'object.__setattr__(self, "terms", canon)\n        self._hold_form()',
           'self._hold_form()\n        object.__setattr__(self, "terms", canon)',
           ("tests/test_sparse.py::test_every_kernel_result_keeps_the_form_of_its_terms",)),
    # -- MonoidCtx: the compiled orders and `cmp`, their checked form ---------
    Mutant("product order is not strict", "support_order.py",
           "return a != b and all(map(operator.le, a, b))",
           "return all(map(operator.le, a, b))",
           (ORDER,)),
    Mutant("weighted order ignores the weights", "support_order.py",
           "return (sum(map(operator.mul, weights, a)), a) < "
           "(sum(map(operator.mul, weights, b)), b)",
           "return a < b",
           (f"{ORDER}::test_less_is_the_strict_part_of_cmp",)),
    Mutant("cmp tests one direction only", "support_order.py",
           "        if self.less(b, a):\n            return Cmp.GREATER",
           "        if not self.less(a, b):\n            return Cmp.GREATER",
           (f"{ORDER}::test_less_is_the_strict_part_of_cmp",)),
    Mutant("cmp drops the equality test", "support_order.py",
           "        if a == b:\n            return Cmp.EQUAL\n",
           "",
           (f"{ORDER}::test_less_is_the_strict_part_of_cmp",)),
    # -- the order utilities decide with `less` on checked vectors ----------
    Mutant("good pair misses equal vectors", "support_order.py",
           "if vecs[i] == vecs[j] or ctx.less(vecs[i], vecs[j]):",
           "if ctx.less(vecs[i], vecs[j]):",
           (f"{ORDER}::test_find_good_pair",)),
    Mutant("antichain tests one direction only", "support_order.py",
           "if not any(less(cand, c) or less(c, cand) for c in chosen):",
           "if not any(less(cand, c) for c in chosen):",
           (f"{ORDER}::test_max_antichain",)),
    Mutant("closure accepts a successor that is not greater", "support_order.py",
           "if not ctx.less(p, q):",
           "if ctx.less(q, p):",
           (f"{ORDER}::test_choice_closure_rejects_equal_and_incomparable_successors",)),
    Mutant("pullback skips the operand check", "vaut_factors.py",
           "        unit._require_same(d)\n",
           "",
           (f"{ORACLES}::test_pullback_matches_the_conjugation_chain",)),
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
    Mutant("hom law skips the implicit e(0)", "vaut_factors.py",
           "table.setdefault(Fraction(0), Fraction(1))",
           "table.get(Fraction(0), Fraction(1))",
           ("tests/test_rejections.py::test_each_rejection_keeps_its_class_and_message",)),
    # -- free series built on the integer form: cuts, Dynkin, named series ---
    Mutant("restrict keeps only the grades below n", "sparse.py",
           "return self._graded((*rest, n), lambda g: g <= n)",
           "return self._graded((*rest, n), lambda g: g < n)",
           (f"{SPARSE}::test_restrict_commutes_with_the_kernel_and_keeps_the_low_terms",)),
    Mutant("grade slice keeps every grade up to n", "free_algebra.py",
           "return self._graded(self._space(), lambda g: g == n)",
           "return self._graded(self._space(), lambda g: g <= n)",
           (f"{CALCULUS}::test_bch_slices_are_lie",)),
    Mutant("Dynkin sign parity flipped", "series_calculus.py",
           "coeff = (-1) ** (n - 1) * (common // (n * len(word) * prod))",
           "coeff = (-1) ** n * (common // (n * len(word) * prod))",
           (f"{CALCULUS}::test_dynkin_bch_matches_the_per_tuple_expansion",)),
    Mutant("projection brackets right-nested", "series_calculus.py",
           "return S._mapped({word: _left_normed_bracket(word) for word in S.keys()})",
           "return S._mapped({word: _right_nested_bracket(word) for word in S.keys()})",
           (f"{CALCULUS}::test_dynkin_project_matches_the_fraction_projection",)),
    Mutant("binomial keeps its zero coefficients", "series_calculus.py",
           "        if coeff:\n            terms[(0,) * n] = coeff",
           "        if True:\n            terms[(0,) * n] = coeff",
           (f"{CALCULUS}::test_series_binomial_equals_its_checked_build",)),
    # -- the verify step table and the coefficient read ------------------------
    Mutant("runner ignores the cap", "verify.py",
           "bound = None if cap is None else min(order, cap)",
           "bound = None if cap is None else order",
           (f"{VERIFY}::test_json_reports_the_bound_each_step_ran_at",)),
    Mutant("contexts advance per run, not per block", "verify.py",
           "lambda i: trial(run, ctxs[i // runs], bound, i)",
           "lambda i: trial(run, ctxs[i % len(ctxs)], bound, i)",
           (f"{VERIFY}::test_the_runner_reads_each_row_context_by_context",)),
    Mutant("coefficient drops the denominator", "sparse.py",
           "return _ZERO if n is None else Fraction(n, den)",
           "return _ZERO if n is None else Fraction(n)",
           (f"{SPARSE}::test_coefficient_is_read_off_the_form",)),
    # -- the evaluators on the integer form: `_times`, `_combine` of forms ----
    Mutant("nilpotent sum stops one power early", "free_algebra.py",
           "    for n in range(1, P.grade + 1):\n        if n > 1:",
           "    for n in range(1, P.grade):\n        if n > 1:",
           (EVALUATION,)),
    Mutant("zero power does not end the power chain", "free_algebra.py",
           "        if not power[1]:\n            break\n",
           "",
           (f"{EVALUATION}::test_zero_products_end_their_chains_and_leave_the_sum",)),
    Mutant("zero word product kept in the sum with a wrong coefficient", "free_algebra.py",
           "        if product[1]:\n            parts.append((Fraction(nums[word], den), product))",
           "        parts.append((Fraction(nums[word], den) if product[1] else Fraction(1, 7),"
           " product))",
           (f"{EVALUATION}::test_zero_products_end_their_chains_and_leave_the_sum",)),
    Mutant("zero prefix does not end the word", "free_algebra.py",
           "            if not product[1]:\n                break\n",
           "",
           (f"{EVALUATION}::test_zero_products_end_their_chains_and_leave_the_sum",)),
    Mutant("word products multiply in reverse", "free_algebra.py",
           "first._times(product, letters[word[n]])",
           "first._times(letters[word[n]], product)",
           (EVALUATION,)),
    Mutant("evaluator skips its entry check", "free_algebra.py",
           "    for a in args[1:]:\n        first._require_same(a)\n",
           "",
           (f"{EVALUATION}::test_evaluate_words_checks_its_arguments_once_at_entry",)),
    Mutant("series _times drops a denominator", "sparse.py",
           "return _lowest(den_a * den_b,",
           "return _lowest(den_a,",
           (SPARSE,)),
    Mutant("table _times drops a denominator", "sparse.py",
           "return _rows_lowest(den_f * den_g, rows)",
           "return _rows_lowest(den_f, rows)",
           (SPARSE,)),
    Mutant("series sum drops the form's denominator", "sparse.py",
           "_add_into(out, c.numerator * (common // (c.denominator * d)), nums)",
           "_add_into(out, c.numerator * (common // c.denominator), nums)",
           (SPARSE,)),
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
