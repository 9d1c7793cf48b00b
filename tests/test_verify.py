"""The step table behind `nseries verify`: its runner, the bounds each suite
reports, the values its steps share once per run, and the views a pass builds."""

import json

import pytest

from nseries import CharacterX, InconsistentExponentialError, MonoidCtx, OpTable, verify
from nseries.cli import main
from nseries.sparse import SparseSeries, SparseTable
from nseries.verify import SUITES, StepResult, _check, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ends_the_step_at_the_first_failure():
    log = []

    def trial(i):
        log.append(f"start {i}")
        yield True, "first"
        yield i == 0, f"second, run {i}"
        log.append(f"third {i}")
        yield i == 0, f"third, run {i}"

    assert _check("demo", 5, 3, trial) == StepResult("demo", False, "second, run 1", 5)
    assert log == ["start 0", "third 0", "start 1"]


def test_check_records_a_pass_with_its_bound():
    step = _check("demo", None, 2, lambda i: iter([(True, "never shown")]))
    assert step == StepResult("demo", True, "", None)


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_with_identical_json(capsys, suite):
    argv = ["verify", suite, "--order", "4", "--trials", "2", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


def test_a_verify_pass_builds_no_table_view(capsys, monkeypatch):
    """Every table of a verify pass is read on its rows: the seven suites at
    the benchmark's size build no `images` view, while a public read of
    `images` still builds one."""
    built = []
    view = SparseTable._view
    monkeypatch.setattr(SparseTable, "_view", lambda self: built.append(self) or view(self))
    for suite in SUITES:
        if suite != "all":
            code, _, _ = run(capsys, "verify", suite, "--order", "8", "--trials", "5",
                             "--seed", "7", "--json")
            assert code == 0
    assert len(built) == 0
    assert OpTable.identity(MonoidCtx.lex(1), 2).images
    assert len(built) == 1


def test_a_free_and_a_bch_pass_build_no_series_view(capsys, monkeypatch):
    """Coefficients, the constant term behind `fs_substitute`'s ideal check
    included, are read off the form: neither suite builds a `terms` view."""
    built = []
    view = SparseSeries._view
    monkeypatch.setattr(SparseSeries, "_view", lambda self: built.append(self) or view(self))
    for suite in ("free", "bch"):
        code, _, _ = run(capsys, "verify", suite, "--order", "8", "--trials", "5",
                         "--seed", "7", "--json")
        assert code == 0
    assert built == []


@pytest.mark.parametrize(
    "suite, bounds",
    [
        ("free", [6] * 4),
        ("hahn", [9] * 3),
        ("bch", [9, 9, 6, 6]),
        ("order", [None] * 4),
        ("operator", [6] * 6),
        ("correspondence", [6] * 5),
        ("vaut", [6] * 4),
    ],
)
def test_json_reports_the_bound_each_step_ran_at(capsys, suite, bounds):
    code, out, _ = run(capsys, "verify", suite, "--order", "9", "--trials", "1", "--json")
    assert code == 0
    assert [r["bound"] for r in json.loads(out)["results"]] == bounds


def test_the_runner_reads_each_row_context_by_context(monkeypatch):
    """Bound min(order, cap), max(1, trials // per) runs per context, or one
    when `per` is None, and run i reads contexts[i // runs]."""
    seen = []

    def trial(run, ctx, bound, i):
        seen.append((ctx, bound, i))
        yield True, ""

    rows = (("hahn.capped", 3, ("a", "b"), 2, trial), ("hahn.once", 9, ("c",), None, trial),
            ("order.unbounded", None, ("d",), 1, trial))
    monkeypatch.setattr(verify, "STEPS", rows)
    assert [(r.name, r.bound) for r in run_suite("all", 4, 5, 0)] == [
        ("hahn.capped", 3), ("hahn.once", 4), ("order.unbounded", None)]
    assert seen == [("a", 3, 0), ("a", 3, 1), ("b", 3, 2), ("b", 3, 3), ("c", 4, 0),
                    ("d", None, 0), ("d", None, 1), ("d", None, 2), ("d", None, 3),
                    ("d", None, 4)]


@pytest.mark.parametrize("suite", ["bch", "correspondence"])
def test_each_run_builds_the_bch_law_once(monkeypatch, suite):
    """The steps that read `bch_product` share one build per `run_suite` call,
    and a second call builds it again: no value outlives its run."""
    calls = []
    law = verify.bch_product
    monkeypatch.setattr(verify, "bch_product", lambda n: calls.append(n) or law(n))
    run_suite(suite, 8, 5, 0)
    assert calls == [8 if suite == "bch" else 6]
    run_suite(suite, 8, 5, 0)
    assert len(calls) == 2


def test_verify_all_at_a_low_order_builds_one_bch_law(monkeypatch):
    """At --order 6 or less the bch steps and correspondence.group-law read the
    same `bch_product(order)`, so the run builds it once."""
    calls = []
    law = verify.bch_product
    monkeypatch.setattr(verify, "bch_product", lambda n: calls.append(n) or law(n))
    assert all(result.passed for result in run_suite("all", 6, 1, 0))
    assert calls == [6]


@pytest.mark.parametrize(
    "flags", [["--trials", "0"], ["--trials", "-3"], ["--order", "0"]]
)
def test_verify_rejects_runs_without_trials(capsys, flags):
    code, out, err = run(capsys, "verify", "all", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: trials and order must be at least 1")


def test_an_inconsistent_declaration_leaves_the_middle_correspondence_step(monkeypatch):
    def rejecting(alpha, e_values):
        raise InconsistentExponentialError("rejected")

    monkeypatch.setattr(verify, "middle_correspond", rejecting)
    with pytest.raises(InconsistentExponentialError, match="rejected"):
        run_suite("vaut", 3, 2, 0)


def test_accepting_an_inconsistent_declaration_fails_the_step(monkeypatch):
    def lenient(alpha, e_values):  # takes the declared values, checks no hom law
        return CharacterX(alpha.ctx, tuple(e_values[v] for v in alpha.values))

    monkeypatch.setattr(verify, "middle_correspond", lenient)
    step = run_suite("vaut", 3, 2, 0)[-1]
    assert step.name == "vaut.middle-correspondence" and not step.passed
    assert "was accepted" in step.detail


def test_a_residual_that_recomposes_but_is_not_near_identity_fails_the_step(monkeypatch):
    from nseries import FactorAut, decompose_vaut, gexp_table, op_compose

    def unscaled(sigma):  # moves the character into the residual; the round trip still holds
        split = decompose_vaut(sigma)
        rescaled = op_compose(split.residual, gexp_table(split.chi, sigma.bound))
        return FactorAut(split.mu, CharacterX.trivial(sigma.ctx), rescaled)

    monkeypatch.setattr(verify, "decompose_vaut", unscaled)
    step = next(s for s in run_suite("vaut", 3, 2, 0) if s.name == "vaut.decompose-roundtrip")
    assert step == StepResult(
        "vaut.decompose-roundtrip", False, "residual is not a near-identity automorphism", 3
    )
