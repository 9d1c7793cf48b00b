"""The step runner behind `nseries verify` and the bounds each suite reports."""

import json

import pytest

from nseries import CharacterX, InconsistentExponentialError, verify
from nseries.cli import main
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


@pytest.mark.parametrize(
    "suite, bounds",
    [
        ("free", [6] * 4),
        ("hahn", [8] * 3),
        ("bch", [9, 8, 6, 6]),
        ("order", [None] * 4),
    ],
)
def test_json_reports_the_bound_each_step_ran_at(capsys, suite, bounds):
    code, out, _ = run(capsys, "verify", suite, "--order", "9", "--trials", "1", "--json")
    assert code == 0
    assert [r["bound"] for r in json.loads(out)["results"]] == bounds


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
