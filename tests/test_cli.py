import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import (
    CharacterX,
    ExponentAut,
    FactorAut,
    HahnPoly,
    MonoidCtx,
    OpTable,
    compose_factors,
    op_exp,
)
from nseries.cli import main
from nseries.samples import random_contracting_derivation
from nseries.textio import format_op_table, parse_op_table

LEX1 = MonoidCtx.lex(1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def flow_table(bound):
    def image(m):
        if m[0] + 1 > bound:
            return HahnPoly.zero(LEX1, bound)
        return HahnPoly.monomial(LEX1, bound, (m[0] + 1,), m[0])

    return OpTable.from_function(LEX1, bound, image)


def test_bch_command(capsys):
    code, out, _ = run(capsys, "bch", "--order", "2")
    assert code == 0
    assert out.strip() == "X0 + X1 + 1/2*X0 X1 - 1/2*X1 X0"


def test_bch_oracle_flag(capsys):
    code, out, _ = run(capsys, "bch", "--order", "4", "--oracle")
    assert code == 0
    assert "oracle" in out and "PASS" in out


def test_bch_oracle_is_built_once_for_text_and_json(capsys, monkeypatch):
    import nseries.cli as cli

    calls = []

    def wrong_oracle(order):
        calls.append(order)
        return cli.bch_product(order).scale(2)

    monkeypatch.setattr(cli, "dynkin_bch", wrong_oracle)
    code, out, _ = run(capsys, "bch", "--order", "3", "--oracle")
    assert code == 1 and "FAIL commutator-formula oracle agreement" in out
    code, out, _ = run(capsys, "bch", "--order", "3", "--oracle", "--json")
    assert code == 1 and json.loads(out)["agrees"] is False
    assert calls == [3, 3]


def test_series_commands(capsys):
    code, out, _ = run(capsys, "series", "exp", "--order", "3")
    assert code == 0
    assert out.strip() == "1 + X0 + 1/2*X0 X0 + 1/6*X0 X0 X0"
    code, out, _ = run(capsys, "series", "log", "--order", "2")
    assert code == 0
    assert out.strip() == "X0 - 1/2*X0 X0"


def test_order_cmp(capsys):
    code, out, _ = run(capsys, "order", "cmp", "1,5", "2,0", "--ctx", "lex:2")
    assert code == 0 and out.strip() == "less"
    code, out, _ = run(capsys, "order", "cmp", "1,0", "0,1", "--ctx", "prod:2")
    assert code == 0 and out.strip() == "incomparable"


def test_order_bad_integers_name_their_input(capsys):
    code, _, err = run(capsys, "order", "cmp", "1", "2", "--ctx", "lex:z")
    assert code == 2
    assert "context descriptor 'lex:z': not an integer: 'z'" in err
    code, _, err = run(capsys, "order", "cmp", "1,x", "2,0", "--ctx", "prod:2")
    assert code == 2
    assert "exponent vector '1,x': not an integer: 'x'" in err


def test_order_minimal_and_antichain(capsys):
    code, out, _ = run(
        capsys, "order", "minimal", "1,0", "0,1", "1,1", "--ctx", "prod:2"
    )
    assert code == 0 and out.strip() == "0,1 1,0"
    code, out, _ = run(
        capsys, "order", "antichain", "2,0", "1,1", "0,2", "--ctx", "prod:2"
    )
    assert code == 0 and out.strip() == "0,2 1,1 2,0"


def test_order_closure(capsys):
    code, out, _ = run(
        capsys,
        "order",
        "closure",
        "0",
        "--ctx",
        "lex:1",
        "--offsets",
        "1",
        "2",
        "--depth",
        "2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["words"] == [[[0]], [[0], [1]], [[0], [2]]]
    assert data["good_pair"] == [0, 1]


def test_op_check_and_eval(tmp_path, capsys):
    d = flow_table(5)
    table_file = tmp_path / "d.table"
    table_file.write_text(format_op_table(d))
    code, out, _ = run(capsys, "op", "check", str(table_file), "--contracting", "--derivation")
    assert code == 0
    assert out.count("PASS") == 2

    series_file = tmp_path / "p.series"
    series_file.write_text("X0 X0")
    code, out, _ = run(
        capsys, "op", "eval", "-P", str(series_file), "-f", str(table_file), str(table_file)
    )
    assert code == 0
    from nseries.operators import op_compose

    assert parse_op_table(out) == op_compose(d, d)


def test_op_check_failure_exit_code(tmp_path, capsys):
    ident = OpTable.identity(LEX1, 3)
    path = tmp_path / "id.table"
    path.write_text(format_op_table(ident))
    code, out, _ = run(capsys, "op", "check", str(path), "--contracting")
    assert code == 1
    assert "FAIL" in out


def test_exp_log_star_iterate_pipeline(tmp_path, capsys):
    rng = random.Random(5)
    d1 = random_contracting_derivation(rng, LEX1, 5)
    d2 = random_contracting_derivation(rng, LEX1, 5)
    f1 = tmp_path / "d1.table"
    f2 = tmp_path / "d2.table"
    f1.write_text(format_op_table(d1))
    f2.write_text(format_op_table(d2))

    code, out, _ = run(capsys, "exp-der", str(f1))
    assert code == 0
    sigma = parse_op_table(out)
    assert sigma == op_exp(d1)

    sig_file = tmp_path / "s.table"
    sig_file.write_text(out)
    code, out, _ = run(capsys, "log-aut", str(sig_file))
    assert code == 0
    assert parse_op_table(out) == d1

    code, out, _ = run(capsys, "star", str(f1), str(f2))
    assert code == 0
    from nseries import star

    assert parse_op_table(out) == star(d1, d2)

    code, out, _ = run(capsys, "iterate", str(sig_file), "--c", "1/2")
    assert code == 0
    half = parse_op_table(out)
    from nseries.operators import op_compose

    assert op_compose(half, half) == sigma


def test_vaut_roundtrip(tmp_path, capsys):
    rng = random.Random(7)

    from nseries import CharacterX, ExponentAut, FactorAut, compose_factors

    chi = CharacterX(LEX1, (2,))
    sigma = compose_factors(
        FactorAut(
            ExponentAut.identity(LEX1),
            chi,
            op_exp(random_contracting_derivation(rng, LEX1, 5)),
        )
    )
    path = tmp_path / "sigma.table"
    path.write_text(format_op_table(sigma))
    code, out, _ = run(capsys, "vaut", "decompose", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == [[1]]
    assert data["chi"] == ["2"]

    factors_file = tmp_path / "factors.json"
    factors_file.write_text(out)
    code, out, _ = run(capsys, "vaut", "compose", str(factors_file))
    assert code == 0
    assert parse_op_table(out) == sigma


def test_verify_json_deterministic(capsys):
    argv = ["verify", "bch", "--order", "4", "--trials", "2", "--seed", "9", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == 1
    assert data["passed"] is True


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nosuchsuite"])


def test_parse_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("ctx=lex:1 N=1\nt^(0) 1\n")
    code, _, err = run(capsys, "op", "check", str(bad), "--contracting")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "factors, message",
    [
        ({"mu": [[1]], "residual": "ctx=lex:1 N=0\nt^(0) -> 1\n"}, "no field 'chi'"),
        ({"mu": 5, "chi": ["1"], "residual": "ctx=lex:1 N=0\nt^(0) -> 1\n"}, "'mu' must be"),
        ([[[1]], ["1"]], "must be an object"),
        ("not json", "factor JSON is malformed: Expecting value: line 1 column 1"),
    ],
)
def test_vaut_compose_rejects_malformed_factor_json(tmp_path, capsys, factors, message):
    path = tmp_path / "factors.json"
    path.write_text(factors if isinstance(factors, str) else json.dumps(factors))
    code, out, err = run(capsys, "vaut", "compose", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "{missing}", "--c", "1"],
        ["vaut", "compose", "{missing}"],
        ["op", "eval", "-P", "{missing}", "-f", "{table}"],
    ],
)
def test_missing_input_file_is_a_parse_error(tmp_path, capsys, argv):
    table = tmp_path / "d.table"
    table.write_text(format_op_table(flow_table(2)))
    missing = tmp_path / "missing.tbl"
    argv = [a.format(missing=missing, table=table) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("reason", ["Is a directory", "not UTF-8 text"])
def test_unreadable_input_file_is_a_parse_error(tmp_path, capsys, reason):
    path = tmp_path / "d.table"
    if reason == "Is a directory":
        path.mkdir()
    else:
        path.write_bytes(b"ctx=lex:1 N=1\n\xff\n")
    code, out, err = run(capsys, "exp-der", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: {reason}\n"


def test_iterate_rejects_zero_denominator(tmp_path, capsys):
    path = tmp_path / "s.table"
    path.write_text(format_op_table(op_exp(flow_table(3))))
    code, out, err = run(capsys, "iterate", str(path), "--c", "1/0")
    assert code == 2 and out == ""
    assert err.startswith("error: not an exact rational: '1/0'")


# -- factor JSON round trip: vaut decompose -> JSON -> vaut compose -------------

PROD2 = MonoidCtx.product(2)
SWAP = ExponentAut(PROD2, ((0, 1), (1, 0)))
# (context, exponent factors, bounds); the smallest bound is the largest
# generator weight, so every character value shows in the table.
FACTOR_CASES = (
    (LEX1, (ExponentAut.identity(LEX1),), (1, 4)),
    (PROD2, (ExponentAut.identity(PROD2), SWAP), (1, 3)),
    (MonoidCtx.weighted(1, 2), (ExponentAut.identity(MonoidCtx.weighted(1, 2)),), (2, 4)),
)
CHAR_VALUES = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("ctx, mus, bounds", FACTOR_CASES, ids=("lex:1", "prod:2", "weighted:1,2"))
@settings(max_examples=25)
@given(data=st.data())
def test_factor_json_roundtrip_property(ctx, mus, bounds, data):
    bound = data.draw(st.integers(*bounds))
    mu = data.draw(st.sampled_from(mus))
    chi = CharacterX(ctx, tuple(data.draw(CHAR_VALUES) for _ in range(ctx.dim)))
    rng = data.draw(st.randoms(use_true_random=False))
    residual = op_exp(random_contracting_derivation(rng, ctx, bound))
    sigma = compose_factors(FactorAut(mu, chi, residual))
    with tempfile.TemporaryDirectory() as tmp:
        table, factors = Path(tmp) / "sigma.table", Path(tmp) / "factors.json"
        table.write_text(format_op_table(sigma))
        code, text = _cli("vaut", "decompose", str(table))
        assert code == 0
        data_out = json.loads(text)
        assert data_out["mu"] == [list(row) for row in mu.matrix]
        assert data_out["chi"] == [str(v) for v in chi.values]
        factors.write_text(text)
        code, text = _cli("vaut", "compose", str(factors))
    assert code == 0
    assert parse_op_table(text) == sigma
