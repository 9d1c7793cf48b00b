"""Exact stdout and exit code of every reported (non-table) CLI output.

Each case pins the bytes a command writes, as text and as `--json`, so a
change to how results are written shows here first.  Table results are
pinned by the round trips in `test_cli.py`.
"""

import sys

import pytest

from nseries.cli import main

# Identity: not contracting, not a derivation, a unital endomorphism.
IDENTITY = "ctx=lex:1 N=2\nt^(0) -> 1\nt^(1) -> t^(1)\nt^(2) -> t^(2)\n"
# t -> t^2: a contracting derivation that does not fix the unit.
FLOW = "ctx=lex:1 N=2\nt^(0) -> 0\nt^(1) -> t^(2)\nt^(2) -> 0\n"
ALL_CHECKS = ("--contracting", "--derivation", "--endo")

BCH3 = (
    "X0 + X1 + 1/2*X0 X1 - 1/2*X1 X0 + 1/12*X0 X0 X1 - 1/6*X0 X1 X0 + 1/12*X0 X1 X1"
    " + 1/12*X1 X0 X0 - 1/6*X1 X0 X1 + 1/12*X1 X1 X0"
)
BCH3_JSON = (
    '{"alphabet": 2, "grade": 3, "terms": [{"coeff": "1", "word": [0]}, '
    '{"coeff": "1", "word": [1]}, {"coeff": "1/2", "word": [0, 1]}, '
    '{"coeff": "-1/2", "word": [1, 0]}, {"coeff": "1/12", "word": [0, 0, 1]}, '
    '{"coeff": "-1/6", "word": [0, 1, 0]}, {"coeff": "1/12", "word": [0, 1, 1]}, '
    '{"coeff": "1/12", "word": [1, 0, 0]}, {"coeff": "-1/6", "word": [1, 0, 1]}, '
    '{"coeff": "1/12", "word": [1, 1, 0]}]}'
)

CASES = {
    "order-closure-text": (
        ["order", "closure", "0,0", "1,0", "--ctx", "prod:2", "--offsets", "1,0", "0,1",
         "--depth", "2"],
        None, False, 0,
        "0,0\n1,0\n0,0 -> 0,1\n0,0 -> 1,0\n1,0 -> 1,1\n1,0 -> 2,0\n"
        "good pair on last letters: (0, 1)\n",
    ),
    "order-cmp-json": (
        ["order", "cmp", "1,0", "0,1", "--ctx", "prod:2", "--json"], None, False, 0,
        '{"cmp": "incomparable", "schema": 1}\n',
    ),
    "order-minimal-json": (
        ["order", "minimal", "1,0", "0,1", "1,1", "--ctx", "prod:2", "--json"], None, False, 0,
        '{"minimal": [[0, 1], [1, 0]], "schema": 1}\n',
    ),
    "order-antichain-json": (
        ["order", "antichain", "2,0", "1,1", "0,2", "--ctx", "prod:2", "--json"],
        None, False, 0,
        '{"antichain": [[0, 2], [1, 1], [2, 0]], "schema": 1}\n',
    ),
    "series-exp-json": (
        ["series", "exp", "--order", "3", "--json"], None, False, 0,
        '{"schema": 1, "series": {"alphabet": 1, "grade": 3, "terms": ['
        '{"coeff": "1", "word": []}, {"coeff": "1", "word": [0]}, '
        '{"coeff": "1/2", "word": [0, 0]}, {"coeff": "1/6", "word": [0, 0, 0]}]}}\n',
    ),
    "bch-oracle-text": (
        ["bch", "--order", "3", "--oracle"], None, False, 0,
        f"{BCH3}\noracle: {BCH3}\nPASS commutator-formula oracle agreement\n",
    ),
    "bch-oracle-json": (
        ["bch", "--order", "3", "--oracle", "--json"], None, False, 0,
        f'{{"agrees": true, "oracle": {BCH3_JSON}, "schema": 1, "series": {BCH3_JSON}}}\n',
    ),
    "op-check-fail-text": (
        ["op", "check", "{t}", *ALL_CHECKS], IDENTITY, False, 1,
        "FAIL contracting  witness: ((0,), (0,))\n"
        "FAIL derivation  witness: ((0,), (0,))\n"
        "PASS endo\n",
    ),
    "op-check-fail-json": (
        ["op", "check", "{t}", *ALL_CHECKS, "--json"], IDENTITY, False, 1,
        '{"checks": [{"check": "contracting", "passed": false, "witness": "((0,), (0,))"}, '
        '{"check": "derivation", "passed": false, "witness": "((0,), (0,))"}, '
        '{"check": "endo", "passed": true, "witness": null}], "passed": false, "schema": 1}\n',
    ),
    "op-check-unit-witness-json": (
        ["op", "check", "{t}", *ALL_CHECKS, "--json"], FLOW, False, 1,
        '{"checks": [{"check": "contracting", "passed": true, "witness": null}, '
        '{"check": "derivation", "passed": true, "witness": null}, '
        '{"check": "endo", "passed": false, "witness": "\'unit\'"}], '
        '"passed": false, "schema": 1}\n',
    ),
    "op-check-tty-colors": (
        ["op", "check", "{t}", *ALL_CHECKS], FLOW, True, 1,
        "\x1b[32mPASS\x1b[0m contracting\n"
        "\x1b[32mPASS\x1b[0m derivation\n"
        "\x1b[31mFAIL\x1b[0m endo  witness: unit\n",
    ),
}


@pytest.mark.parametrize("argv, table, tty, code, stdout", CASES.values(), ids=CASES.keys())
def test_reported_output_is_pinned(tmp_path, capsys, monkeypatch, argv, table, tty, code, stdout):
    path = tmp_path / "t.table"
    if table is not None:
        path.write_text(table)
    if tty:
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    got = main([a.format(t=path) for a in argv])
    out = capsys.readouterr()
    assert (got, out.out, out.err) == (code, stdout, "")
