"""Exact stdout and exit code of every reported (non-table) CLI output, and
of `--help` on every command path.

Each case pins the bytes a command writes, as text and as `--json`, so a
change to how results are written shows here first.  Table results are
pinned by the round trips in `test_cli.py`.  The `--help` texts, rendered at
80 columns, pin the command-line surface: every argument name, its order,
its choices and its help text.
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


# `--help` at COLUMNS=80 per command path (space-separated, "" the top level).
HELP = {
    "": (
        "usage: nseries [-h]\n"
        "               {bch,series,order,op,exp-der,log-aut,star,iterate,vaut,verify}\n"
        "               ...\n"
        "\n"
        "Exact truncated series, operator exp/log and automorphism factors.\n"
        "\n"
        "positional arguments:\n"
        "  {bch,series,order,op,exp-der,log-aut,star,iterate,vaut,verify}\n"
        "    bch                 print the two-variable group-law series\n"
        "    series              print the exponential or logarithm series\n"
        "    order               order utilities on exponent fragments\n"
        "    op                  operator table checks and evaluation\n"
        "    exp-der             exponential of a contracting derivation table\n"
        "    log-aut             logarithm of a near-identity automorphism table\n"
        "    star                group law on two contracting derivation tables\n"
        "    iterate             fractional iterate of an automorphism table\n"
        "    vaut                decompose or recompose automorphism factors\n"
        "    verify              run an invariant suite\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "bch": (
        "usage: nseries bch [-h] --order ORDER [--oracle] [--json]\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --order ORDER\n"
        "  --oracle       compare with the commutator formula\n"
        "  --json\n"
    ),
    "series": (
        "usage: nseries series [-h] --order ORDER [--json] {exp,log}\n"
        "\n"
        "positional arguments:\n"
        "  {exp,log}\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --order ORDER\n"
        "  --json\n"
    ),
    "order": (
        "usage: nseries order [-h] --ctx CTX [--offsets [OFFSETS ...]] [--depth DEPTH]\n"
        "                     [--json]\n"
        "                     {cmp,minimal,antichain,closure} [vectors ...]\n"
        "\n"
        "positional arguments:\n"
        "  {cmp,minimal,antichain,closure}\n"
        "  vectors               exponents as comma-separated integers\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ctx CTX             lex:d | prod:d | weighted:w1,w2,...\n"
        "  --offsets [OFFSETS ...]\n"
        "                        closure step offsets\n"
        "  --depth DEPTH\n"
        "  --json\n"
    ),
    "op": (
        "usage: nseries op [-h] {check,eval} ...\n"
        "\n"
        "positional arguments:\n"
        "  {check,eval}\n"
        "    check       predicate checks on a table file\n"
        "    eval        evaluate a free series at operator tables\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
    ),
    "op check": (
        "usage: nseries op check [-h] [--contracting] [--derivation] [--endo] [--json]\n"
        "                        table\n"
        "\n"
        "positional arguments:\n"
        "  table          operator table file\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --contracting\n"
        "  --derivation\n"
        "  --endo\n"
        "  --json\n"
    ),
    "op eval": (
        "usage: nseries op eval [-h] -P SERIES -f TABLE_FILES [TABLE_FILES ...]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  -P SERIES, --series SERIES\n"
        "                        free series file\n"
        "  -f TABLE_FILES [TABLE_FILES ...], --table-files TABLE_FILES [TABLE_FILES ...]\n"
    ),
    "exp-der": (
        "usage: nseries exp-der [-h] table\n"
        "\n"
        "positional arguments:\n"
        "  table\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "log-aut": (
        "usage: nseries log-aut [-h] table\n"
        "\n"
        "positional arguments:\n"
        "  table\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "star": (
        "usage: nseries star [-h] left right\n"
        "\n"
        "positional arguments:\n"
        "  left\n"
        "  right\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "iterate": (
        "usage: nseries iterate [-h] --c C table\n"
        "\n"
        "positional arguments:\n"
        "  table\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --c C       exact rational exponent p/q\n"
    ),
    "vaut": (
        "usage: nseries vaut [-h] {decompose,compose} path\n"
        "\n"
        "positional arguments:\n"
        "  {decompose,compose}\n"
        "  path                 table file (decompose) or factor JSON file (compose)\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
    ),
    "verify": (
        "usage: nseries verify [-h] [--order ORDER] [--trials TRIALS] [--seed SEED]\n"
        "                      [--json]\n"
        "                      {free,bch,hahn,order,operator,correspondence,vaut,all}\n"
        "\n"
        "positional arguments:\n"
        "  {free,bch,hahn,order,operator,correspondence,vaut,all}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --order ORDER\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"
        "  --json\n"
    ),
}


# argparse lays help out differently across Python minor versions (3.13
# writes `-P, --series SERIES`), so the texts above hold on the version they
# were taken with.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help text taken on Python 3.11")
@pytest.mark.parametrize("path, text", HELP.items(), ids=[k or "nseries" for k in HELP])
def test_help_is_pinned(capsys, monkeypatch, path, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*path.split(), "--help"])
    out = capsys.readouterr()
    assert (exit_.value.code, out.out, out.err) == (0, text, "")
