"""Every output of `tools/output_digest.py`'s command set, pinned: the digest
of each of its thirteen command groups and the digest over all of them.  A
change that alters an output on purpose updates the pin below; any other
change must leave every byte of every output as it is."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

TOTAL = "118ba38a681bf00c9c69fffb097a56b39414cda71accfeed7435a2058d7c0593"
GROUPS = {
    "corr": "9b3abc496fa1b35b2d9ac86b77b9c5492bb4f06f8c913570e4983ed34e2be201",
    "iterate": "fcbc80efc73531c82c79243c9e16637022c109263da55d94b81ab6f8ce2925e3",
    "vaut": "529cbd488a39c0018de2611d37c2ee53e6d6d20dc6549be2a66ce0e4f2558fa1",
    "verify": "202a6301bf6bcfe4e8b703232ed227da3a957dedada4d610b1d1bf5300f90cbe",
    "op eval": "c7b03ded91f3c2e744eab6f20f1df4a74bc774188b2e7721538ef923ad0cf76d",
    "bch/series": "969cb698953553e9cc8975ec86db895b0aa98e34c6ef72986e3d982a25ebe5e2",
    "order": "2fcb90f77e4f02b7f7c61c763cb653143ce5c92f51cac33d29dd73db3ec672b6",
    "op check": "9d8918145696fcdad0c042b1d6b50e96f81f67a3f66e93ade4600845cbdb6c67",
    "failures": "bc59c72e0d5ab1cd55e6005f9c4be9741433434d8f41f671351d2e7d5d499afb",
    "spellings": "b07be3d3050a99c52a746563c11c6310773a16b8bf9fb827c050b2dd50ec145a",
    "truncation": "47d66fa4701881f1429f0947c873d19f5e8f9b000128e502695abcfdd95721b9",
    "factors": "115ddfdd57954a368f08ae0631238837ce3cebe739d62e3da36f8d97fab5b999",
    "kernel": "e492c25d7153cbdcece2bf7ab1f40b7e72502022b567efe1529380f909a12546",
}


def test_every_output_group_keeps_its_pinned_digest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and nsbench/
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    total, groups = tool.digests()
    assert groups == GROUPS
    assert total == TOTAL
