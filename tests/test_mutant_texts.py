"""Each mutant of `tools/mutants.py` still finds its old text exactly once in
its file, the tool's STALE check run with no pytest: a change that moves a
fast path must carry its mutants along, or this test fails."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


def test_each_mutant_text_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [m.name for m in tool.MUTANTS]
    assert len(set(names)) == len(names)
    stale = [m.name for m in tool.MUTANTS
             if (ROOT / "src" / "nseries" / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    assert stale == []
