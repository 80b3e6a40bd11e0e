"""The outcome fingerprint: `tools/outcomes.py --fingerprint` recomputes
one SHA-256 per (program, group) of the relations and fixpoints over a
seeded corpus, each outcome with its interval-expansion count, and the
digests must equal the checked-in `tests/data/outcomes.json`.  A change
that alters an outcome on purpose regenerates the file and names the
(program, group) pairs that changed."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _outcomes_tool():
    spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_match_the_checked_in_fingerprint():
    expected = json.loads((ROOT / "tests" / "data" / "outcomes.json").read_text(encoding="utf-8"))
    actual = _outcomes_tool().fingerprint()
    assert sorted(actual) == sorted(expected)
    differ = [
        (name, group)
        for name, groups in expected.items()
        for group in sorted(groups.keys() | actual[name].keys())
        if groups.get(group) != actual[name].get(group)
    ]
    assert not differ, differ
