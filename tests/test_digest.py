"""The simulator's integer results against the committed digest (tests/digest.py)."""

import json
from pathlib import Path

from digest import compute

EXPECTED = Path(__file__).with_name("digest.json")


def test_integer_results_match_the_committed_digest():
    expected, got = json.loads(EXPECTED.read_text()), compute()
    moved = [name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name)]
    assert not moved, f"digest sections differ from {EXPECTED.name}: {sorted(moved)}; see tests/digest.py"
