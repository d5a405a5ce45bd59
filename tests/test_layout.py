"""Source-layout rules for the ousym package, checked on its source text."""

import re
from pathlib import Path

import ousym

SRC = Path(ousym.__file__).resolve().parent


def _callers(pattern, allowed):
    """Modules other than `allowed` whose source matches `pattern`."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert re.search(pattern, sources[allowed])
    return [name for name, text in sources.items()
            if name != allowed and re.search(pattern, text)]


def test_hyperduals_are_built_only_in_duals():
    # every seeded coordinate comes from duals.seed
    assert _callers(r"\bHyperDual\(", "duals.py") == []


def test_brackets_go_through_calculus():
    # every bracket is one _field_jet per field, then _contract
    assert _callers(r"\blie_bracket\(", "calculus.py") == []
