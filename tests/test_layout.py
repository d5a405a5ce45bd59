"""Source-layout rules for the ousym package, checked on its source text."""

import ast
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


def _calling_functions(names):
    """(module, top-level function) pairs whose body calls any of names,
    by plain or attribute name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in names:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_threads_start_only_in_the_noise_block_iterator():
    # one worker draws the next block of noise; nothing else runs threads
    assert _calling_functions({"Thread", "ThreadPoolExecutor",
                               "ProcessPoolExecutor", "Pool",
                               "start_new_thread"}) == {
        ("integrate.py", "_increment_blocks")}


def test_philox_draws_only_in_sampling_and_the_block_iterator():
    assert _calling_functions({"_philox_increments"}) == {
        ("integrate.py", "sample_wiener"),
        ("integrate.py", "_increment_blocks")}
