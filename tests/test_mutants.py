"""The mutant list of tools/mutate.py stays applicable.

tools/mutate.py replaces one source fragment per mutant in a copy of the
repository and runs the tests named with it; it is not part of tier-1.
This test keeps its list from going stale silently: each fragment occurs
exactly once in its file, each replacement changes it, each name is
unique and each named test file exists."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def test_every_mutant_fragment_occurs_exactly_once():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert mutate.load_mutants()
