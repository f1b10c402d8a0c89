"""Each row of the mutation table in tests/mutants.py still applies, so that a refactor cannot
leave a row silently stale: its source text occurs exactly once in its file, each test it names
exists and the CHANGES.md entry it comes from is there. Running the table is mutants.py's own."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def defines(path, names) -> bool:
    """Whether the module at path defines the class or function path names[0], names[1], ..."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_row_applies(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.source) == 1
    assert mutant.replacement != mutant.source
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert names and defines(ROOT / path, names), f"{test} does not exist"
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    assert any(line.startswith(mutant.entry) for line in changes)


def test_rows_have_distinct_names():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
