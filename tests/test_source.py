"""Rules over the source of the hyponli package itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyponli"


def test_no_module_reads_another_objects_private_attribute():
    """A _name attribute is read only through self or cls: callers read a record by its public
    fields, so that a private one can change without their knowing."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []
