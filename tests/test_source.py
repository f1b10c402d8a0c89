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


def test_each_function_and_class_is_named_elsewhere_in_the_package():
    """src holds only what the CLI and the library use: each function, method and class,
    dunders aside, is named by some other node of the package, be it a call, an attribute
    read or an import. A helper that only tests use belongs in tests/helpers.py."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    assert [f"{file}:{line}: {name}" for file, line, name in defined if name not in named] == []
