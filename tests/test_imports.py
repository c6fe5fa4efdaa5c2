"""No anchorrank module imports an underscore-prefixed name from another
one: a name that a second module needs belongs to its owner's interface."""

import ast
from pathlib import Path

import anchorrank

PACKAGE = Path(anchorrank.__file__).parent


def private_imports() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != "anchorrank":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []
