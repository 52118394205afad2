"""The package's modules share only public names with each other."""

import ast
from pathlib import Path

import dfsa_mpr

PACKAGE = Path(dfsa_mpr.__file__).parent


def test_no_private_name_crosses_a_module():
    crossings = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []
