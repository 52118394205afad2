"""The README's library example runs, and its commented values are what it returns."""

import ast
import re
from pathlib import Path

from dfsa_mpr.harness import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_returns_its_commented_values(capsys):
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        # a statement whose line ends in "# <integer>" shows the value it returns
        comment = re.search(r"#\s*(\d+)\b", lines[statement.end_lineno - 1])
        if comment and isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
            assert value == int(comment.group(1)), lines[statement.end_lineno - 1]
            checked.append(value)
        else:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    assert checked == [45, 30, 179]
    assert capsys.readouterr().out.splitlines()[0] == ",".join(CSV_COLUMNS)
