"""Every definition in the package is used by the package or the benchmark.

A function, class or method that only tests call is code that production
never runs. This guard finds each definition with ``ast`` and requires its
name, as a whole word, somewhere in ``src/ammgame`` or ``perfbench/*.py``
other than on its own ``def``/``class`` line.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ammgame").glob("*.py"))
CORPUS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
WORD = re.compile(r"\w+")


def test_every_definition_is_used_outside_tests():
    words = Counter()
    for path in CORPUS:
        words.update(WORD.findall(path.read_text()))

    unused = []
    for path in PACKAGE:
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall(lines[node.lineno - 1]).count(name)
            if words[name] <= own:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined but used only by tests: " + ", ".join(unused)
