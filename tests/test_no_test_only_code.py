"""Every definition in the package is used by the package or the benchmark.

A function, class or method that only tests call is code that production
never runs. This guard finds each definition with ``ast`` and requires its
name, as a whole word, somewhere in ``src/ammgame`` or ``perfbench/*.py``
other than on its own ``def``/``class`` line. A second guard does the same
for result fields: each annotated field of a class must be read as an
attribute somewhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ammgame").glob("*.py"))
CORPUS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
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


# fields kept although only tests read them, with the reason
FIELDS_READ_BY_TESTS_ONLY = {
    # test_lvr::test_kernel_matches_scalar_replay checks each terminal against
    # a scalar replay of the path, which is how the lane-wide kernel is tested
    "LvrAccount.terminal_replication",
    "LvrAccount.terminal_pool_value",
}


def test_every_result_field_is_read_outside_tests():
    """Every annotated class field in the package is read as an attribute
    (``obj.name`` in load context) in ``src/ammgame``, ``perfbench/*.py`` or
    the acceptance tests.

    The scan goes by name, not by type, so a field that shares its name with
    an attribute read elsewhere passes: ``seed``, ``sigma`` and
    ``diagnostics`` would hide a field of that name that nothing reads.
    """
    reads = set()
    for path in CORPUS + [ACCEPTANCE]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)

    unread = []
    for path in PACKAGE:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                name = f"{cls.name}.{stmt.target.id}"
                if stmt.target.id not in reads and name not in FIELDS_READ_BY_TESTS_ONLY:
                    unread.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unread, "fields read only by tests: " + ", ".join(unread)
