"""Every definition in the package is used by the package or the benchmark.

A function, class or method that only tests call is code that production
never runs. This guard finds each definition with ``ast`` and requires its
name, as a whole word, somewhere in ``src/ammgame`` or ``perfbench/*.py``
other than on its own ``def``/``class`` line. A second guard does the same
for result fields: each annotated field of a class must be read as an
attribute somewhere. A third does it for parameter defaults: a default that
only tests rely on is a fallback production never takes.
"""

import ast
import re
from collections import Counter, defaultdict
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


# defaults kept although no call outside the tests relies on them, with the reason
DEFAULTS_KEPT = {
    "parse_config_text.source": "a text with no source name is the reader's ordinary input",
    "load_config.overrides": "a file with no overrides is the reader's ordinary input",
}


def _calls_by_name(paths):
    """Function name -> (positional count, keyword names) of each call to it.

    A call names its function as ``f(...)`` or ``obj.f(...)``; calls that
    spread ``*args`` or ``**kwargs`` could pass anything and are left out.
    """
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):
                continue
            calls[name].append((len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_default_is_relied_on_outside_tests():
    """Each defaulted parameter of a ``def`` in the package is omitted by at
    least one call in ``src/ammgame``, ``perfbench/*.py`` or the acceptance
    tests, passed neither by position nor by keyword.

    Dunder methods are skipped as in the definition guard: a constructor is
    called by its class name, which this scan does not resolve. A method's
    first parameter (``self`` or ``cls``) is not among the positions a call
    fills; the package has no static methods.
    """
    calls = _calls_by_name(CORPUS + [ACCEPTANCE])
    unrelied = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        methods = {
            id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            if id(node) in methods:
                positional = positional[1:]
            first = len(positional) - len(spec.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d is not None
            ]
            for index, param in defaulted:
                key = f"{node.name}.{param}"
                if key in DEFAULTS_KEPT:
                    continue
                if not any((index is None or n <= index) and param not in keywords
                           for n, keywords in calls[node.name]):
                    unrelied.append(f"{path.name}:{node.lineno} {key}")
    assert not unrelied, "defaults relied on only by tests: " + ", ".join(unrelied)
