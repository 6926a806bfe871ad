"""Every definition in the package is used by the package or the benchmark.

A function, class or method that only tests call is code that production
never runs. This guard finds each definition with ``ast`` and requires its
name, as a whole word, somewhere in the corpus other than on its own
``def``/``class`` line. The corpus is ``src/ammgame`` without
``__init__.py``, whose re-exports name a definition without using it,
``perfbench/*.py`` and the acceptance tests. A second guard does the same
for result fields: each annotated field of a class must be read as an
attribute somewhere. A third does it for parameter defaults, of a ``def``
and of a dataclass field alike: a default that only tests rely on is a
fallback production never takes. A fourth requires every module-level import
of the package and of the tests to be used in its own file.
"""

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ammgame").glob("*.py"))
CORPUS = (
    [p for p in PACKAGE if p.name != "__init__.py"]
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)
TESTS = sorted((ROOT / "tests").glob("*.py"))
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


def test_every_result_field_is_read_outside_tests():
    """Every annotated class field in the package is read as an attribute
    (``obj.name`` in load context) somewhere in the corpus.

    The scan goes by name, not by type, so a field that shares its name with
    an attribute read elsewhere passes: ``seed``, ``sigma`` and
    ``diagnostics`` would hide a field of that name that nothing reads.
    """
    reads = set()
    for path in CORPUS:
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
                if stmt.target.id not in reads:
                    unread.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unread, "fields read only by tests: " + ", ".join(unread)


# defaults kept although no call outside the tests relies on them, with the reason
DEFAULTS_KEPT = {
    "load_config.overrides": "a file with no overrides is the reader's ordinary input",
}


def _name(node):
    """The name a call or decorator uses: ``f`` for ``f(...)`` and ``obj.f(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _calls_by_name(paths):
    """Function name -> (positional count, keyword names) of each call to it.

    A call names its function as ``f(...)`` or ``obj.f(...)``; ``cls(...)``
    inside a class names that class. Calls that spread ``*args`` or
    ``**kwargs`` could pass anything and are left out.
    """
    calls = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {
            id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls) if isinstance(node, ast.Call) and _name(node) == "cls"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _name(node) is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):
                continue
            name = owner.get(id(node), _name(node))
            calls[name].append((len(node.args), {k.arg for k in node.keywords}))
    return calls


def _field_default(stmt):
    """Whether a dataclass field gives its ``__init__`` parameter a default,
    or None when the field is no parameter (``field(init=False)``)."""
    value = stmt.value
    if not (isinstance(value, ast.Call) and _name(value) == "field"):
        return value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return None
    return "default" in keywords or "default_factory" in keywords


def _defaulted_parameters(tree):
    """(line, callable name, position or None for keyword-only, parameter) of
    each defaulted parameter: of every ``def``, and of every dataclass field
    (``= value`` or ``field(default=...)`` or ``field(default_factory=...)``),
    whose position is its place among the class's ``__init__`` fields.

    An ``__init__`` is named after its class; other dunder methods are
    skipped as in the definition guard. A method's first parameter (``self``
    or ``cls``) is not among the positions a call fills; the package has no
    static methods.
    """
    owner = {
        id(stmt): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _name(d) == "dataclass" for d in node.decorator_list
        ):
            params = [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and _field_default(stmt) is not None
            ]
            for index, stmt in enumerate(params):
                if _field_default(stmt):
                    yield stmt.lineno, node.name, index, stmt.target.id
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name == "__init__":
            name = owner[id(node)]
        elif name.startswith("__") and name.endswith("__"):
            continue
        spec = node.args
        positional = spec.posonlyargs + spec.args
        if id(node) in owner:
            positional = positional[1:]
        first = len(positional) - len(spec.defaults)
        for index, a in enumerate(positional):
            if index >= first:
                yield node.lineno, name, index, a.arg
        for a, d in zip(spec.kwonlyargs, spec.kw_defaults):
            if d is not None:
                yield node.lineno, name, None, a.arg


def test_every_default_is_relied_on_outside_tests():
    """Each defaulted parameter in the package is omitted by at least one
    call in the corpus, passed neither by position nor by keyword."""
    calls = _calls_by_name(CORPUS)
    unrelied = []
    for path in PACKAGE:
        for line, name, index, param in _defaulted_parameters(ast.parse(path.read_text())):
            key = f"{name}.{param}"
            if key in DEFAULTS_KEPT:
                continue
            if not any((index is None or n <= index) and param not in keywords
                       for n, keywords in calls[name]):
                unrelied.append(f"{path.name}:{line} {key}")
    assert not unrelied, "defaults relied on only by tests: " + ", ".join(unrelied)


def test_every_import_is_used_in_its_file():
    """Each name a module-level ``import`` binds in ``src/ammgame`` (without
    ``__init__.py``, whose imports are its re-exports) and in ``tests`` is
    read as a name somewhere in the same file."""
    unused = []
    for path in [p for p in PACKAGE if p.name != "__init__.py"] + TESTS:
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in names:
                    unused.append(f"{path.name}:{stmt.lineno} {bound}")
    assert not unused, "imported but unused: " + ", ".join(unused)
