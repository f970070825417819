"""Every name a library or test module imports is used there or
re-exported, every private helper a library module defines is
referenced somewhere in the package, and every module-level helper a
test module defines is read there or imported by another test module.

No linter ships with the project, so these stdlib-only checks catch an
import or a helper left behind when the code that used it goes.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "costzdd"


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_a_stale_import():
    tree = ast.parse("import json\nfrom .bound import Bounder, BoundResult\nBounder()\n")
    assert unused_imports(tree) == [(1, "json"), (2, "BoundResult")]


def defined_helpers(tree, methods=True):
    """Module-level names defined in ``tree``, and its methods unless told not to."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        if methods and isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))


def referenced_names(trees, params=False):
    """Names the modules read, bare or as an attribute; with ``params``
    also every parameter name, the way pytest hands a fixture in."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif params and isinstance(node, ast.arg):
                used.add(node.arg)
    return used


def orphaned_helpers(trees):
    """(module, name) of each private helper that no module references."""
    used = referenced_names(trees)
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in defined_helpers(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    )


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(trees) == []


def test_the_check_sees_an_orphaned_helper():
    trees = {
        "a.py": ast.parse("_LIMIT = 3\ndef _used():\n    return _LIMIT\ndef _orphan():\n    pass\n"),
        "b.py": ast.parse(
            "from a import _used\n"
            "class C:\n"
            "    def _stale(self):\n        pass\n"
            "    def _called(self):\n        return _used()\n"
            "    def run(self):\n        return self._called()\n"
        ),
    }
    assert orphaned_helpers(trees) == [("a.py", "_orphan"), ("b.py", "_stale")]


def orphaned_test_helpers(trees):
    """(module, name) of each module-level function, strategy or constant of
    a test module that neither that module reads nor another imports from it
    (the import check then holds the importer to using it).  Tests are
    exempt; methods are out of scope, since a state machine's rules run
    through decorators."""
    imported = {
        (f"{node.module}.py", alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in set(defined_helpers(tree, methods=False))
        - referenced_names({module: tree}, params=True)
        if not name.startswith("test_") and (module, name) not in imported
    )


def test_every_test_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("*.py"))}
    assert orphaned_test_helpers(trees) == []


def test_the_check_sees_an_orphaned_test_helper():
    trees = {
        "helpers.py": ast.parse("def used():\n    pass\ndef orphan():\n    pass\n"),
        "test_a.py": ast.parse(
            "import pytest\n"
            "from helpers import used\n"
            "LIMIT = 3\n"
            "STALE = (1, 2)\n"
            "@pytest.fixture\n"
            "def inst():\n    return used()\n"
            "def test_x(inst):\n    assert inst < LIMIT\n"
            "def test_never_called():\n    pass\n"
        ),
        # a name another module reads does not keep this module's alive
        "test_b.py": ast.parse("LIMIT = 4\nSTALE = 5\ndef test_y():\n    assert STALE\n"),
    }
    assert orphaned_test_helpers(trees) == [
        ("helpers.py", "orphan"), ("test_a.py", "STALE"), ("test_b.py", "LIMIT")
    ]
