"""Every name a library module imports is used there or re-exported, and
every private helper it defines is referenced somewhere in the package.

No linter ships with the project, so these stdlib-only checks catch an
import or a helper left behind when the code that used it goes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "costzdd"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_a_stale_import():
    tree = ast.parse("import json\nfrom .bound import Bounder, BoundResult\nBounder()\n")
    assert unused_imports(tree) == [(1, "json"), (2, "BoundResult")]


def defined_helpers(tree):
    """Module-level names and methods defined in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))


def orphaned_helpers(trees):
    """(module, name) of each private helper that no module references."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
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
