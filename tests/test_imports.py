"""No module imports a name it never uses, every public function and
method has a reader outside the tests (and outside its own class), every
private module-level function and constant has a reader in the package
(outside its own definition), and the package needs only numpy.

No linter ships with the project, so this parses the package modules and
the test files and compares the names each one imports with the names it
reads. The package's __init__.py is skipped: its imports are re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in (ROOT / "src" / "parkde").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_flags_only_unused_names():
    src = "import os\nimport os.path as osp\nfrom a import b, c\nprint(b, osp)\n"
    assert unused_imports(src) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public names that only tests read: the references that tests compare
# against and the subjects of acceptance criteria, each with what needs it.
ORACLES = {
    "parzen_h_m1": "criterion 02",
    "estimate_mise": "criteria 07 and 08",
    "Kernel.autocorrelation": "criterion 06",
    "gradient_fd": "criterion 11",
    "amise_hat_grad": "criterion 11",
    "amise_product": "test_amise's four-term oracle",
    "bias_leading": "test_amise's four-term oracle",
    "variance_leading": "test_amise's four-term oracle",
    "integrate": "quadrature reference in test_quadrature and test_estimators",
}


def reads(tree: ast.AST) -> Counter:
    """How often each name is read as an ast.Name or an ast.Attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def public_defs(tree: ast.Module):
    """(qualified name, node, scope) of each public function and public
    method, properties included; a function's scope is its own definition
    and a method's is its class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, node


def unread_defs(package: list[str], others: list[str] = ()) -> list[str]:
    """Public defs of the package sources that neither the package nor the
    other sources read anywhere but inside their scope: a read inside a
    method's own class does not count.

    Reads are matched by name alone, so a member is missed when another
    def shares its name: a `posterior` method that only tests read would
    pass, because the harness reads `AnalyticModel.posterior`."""
    trees = [ast.parse(source) for source in package]
    total = sum((reads(t) for t in trees + [ast.parse(s) for s in others]), Counter())
    return [
        name
        for tree in trees
        for name, node, scope in public_defs(tree)
        if total[node.name] == reads(scope)[node.name]
    ]


def test_surface_scan_flags_only_unread_defs():
    src = (
        "def a():\n    return a()\n"
        "def b(): pass\n"
        "class C:\n    def m(self): pass\n    def _p(self): pass\n"
        "    def n(self): return self.m() + self._p()\n"
        "x = [b, 'C.m', C().n]\n"
    )
    # C.m is read only inside its own class
    assert unread_defs([src]) == ["a", "C.m"]
    assert unread_defs([src], ["obj.m"]) == ["a"]


def test_public_functions_have_callers_outside_tests():
    package = [p.read_text() for p in sorted((ROOT / "src" / "parkde").glob("*.py"))]
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    others += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    unread = unread_defs(package, others)
    assert sorted(set(unread) - set(ORACLES)) == []
    assert sorted(set(ORACLES) - set(unread)) == []  # no entry outlives its need


def private_defs(tree: ast.Module):
    """(name, node) of each private module-level function and constant;
    dunders such as a module's __getattr__ are read by Python itself."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def unread_privates(package: list[str]) -> list[str]:
    """Private module-level functions and constants of the package sources
    that no package source reads outside their own definition, so a
    recursive call does not count. Reads are matched by name alone, as in
    `unread_defs`."""
    trees = [ast.parse(source) for source in package]
    total = sum((reads(t) for t in trees), Counter())
    return [
        name
        for tree in trees
        for name, node in private_defs(tree)
        if total[name] == reads(node)[name]
    ]


def test_private_scan_flags_only_unread_privates():
    src = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f():\n    return _f() + _A\n"
        "def _g(): pass\n"
        "def __getattr__(name): pass\n"
        "def h():\n    return _g\n"
    )
    # _B and _f are read nowhere but in their own definition
    assert unread_privates([src]) == ["_B", "_f"]
    assert unread_privates([src, "print(_f, _B)"]) == []


def test_private_names_have_readers_in_the_package():
    package = [p.read_text() for p in sorted((ROOT / "src" / "parkde").glob("*.py"))]
    assert unread_privates(package) == []


def test_package_imports_no_scipy():
    # scipy.special alone roughly doubled the start-up time of every command
    probe = (
        "import sys, parkde, parkde.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "[]"
    assert "scipy" not in (ROOT / "pyproject.toml").read_text()


def test_cli_import_starts_without_the_process_pool():
    # multiprocessing pulls in socket, selectors and logging; only a
    # multi-worker experiment needs it
    probe = (
        "import sys, parkde.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "[]"
