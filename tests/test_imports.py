"""Every name a package module imports is used in it, every private
module-level function or class is used somewhere in the package, and every
public one somewhere in the package, its demos or benchmark: a deletion
that leaves an import or a helper behind fails here, and so does a test
oracle left in the package.
``__init__.py`` is skipped, as its imports are the package's exports. No
package function or lambda takes a parameter whose name starts with ``_``."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import expmarket

SOURCES = sorted(Path(expmarket.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
# everywhere a public name may be used from, the package's exports aside;
# a use in a test alone does not count
USERS = MODULES + sorted(p for d in ("demos", "perfbench")
                         for p in (ROOT / d).rglob("*.py")
                         if "tests" not in p.relative_to(ROOT / d).parts)
# public names only tests use, each kept for its reason
TESTED_ONLY = {
    # the wire format the README documents, whose size patch_wire_size charges
    ("serialize.py", "graph_to_bytes"),
    ("serialize.py", "graph_from_bytes"),
    ("serialize.py", "patch_to_bytes"),
    ("serialize.py", "patch_from_bytes"),
    # the README's definition of a digest
    ("graph.py", "compute_digest_from_scratch"),
    # perfbench's tracer wraps it by name
    ("localiser.py", "localise"),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line it is bound on."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _references(tree: ast.AST) -> Counter:
    """How often each name appears as a name, an attribute or an imported name."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def _definitions(tree: ast.Module, private: bool) -> list[ast.AST]:
    """The module-level functions and classes whose names are (not) private."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    package = sum((_references(ast.parse(p.read_text())) for p in SOURCES), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    # a helper's references inside its own body (recursion) do not count
    stranded = [node.name for node in _definitions(tree, private=True)
                if package[node.name] == _references(node)[node.name]]
    assert not stranded, f"{path.name}: private helpers nothing uses {stranded}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_referenced(path):
    """A public name that only ``__init__.py`` re-exports is dead code."""
    users = sum((_references(ast.parse(p.read_text())) for p in USERS), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    stranded = [node.name for node in _definitions(tree, private=False)
                if users[node.name] == _references(node)[node.name]
                and (path.name, node.name) not in TESTED_ONLY]
    assert not stranded, f"{path.name}: public names nothing uses {stranded}"


def test_every_tested_only_name_still_exists():
    defined = {(p.name, node.name) for p in MODULES
               for node in _definitions(ast.parse(p.read_text()), private=False)}
    assert not TESTED_ONLY - defined, f"gone: {sorted(TESTED_ONLY - defined)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_parameter_is_private(path):
    """A parameter named ``_x`` is a knob hidden from the documented API;
    ``_`` alone, an ignored argument, is allowed."""
    hidden = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            hidden += [f"{getattr(node, 'name', 'lambda')}({p.arg})" for p in params
                       if p is not None and p.arg.startswith("_") and p.arg != "_"]
    assert not hidden, f"{path.name}: private parameters {hidden}"
