import ast
import pkgutil
import types
from importlib import import_module
from pathlib import Path

import pytest

import repvar

# every library module declares its public names; cli is the command-line entry point
MODULES = [
    import_module(f"repvar.{info.name}")
    for info in pkgutil.iter_modules(repvar.__path__)
    if info.name != "cli"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_package_reexports_public_names():
    # each name the package imports from a module is in that module's __all__
    public = {name: module for module in MODULES for name in module.__all__}
    for name, value in vars(repvar).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in public, f"repvar.{name} is in no module's __all__"
        assert getattr(public[name], name) is value, f"repvar.{name}"


def _unused_imports(path):
    """Names the module at `path` imports but never reads; a name listed in
    its __all__ counts as read (a re-export)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in read)


# the package module re-exports every name it imports
SOURCES = sorted(
    p for p in Path(repvar.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
