import pkgutil
import types
from importlib import import_module

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
