"""The package exports: each module's ``__all__`` and the names the
package re-exports agree, so a deleted name cannot linger in either."""

import inspect

import pytest

import poweralloc
from poweralloc import allocate, model, numerics, oracle, procedures, sim

MODULES = (model, numerics, allocate, oracle, procedures, sim)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_are_package_exports(module):
    for name in module.__all__:
        assert getattr(module, name) is getattr(poweralloc, name), name


def test_package_exports_are_the_module_exports():
    public = {name for name, value in vars(poweralloc).items()
              if (not name.startswith("_") or name == "__version__")
              and not inspect.ismodule(value)}
    assert public == {name for m in MODULES for name in m.__all__} | {"__version__"}
