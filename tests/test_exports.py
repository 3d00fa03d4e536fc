import importlib

import pytest

import lqturnpike as lab

MODULES = ("lq", "operators", "riccati", "stationary", "turnpike", "scenarios")


@pytest.mark.parametrize("module", MODULES)
def test_package_root_reexports_every_public_name(module):
    mod = importlib.import_module(f"lqturnpike.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name}"
        assert getattr(lab, name, None) is getattr(mod, name), (
            f"lqturnpike does not re-export {module}.{name}"
        )
