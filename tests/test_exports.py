import importlib
import inspect

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


def test_package_root_reexports_every_error_class():
    errors = importlib.import_module("lqturnpike.errors")
    classes = [
        obj for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.LqTurnpikeError) and obj.__module__ == errors.__name__
    ]
    assert errors.LqTurnpikeError in classes
    for cls in classes:
        assert getattr(lab, cls.__name__, None) is cls, (
            f"lqturnpike does not re-export errors.{cls.__name__}"
        )
