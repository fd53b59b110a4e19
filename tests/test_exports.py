import importlib
import types

import pytest

import pwkit

LIBRARY = ("grid", "radon", "fourier", "pw", "sphere", "weyl")


@pytest.mark.parametrize("name", LIBRARY)
def test_module_all_resolves_and_is_exported(name):
    # pwkit/__init__.py star-imports each module's __all__: every name in
    # it must exist, and the package must export that same object
    module = importlib.import_module("pwkit." + name)
    for attr in module.__all__:
        assert hasattr(module, attr), "%s.%s" % (name, attr)
        assert getattr(pwkit, attr, None) is getattr(module, attr), attr


def test_package_exports_only_module_all_names():
    listed = {attr for name in LIBRARY
              for attr in importlib.import_module("pwkit." + name).__all__}
    public = {attr for attr, value in vars(pwkit).items()
              if not attr.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == listed
