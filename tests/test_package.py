import importlib
import pkgutil

import pytest

import ttubs


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ttubs.__path__)))
def test_public_names_resolve(name):
    mod = importlib.import_module(f"ttubs.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
