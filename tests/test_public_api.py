import importlib
import pkgutil

import pytest

import kan_ausculta

MODULES = sorted(info.name for info in pkgutil.iter_modules(kan_ausculta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kan_ausculta.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from kan_ausculta.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_resolve():
    assert [n for n in kan_ausculta.__all__ if not hasattr(kan_ausculta, n)] == []
    namespace = {}
    exec("from kan_ausculta import *", namespace)
    assert set(kan_ausculta.__all__) <= set(namespace)
