"""Every module of the package exports exactly the names it defines."""

import importlib
import pkgutil

import pytest

import multistat

MODULES = sorted(m.name for m in pkgutil.iter_modules(multistat.__path__))


def test_the_package_has_its_modules():
    assert {"cayley", "cli", "decoration", "messi", "networks", "points", "ratlin",
            "report", "witness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module("multistat." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    namespace = {}
    exec("from multistat.%s import *" % name, namespace)
    assert set(getattr(module, "__all__", namespace)) <= set(namespace)
