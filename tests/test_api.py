import importlib
import pkgutil

import sdeproj
from sdeproj import brownian

# One-path loops and the path-tag stream, now test oracles (tests/oracles.py).
REMOVED = {"simulate_path", "step", "SchemeGrid", "lipschitz_bound",
           "implicit_cir_path", "level_sample", "increments", "_TAG_PATH"}


def test_every_export_resolves_once_and_no_removed_name_is_exported():
    modules = [sdeproj] + [importlib.import_module(f"sdeproj.{info.name}")
                           for info in pkgutil.iter_modules(sdeproj.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), module.__name__
        assert [name for name in exported if not hasattr(module, name)] == [], \
            module.__name__
        assert REMOVED.isdisjoint(exported), module.__name__
    assert len(modules) > 10
    assert not hasattr(brownian.BrownianFabric, "increments")
    assert not hasattr(brownian, "_TAG_PATH")
