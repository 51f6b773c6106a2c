"""Export integrity: every name a ``repro`` module lists in ``__all__``
must resolve, so a deletion cannot leave a dangling re-export behind."""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert dangling == []
