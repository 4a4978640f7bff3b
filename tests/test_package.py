"""The package's public names: each module's ``__all__`` is its one list, and ``supervise`` re-exports it."""

import importlib

import supervise

MODULES = [
    importlib.import_module(f"supervise.{name}")
    for name in ("allocation", "effort", "errors", "flat", "hierarchy", "quant", "simulate", "structures")
]


def test_package_exports_exactly_the_module_lists():
    names = supervise.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted([name for module in MODULES for name in module.__all__] + ["__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(supervise, name) is getattr(module, name)
    assert isinstance(supervise.__version__, str)
    assert not [name for name in names if name.startswith("require_")]
