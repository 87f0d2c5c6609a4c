"""Public names: everything a module exports must exist."""

import importlib

MODULES = ("vexmod", "vexmod.annulus", "vexmod.cli", "vexmod.cylinder", "vexmod.exponent",
           "vexmod.oracle", "vexmod.quadrature", "vexmod.rootfind")


def test_every_exported_name_resolves():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"exported but undefined: {missing}"
