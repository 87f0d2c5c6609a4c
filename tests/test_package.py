"""Public names: everything a module exports must exist; the modules import as designed."""

import ast
import importlib
from pathlib import Path

MODULES = ("vexmod", "vexmod.annulus", "vexmod.cli", "vexmod.core", "vexmod.cylinder",
           "vexmod.exponent", "vexmod.oracle", "vexmod.quadrature", "vexmod.rootfind")


def test_every_exported_name_resolves():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"exported but undefined: {missing}"


def _imported_modules(name):
    """The vexmod modules that vexmod.<name> imports anywhere in its source, found by ast,
    so an import under ``TYPE_CHECKING`` or in a function counts too."""
    tree = ast.parse(Path(importlib.import_module(f"vexmod.{name}").__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("vexmod.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module != "vexmod" and not module.startswith("vexmod."):
                continue
            base = module.removeprefix("vexmod").lstrip(".")
            found.update([base] if base else [alias.name for alias in node.names])
    return found


def test_the_core_names_no_geometry_and_the_geometries_are_peers():
    # The ring and the cylinder are adapters over one core: the core imports neither, and
    # neither imports the other.
    assert not _imported_modules("core") & {"annulus", "cylinder"}
    assert "cylinder" not in _imported_modules("annulus")
    assert "annulus" not in _imported_modules("cylinder")
    assert "core" in _imported_modules("annulus") & _imported_modules("cylinder")
