"""The package's top level is the README's library surface, every name a module
exports in ``__all__`` exists, and forecasting and ordering code import nothing
of each other."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import bloodbank

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_surface() -> set[str]:
    """The names imported in the README's "Library surface" block."""
    block = re.search(r"## Library surface\s+```python\n(.*?)```", README.read_text(), re.S)
    imported = block.group(1).split("(", 1)[1].rsplit(")", 1)[0]
    return {name.strip() for line in imported.splitlines()
            for name in line.split("#")[0].split(",") if name.strip()}


def test_surface_and_every_export_resolve():
    top_level = {name for name, value in vars(bloodbank).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert top_level == documented_surface()
    for info in pkgutil.iter_modules(bloodbank.__path__):
        module = importlib.import_module(f"bloodbank.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"bloodbank.{info.name}.__all__ names {missing}"


FORECASTING = {"datagen", "forecast", "gbrt", "timeseries"}
ORDERING = {"inventory", "policy"}


def package_imports(name: str) -> set[str]:
    """The package modules that ``bloodbank/<name>.py`` imports, read by ``ast``."""
    tree = ast.parse(Path(bloodbank.__file__).with_name(f"{name}.py").read_text())
    found = set()  # dotted names, a relative import's resolved in the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # `from .policy import x`, `from . import gbrt`
            prefix = ".".join(filter(None, ["bloodbank" if node.level else "", node.module]))
            found.update(f"{prefix}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in found if name.startswith("bloodbank.")}


@pytest.mark.parametrize("name", sorted(FORECASTING | ORDERING))
def test_forecasting_and_ordering_import_nothing_of_each_other(name):
    # they meet only in cli and the package __init__, which re-exports both
    other = ORDERING if name in FORECASTING else FORECASTING
    assert not package_imports(name) & other, f"bloodbank.{name} imports {other}"
