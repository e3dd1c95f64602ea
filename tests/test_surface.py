"""The package's top level is the README's library surface, and every name a
module exports in ``__all__`` exists."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

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
