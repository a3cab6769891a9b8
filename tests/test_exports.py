import ast
import importlib
import pathlib
import pkgutil

import pytest

import harmonic_ports

MODULES = sorted(m.name for m in pkgutil.iter_modules(harmonic_ports.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"harmonic_ports.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"harmonic_ports.{name}.{attr}"


def test_package_exports_resolve_and_are_public():
    # every name the package re-exports exists and, where its module
    # declares __all__, is listed there
    tree = ast.parse(pathlib.Path(harmonic_ports.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"harmonic_ports.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(harmonic_ports, alias.name), alias.name
            if public is not None:
                assert alias.name in public, f"{node.module}.{alias.name}"
