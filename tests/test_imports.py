"""Every name a gdpc module imports is used in that module.

No linter runs on this package, so this test is what catches a dead import.
The only names allowed to stay unused are the (module, name) pairs that
``benchmarks/tracing.py`` wraps (its ``BINDINGS``): the tracer rebinds a
name in the module that imports it, so such a name stays bound even where
the module no longer calls it. The package's ``__init__`` imports in order
to re-export and is not scanned.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gdpc"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.fixture(scope="module")
def traced_bindings() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module.__name__.rsplit(".", 1)[-1], name) for module, name in tracing.BINDINGS}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.zeros(1) + pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module, traced_bindings):
    allowed = {name for mod, name in traced_bindings if mod == module}
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert [name for name in unused if name not in allowed] == []
