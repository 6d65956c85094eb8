"""Every package name the benchmark harness under ``bench/`` uses still exists.

``bench/tracer.py`` wraps each function of its ``TRACED`` table on the
named ``ballmaps.<layer>`` module, and ``bench/workloads.py`` and
``bench/probe.py`` call the package as ``bm.<name>`` or import from it.  A
removed or renamed function would otherwise break only the benchmark run.
The harness files are read, not run.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
CALLERS = ("workloads.py", "probe.py")


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _package_uses(filename: str) -> list[tuple[str, str]]:
    """(module, name) pairs: ``bm.<name>`` attributes and ``from ballmaps... import``."""
    tree = ast.parse((BENCH / filename).read_text())
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "bm":
                uses.append(("ballmaps", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ballmaps"):
            uses.extend((node.module, alias.name) for alias in node.names)
    return uses


@pytest.mark.parametrize("layer", sorted(_traced()))
def test_traced_functions_resolve_on_their_layer(layer):
    module = importlib.import_module(f"ballmaps.{layer}")
    missing = [name for name in _traced()[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"ballmaps.{layer} lacks {missing}"


@pytest.mark.parametrize("filename", CALLERS)
def test_bench_package_names_resolve(filename):
    uses = _package_uses(filename)
    assert any(module == "ballmaps" for module, _ in uses)
    missing = [
        f"{module}.{name}"
        for module, name in uses
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert not missing, f"bench/{filename} uses {missing}"
