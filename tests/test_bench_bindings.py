"""The benchmark under ``bench/`` reaches into pirbatch by name: its
tracer wraps functions listed by module and attribute, and its workloads
and tests call library functions directly.  These checks keep a refactor
that moves or renames one of those functions from breaking the benchmark
unnoticed."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pirbatch

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {info.name for info in pkgutil.iter_modules(pirbatch.__path__)}


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _library_names(path):
    """(module, attribute) for every pirbatch name the file imports, or
    reads as ``m.attr``, ``self.m.attr`` or ``pirbatch.m.attr`` where m
    is a pirbatch module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("pirbatch."):
            module = node.module.split(".", 1)[1]
            names.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            name = (owner.id if isinstance(owner, ast.Name)
                    else owner.attr if isinstance(owner, ast.Attribute) else None)
            if name in MODULES:
                names.add((name, node.attr))
    return sorted(names)


def test_every_traced_span_resolves():
    layers = _load_layers()
    for module, attr in layers.SPANS:
        assert callable(layers._resolve(module, attr)), f"{module}.{attr}"


def test_tracer_reaches_every_binding():
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        assert tracer.missed() == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("script", ["workloads.py", "test_bench.py"])
def test_bench_library_names_resolve(script):
    names = _library_names(BENCH / script)
    assert names, f"no pirbatch names found in {script}"
    for module, attr in names:
        assert hasattr(importlib.import_module(f"pirbatch.{module}"), attr), \
            f"bench/{script} uses pirbatch.{module}.{attr}"
