"""Packaging metadata points at code that exists, and the benchmark's tracer
still finds every name it wraps."""

import importlib
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_script_targets_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _package_bindings() -> dict:
    """Every module-level name of the package and every class `forward`."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "focalaudio" or name.startswith("focalaudio."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and "forward" in vars(value):
                    out[(name, attr, "forward")] = vars(value)["forward"]
    return out


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark wraps package functions and classes by name; deleting or
    # renaming one of them must fail here, not only in a traced bench run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    before = _package_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = [key for key, value in _package_bindings().items() if before.get(key) is not value]
        assert patched
    finally:
        tr.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
