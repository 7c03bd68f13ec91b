"""Packaging metadata points at code that exists, the benchmark's tracer
still finds every name it wraps, importing the package fixes the heap
policy, the package carries no dead code (every definition and
module-level name is named somewhere beyond where it is defined, every
import is used), and its modules keep their layers."""

import ast
import importlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_script_targets_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
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


# -- heap policy ------------------------------------------------------------

# Imports the package, allocates and frees ten 4 MiB arrays per cycle and
# prints the minor page faults per cycle after two warm-up cycles. Without
# the import, glibc's dynamic thresholds trim the freed heap top, so every
# cycle faulted its 40 MiB in again (about 5,100 faults with numpy 2.4.6).
HEAP_CYCLES = """
import resource
import numpy as np
import focalaudio

def cycle():
    arrays = [np.ones(1 << 20, np.float32) for _ in range(10)]
    del arrays

cycle(); cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_import_keeps_freed_arrays_mapped():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]))
    out = subprocess.run([sys.executable, "-c", HEAP_CYCLES], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert float(out.stdout) < 100


# -- dead code --------------------------------------------------------------

SOURCE_DIRS = ("src", "tests", "perfbench")
PACKAGE = ROOT / "src" / "focalaudio"


def _defined_names(tree: ast.Module) -> set:
    """Module-level functions, classes and assigned names, and the methods of
    those classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {n.name for n in node.body
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_package_definition_is_named_elsewhere():
    # A function, class, method or module-level name that appears nowhere but
    # in its own `def`/`class` lines or unindented assignments has no caller,
    # no test and no benchmark use.
    text = "\n".join(p.read_text() for d in SOURCE_DIRS for p in sorted((ROOT / d).rglob("*.py")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in sorted(_defined_names(ast.parse(path.read_text()))):
            uses = len(re.findall(rf"\b{name}\b", text))
            defs = len(re.findall(rf"\b(?:def|class)\s+{name}\b|^{name}\s*[:=]", text,
                                  flags=re.MULTILINE))
            if uses <= defs:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"defined but never named elsewhere: {unused}"


def test_every_package_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in sorted(imported - used)]
    assert not unused, f"imported but unused: {unused}"


# -- layers -----------------------------------------------------------------

# The package modules each listed module may import. The frontend and the
# tape sit below every other module; the mask path reads plain arrays, so it
# needs neither the model nor the metrics; the model is built on the tape
# alone; the dataset reads clips through the frontend; the scorer reaches a
# model only through `interpret.logits_and_maps`, so it never imports one.
ALLOWED_IMPORTS = {"audio": (), "tensor": (), "interpret": ("audio", "tensor"),
                   "focalnet": ("tensor",), "data": ("audio",),
                   "metrics": ("audio", "interpret", "tensor")}


def _package_imports(node) -> list:
    """Package modules an import statement names, relative or absolute."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [a.name for a in node.names]
        return [node.module] if node.module.split(".")[0] == "focalaudio" else []
    return [a.name for a in node.names if a.name.split(".")[0] == "focalaudio"]


def test_modules_keep_their_layers():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.stem}, line {node.lineno}"
            if id(node) not in top_level:
                problems.append(f"{where}: import below module level")
            elif path.stem in ALLOWED_IMPORTS:
                allowed = ALLOWED_IMPORTS[path.stem]
                extra = [m for m in _package_imports(node) if m.split(".")[-1] not in allowed]
                if extra:
                    problems.append(f"{where}: imports package modules {extra}")
    assert not problems, problems
