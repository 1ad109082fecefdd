"""Repository-level guards: recorded benchmarks and the one production path.

- every ``*_equal`` parity flag in each committed ``BENCH_*.json`` is
  true — a benchmark record whose engines disagree is not a speedup;
- no production module imports :mod:`repro.reference` (the reference
  engines are for tests and benchmarks only);
- the retired engine switches stay retired: their environment
  variables appear nowhere under ``src/``, ``tests/``, ``benchmarks/``
  or ``.github/``, and their function names nowhere under ``src/`` or
  ``.github/``;
- every use site the traced benchmark patches (``perfbench/layers.py``)
  still resolves, so a renamed function fails here rather than only in
  the benchmark's trace mode.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# Spelled in pieces so this file does not match its own search.
_RETIRED_ENV = ["REPRO_" + name for name in ("COMPILE", "SETWISE", "PRUNE")]
_RETIRED_NAMES = [
    "set_" + name for name in ("compilation", "setwise", "pruning")
] + [name + "_enabled" for name in ("compilation", "setwise", "pruning")]


def _parity_flags(record, path=""):
    if isinstance(record, dict):
        for key, value in record.items():
            where = f"{path}/{key}"
            if key.endswith("_equal"):
                yield where, value
            yield from _parity_flags(value, where)
    elif isinstance(record, list):
        for i, value in enumerate(record):
            yield from _parity_flags(value, f"{path}[{i}]")


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_parity_flags_true(path):
    flags = list(_parity_flags(json.loads(path.read_text())))
    assert flags, f"{path.name} records no parity flags"
    assert [where for where, value in flags if value is not True] == []


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: resolve against the package
                yield "." * node.level + module
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_production_module_imports_reference():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "reference.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for name in _imports(tree):
            if name in ("repro.reference", "reference") or name.endswith(
                ".reference"
            ):
                offenders.append((str(path.relative_to(ROOT)), name))
    assert offenders == []


def _text_files(*dirs):
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                yield path, path.read_text()
            except UnicodeDecodeError:
                continue


@pytest.mark.parametrize("words, dirs", [
    (_RETIRED_ENV, ("src", "tests", "benchmarks", ".github")),
    (_RETIRED_NAMES, ("src", ".github")),
], ids=["env-vars", "function-names"])
def test_retired_switches_stay_gone(words, dirs):
    hits = [
        (str(path.relative_to(ROOT)), word)
        for path, text in _text_files(*dirs)
        for word in words
        if word in text
    ]
    assert hits == []


def _perfbench_layers():
    """``perfbench/layers.py`` as a module, loaded without installing it."""
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_patch_sites_resolve():
    layers = _perfbench_layers()
    sites = [
        (mod, attr)
        for table in (layers.SPAN_SITES, layers.RUNS_SITES, layers.ITER_SITES)
        for mod, attr, _name in table
    ]
    assert sites and layers.PLAN_METHODS
    missing = [
        f"{mod}.{attr}" for mod, attr in sites
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    # ``getattr(cls, "__call__")`` always finds ``type.__call__``: look
    # the method up in the class's own MRO instead.
    methods = list(layers.PLAN_METHODS) + [
        ("repro.service.runs", "RunContext", "make_eval_context"),
        ("repro.verifier.linear", "_SnapshotLabeller", "__call__"),
        ("repro.verifier.linear", "_SnapshotLabeller", "label_bits"),
    ]
    for mod, cls, attr in methods:
        owner = getattr(importlib.import_module(mod), cls, None)
        mro = [] if owner is None else owner.__mro__[:-1]  # all but object
        if not any(callable(vars(k).get(attr)) for k in mro):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []
