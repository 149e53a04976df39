"""The benchmark still finds every program name it uses.

``perfbench/tracing.py`` wraps program functions under each name their
callers look them up by, and the workloads call the program through the
modules they import (``pipeline.track_sequence``, ``lt_data.read_native``).
Checking both here makes a renamed or deleted function fail the suite, not
the next benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.untouched()


def program_reads(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs a benchmark file reads from the program.

    Each ``from lidartrack[.pkg] import name [as alias]`` reads ``name``, and
    each ``alias.attr`` on a module imported that way reads ``attr``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads: set[tuple[str, str]] = set()
    modules: dict[str, str] = {}  # alias -> module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lidartrack":
            for name in node.names:
                try:
                    module = importlib.import_module(f"{node.module}.{name.name}")
                except ModuleNotFoundError:  # a name defined in node.module
                    reads.add((node.module, name.name))
                else:
                    modules[name.asname or name.name] = module.__name__
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_every_program_name_the_workloads_read_exists():
    reads = program_reads(PERFBENCH / "workloads.py") | program_reads(PERFBENCH / "make_checkpoint.py")
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"perfbench reads names the program no longer has: {missing}"
    # the scan found the modules the workloads call through, so it checked something
    assert {module for module, _ in reads} >= {
        "lidartrack.pipeline", "lidartrack.nn", "lidartrack.data",
        "lidartrack.evaluation", "lidartrack.geometry", "lidartrack.config",
    }
