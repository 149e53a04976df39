"""The benchmark still finds every program name and keyword it uses.

``perfbench/tracing.py`` wraps program functions under each name their
callers look them up by, and the workloads call the program through the
modules they import (``pipeline.track_sequence``, ``lt_data.read_native``),
passing keywords such as ``track_frame(frame_index=)``.  Checking all of
these here, and binding each call's arguments to its callee's signature,
makes a renamed or deleted function or parameter, or a new required one,
fail the suite, not the next benchmark run.  ``ExperimentConfig`` is
generated from the module configs, so the config keys the workloads use
are checked too.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

from lidartrack.config import ExperimentConfig

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


BENCH_FILES = (PERFBENCH / "workloads.py", PERFBENCH / "make_checkpoint.py")


def program_imports(tree: ast.AST) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """The program modules a benchmark file imports, by alias, and the
    (module, name) pairs it imports that are not modules."""
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
    return modules, reads


def program_reads(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs a benchmark file reads from the program.

    Each ``from lidartrack[.pkg] import name [as alias]`` reads ``name``, and
    each ``alias.attr`` on a module imported that way reads ``attr``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = program_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def program_calls(path: Path) -> list[tuple[str, object, ast.Call]]:
    """Each call a benchmark file makes on ``alias.attr[.attr...]`` of a
    program module: (dotted name, the callable, the call node)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, _ = program_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attrs, func = [], node.func
        while isinstance(func, ast.Attribute):
            attrs.insert(0, func.attr)
            func = func.value
        if not (attrs and isinstance(func, ast.Name) and func.id in modules):
            continue
        target = importlib.import_module(modules[func.id])
        for attr in attrs:  # a missing name is the test above's to report
            target = getattr(target, attr, None)
        if callable(target):
            calls.append((".".join([modules[func.id], *attrs]), target, node))
    return calls


def test_every_program_name_the_workloads_read_exists():
    reads = set().union(*(program_reads(path) for path in BENCH_FILES))
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"perfbench reads names the program no longer has: {missing}"
    # the scan found the modules the workloads call through, so it checked something
    assert {module for module, _ in reads} >= {
        "lidartrack.pipeline", "lidartrack.nn", "lidartrack.data",
        "lidartrack.evaluation", "lidartrack.geometry", "lidartrack.config",
    }


def test_every_keyword_the_workloads_pass_is_a_parameter():
    """Each call's arguments bind to its callee's signature: an unknown
    keyword, a missing required parameter or a positional too many fails.
    A starred argument could fill any parameter, so it is skipped, and the
    rest of its call binds partially."""
    unbound, passed, bound = [], set(), 0
    for path in BENCH_FILES:
        for name, target, call in program_calls(path):
            args = [object() for arg in call.args if not isinstance(arg, ast.Starred)]
            kwargs = {kw.arg: object() for kw in call.keywords if kw.arg is not None}
            passed |= {f"{name}({kw}=)" for kw in kwargs}
            starred = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
            signature = inspect.signature(target)
            try:
                (signature.bind_partial if starred else signature.bind)(*args, **kwargs)
            except TypeError as exc:
                unbound.append(f"{path.name}:{call.lineno}: {name}: {exc}")
            bound += 1
    assert not unbound, f"perfbench calls the program with arguments it no longer takes: {unbound}"
    assert bound >= 40  # the scan reached the workloads' calls
    # the scan reached the calls the workloads make with keywords
    assert {
        "lidartrack.pipeline.track_frame(frame_index=)",
        "lidartrack.pipeline.track_sequence(overrides=)",
        "lidartrack.nn.segment_forward_batched(batch=)",
        "lidartrack.config.ExperimentConfig.from_sources(preset=)",
    } <= passed


def is_config(node: ast.AST) -> bool:
    """Whether a benchmark expression is an ``ExperimentConfig``: every one
    perfbench holds is named ``cfg`` or made by ``ExperimentConfig.from_sources``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "from_sources"
    return (isinstance(node, ast.Name) and node.id == "cfg") or (
        isinstance(node, ast.Attribute) and node.attr == "cfg"
    )


def config_uses(path: Path) -> tuple[set[str], set[str]]:
    """The attributes a benchmark file reads from an ``ExperimentConfig``, and
    the keywords it passes to ``replace`` one."""
    reads, replaced = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and is_config(node.value):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "replace" and node.args and is_config(node.args[0])):
            replaced |= {kw.arg for kw in node.keywords}
    return reads, replaced


def test_every_config_key_the_workloads_use_exists():
    keys = {f.name for f in fields(ExperimentConfig)}
    reads, replaced = set(), set()
    for path in BENCH_FILES:
        file_reads, file_replaced = config_uses(path)
        reads |= file_reads
        replaced |= file_replaced
    missing = sorted(name for name in reads - keys if not callable(getattr(ExperimentConfig, name, None)))
    assert not missing, f"perfbench reads config keys the program no longer has: {missing}"
    unknown = sorted(replaced - keys)
    assert not unknown, f"perfbench replaces config keys the program no longer has: {unknown}"
    # the scan reached the keys the workloads read and replace
    assert {"margin", "noise_sigma", "scene_template"} <= reads
    assert {"seed", "epochs"} <= replaced
