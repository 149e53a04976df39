"""The benchmark's tracer still finds every binding it wraps.

``perfbench/tracing.py`` wraps program functions under each name their
callers look them up by.  Installing and removing it here makes a renamed
or rebound traced function fail the suite, not the next benchmark run.
"""

from __future__ import annotations

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
