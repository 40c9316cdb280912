"""The benchmark's tracer (perfbench/tracing.py) wraps cbsel names at the
module that calls them. A rename that drops one of those names breaks
`perfbench/run.py --trace 1`; this test catches it without running the
benchmark."""

import importlib.util
import pathlib
import sys

import cbsel
import cbsel.cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = load_tracing(monkeypatch)._targets(cbsel)
    assert targets
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
