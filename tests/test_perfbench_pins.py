"""The benchmark's tracer wraps suq2 entry points and clears its memo
caches by name.  Installing and removing it here makes a refactor that
drops or renames one of those names fail in the test suite, not only
when the benchmark runs."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _suq2_bindings():
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name.startswith("suq2.") and mod is not None
            for attr, val in vars(mod).items()}


def test_tracer_names_resolve_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _suq2_bindings()
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    after = _suq2_bindings()
    assert all(after[k] is v for k, v in before.items())
    tracer.clear_caches()


def test_tracer_clears_every_memo_cache(monkeypatch):
    # A cache the tracer does not know of would stay warm across timed
    # passes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    known = {id(fn) for fns in tracer.CACHES.values() for fn in fns}
    found = {id(val) for val in _suq2_bindings().values()
             if hasattr(val, "cache_clear")}
    assert found == known
