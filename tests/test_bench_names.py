"""The benchmark's tracer patches package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    spans = load_spans()
    missing = [
        f"cmpbayes.{module}.{attr}"
        for module, attr, _, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(f"cmpbayes.{module}"), attr, None))
    ]
    assert missing == []


def test_tracer_installs_and_restores():
    spans = load_spans()
    originals = {
        (module, attr): getattr(importlib.import_module(f"cmpbayes.{module}"), attr)
        for module, attr, _, _ in spans.PATCHES
    }
    with spans.Tracer():
        pass
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(f"cmpbayes.{module}"), attr) is original
