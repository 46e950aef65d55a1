"""The benchmark's tracer patches package functions by name; they must exist."""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

from cmpbayes.core import CmpParams, log_normalizer
from cmpbayes.mcmc import McmcConfig, run_chains

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


def test_run_chains_config_is_argument_2():
    # Tracer._count_steps reads config as args[2] and its chains, warmup, keep
    assert list(inspect.signature(run_chains).parameters)[2] == "config"
    assert {"chains", "warmup", "keep"} <= {f.name for f in fields(McmcConfig)}
    tracer = load_spans().Tracer()
    tracer._count_steps((None, None, McmcConfig(chains=3, warmup=5, keep=100)), {}, None)
    assert tracer.steps == 3 * 105


def test_log_normalizer_params_is_argument_0():
    # Tracer._sample_k reads params as args[0] and sizes its series grid
    assert list(inspect.signature(log_normalizer).parameters)[0] == "params"
    spans = load_spans()
    tracer = spans.Tracer()
    tracer._ln_calls = spans.K_SAMPLE_EVERY - 1
    tracer._sample_k((CmpParams(3.0, 0.5),), {})
    assert tracer.k_samples and tracer.k_samples[0] >= tracer.k_base[0]
