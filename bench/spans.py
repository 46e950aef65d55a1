"""Per-layer spans recorded from outside the package.

Tracer.install() replaces each public function of a cmpbayes module with a
timing wrapper, under every name its callers look it up by (`from .core
import log_normalizer` in priors.py binds a second name, so both
cmpbayes.core.log_normalizer and cmpbayes.priors.log_normalizer are
patched). remove() puts the originals back. Spans are aggregated in memory
per name as (calls, total seconds, seconds inside child spans), so a layer's
self time is total minus child time; storing one record per call would keep
millions of spans per run.

Spans inside pool workers are not collected, so traced studies run with
--workers 1.
"""

from __future__ import annotations

import importlib
import time

from cmpbayes import cli, core
from cmpbayes.mcmc import McmcConfig

# (module whose global the caller reads, attribute, span name, kind argument)
# The kind argument is the index of the PriorSpec argument whose type splits
# the span per prior kind; None for no split.
PATCHES = (
    ("core", "log_normalizer", "core.log_normalizer", None),
    ("priors", "log_normalizer", "core.log_normalizer", None),
    ("core", "moments", "core.moments", None),
    ("core", "logz_hessian", "core.logz_hessian", None),
    ("priors", "logz_hessian", "core.logz_hessian", None),
    ("posterior", "log_likelihood", "core.log_likelihood", None),
    ("rng", "pmf_table", "core.pmf_table", None),
    ("cli", "pmf_table", "core.pmf_table", None),
    ("posterior", "log_prior_density", "priors.log_prior_density", 0),
    ("priors", "jeffreys_information_det", "priors.jeffreys_information_det", None),
    ("posterior", "conjugate_propriety", "priors.conjugate_propriety", None),
    ("mcmc", "conjugate_propriety", "priors.conjugate_propriety", None),
    ("cli", "get_preset", "priors.get_preset", None),
    ("study", "get_preset", "priors.get_preset", None),
    ("mcmc", "log_posterior", "posterior.log_posterior", None),
    ("mcmc", "flat_posterior_propriety", "posterior.flat_posterior_propriety", None),
    ("mcmc", "updated_hyper", "posterior.updated_hyper", None),
    ("cli", "sufficient_stats", "posterior.sufficient_stats", None),
    ("study", "sufficient_stats", "posterior.sufficient_stats", None),
    ("mcmc", "make_generator", "rng.make_generator", None),
    ("rng", "make_generator", "rng.make_generator", None),
    ("cli", "sample_cmp", "rng.sample_cmp", None),
    ("study", "sample_cmp", "rng.sample_cmp", None),
    ("cli", "run_chains", "mcmc.run_chains", 0),
    ("study", "run_chains", "mcmc.run_chains", 0),
    ("cli", "summarize", "mcmc.summarize", None),
    ("study", "summarize", "mcmc.summarize", None),
    ("cli", "run_study", "study.run_study", None),
    ("cli", "render_tables", "study.render_tables", None),
    ("study", "parse_tables", "study.parse_tables", None),
    ("cli", "resolve_dataset", "datasets.resolve_dataset", None),
    ("datasets", "resolve_dataset", "datasets.resolve_dataset", None),
    ("cli", "fit_command", "cli.fit_command", None),
    ("cli", "main", "cli.main", None),
)

_KINDS = {"Conjugate": "conj", "Flat": "flat", "Jeffreys": "jeffreys"}

# Every K_SAMPLE_EVERY-th log_normalizer call also measures the final grid
# size K as pmf_table(...).size, outside the log_normalizer span.
K_SAMPLE_EVERY = 256


class Tracer:
    """Aggregated spans plus the fits that mcmc.summarize saw."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.fits: list = []  # (Draws, PosteriorSummary) in call order
        self.steps = 0  # Metropolis steps of completed run_chains calls
        self.k_samples: list[int] = []
        self.k_base: list[int] = []
        self._open: list[float] = []
        self._saved: list = []
        self._ln_calls = 0

    def span(self, name: str) -> list:
        return self.spans.get(name, [0, 0.0, 0.0])

    def _wrap(self, name, fn, kind_arg=None, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        kind_labels = {cls: f"{name}.{kind}" for cls, kind in _KINDS.items()}

        def wrapper(*args, **kwargs):
            label = name
            if kind_arg is not None:
                label = kind_labels[type(args[kind_arg]).__name__]
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_.pop()
                rec = spans.get(label)
                if rec is None:
                    rec = spans[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += child
                if open_:
                    open_[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        hooks = {
            "core.log_normalizer": lambda a, kw, r: self._sample_k(a, kw),
            "mcmc.run_chains": self._count_steps,
            "mcmc.summarize": lambda a, kw, r: self.fits.append((a[0], r)),
        }
        for module_name, attr, name, kind_arg in PATCHES:
            module = importlib.import_module(f"cmpbayes.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, kind_arg, hooks.get(name)))
        original = cli.FitReport.to_json
        self._saved.append((cli.FitReport, "to_json", original))
        cli.FitReport.to_json = self._wrap("cli.to_json", original)
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _sample_k(self, args, kwargs) -> None:
        # core.pmf_table itself is not patched; only the names rng and cli bind are
        self._ln_calls += 1
        if self._ln_calls % K_SAMPLE_EVERY:
            return
        params = args[0]
        policy = args[1] if len(args) > 1 else kwargs.get("policy", core.DEFAULT_POLICY)
        self.k_samples.append(int(core.pmf_table(params, policy).size))
        self.k_base.append(policy.base_terms)

    def _count_steps(self, args, kwargs, result) -> None:
        config = args[2] if len(args) > 2 else kwargs.get("config", McmcConfig())
        self.steps += config.chains * (config.warmup + config.keep)


def layer_timings(tr: Tracer) -> dict[str, float]:
    """Per-layer times from the spans; 0 where a layer did not run."""

    def per_call(name, scale):
        calls, total, _ = tr.span(name)
        return total / calls * scale if calls else 0.0

    def self_per_call(name, scale):
        calls, total, child = tr.span(name)
        return (total - child) / calls * scale if calls else 0.0

    run_chains_total = sum(tr.span(f"mcmc.run_chains.{k}")[1] for k in _KINDS.values())
    run_chains_child = sum(tr.span(f"mcmc.run_chains.{k}")[2] for k in _KINDS.values())
    out = {
        "core.log_normalizer.us": per_call("core.log_normalizer", 1e6),
        "core.moments.us": per_call("core.moments", 1e6),
        "posterior.log_posterior.us": per_call("posterior.log_posterior", 1e6),
        "posterior.sufficient_stats.ms": per_call("posterior.sufficient_stats", 1e3),
        "mcmc.step_us": run_chains_total / tr.steps * 1e6 if tr.steps else 0.0,
        "mcmc.self_frac": (
            (run_chains_total - run_chains_child) / run_chains_total
            if run_chains_total else 0.0
        ),
        "mcmc.summarize.ms": per_call("mcmc.summarize", 1e3),
        "rng.sample_cmp.us": per_call("rng.sample_cmp", 1e6),
        "study.render_tables.ms": per_call("study.render_tables", 1e3),
        "datasets.resolve_dataset.ms": per_call("datasets.resolve_dataset", 1e3),
        "cli.to_json.ms": per_call("cli.to_json", 1e3),
    }
    for kind in _KINDS.values():
        out[f"priors.log_prior_density.{kind}.us"] = self_per_call(
            f"priors.log_prior_density.{kind}", 1e6)
        out[f"mcmc.run_chains.{kind}.s"] = per_call(f"mcmc.run_chains.{kind}", 1.0)
    run_study = tr.span("study.run_study")
    out["study.overhead_s"] = (
        run_study[1] - run_chains_total - tr.span("mcmc.summarize")[1]
        if run_study[0] else 0.0
    )
    return out


def layer_counters(tr: Tracer) -> dict[str, float]:
    """Work counts from the spans; these repeat exactly for one seed."""
    log_posterior_calls = tr.span("posterior.log_posterior")[0]
    series_calls = tr.span("core.log_normalizer")[0] + tr.span("core.moments")[0]
    n_k = len(tr.k_samples)
    return {
        "core.log_normalizer.calls": tr.span("core.log_normalizer")[0],
        "core.moments.calls": tr.span("core.moments")[0],
        "core.series_evals_per_target": (
            series_calls / log_posterior_calls if log_posterior_calls else 0.0
        ),
        "core.series_K_mean": sum(tr.k_samples) / n_k if n_k else 0.0,
        "core.series_grow_frac": (
            sum(k > b for k, b in zip(tr.k_samples, tr.k_base)) / n_k if n_k else 0.0
        ),
        "posterior.log_posterior.calls": log_posterior_calls,
        "rng.sample_cmp.calls": tr.span("rng.sample_cmp")[0],
        "mcmc.steps": tr.steps,
    }
