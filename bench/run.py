"""cmpbayes benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fit-matrix --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists and what it should move):
  fit-matrix   4 bundled datasets x {conj-1, flat, jeffreys}, McmcConfig()
  study-cell   `cmpbayes study` on 2 settings x 2 sizes x 2 replicates x 6 priors
  long-series  n = 2000 counts from CMP(30, 0.7), 3 priors, warmup 8000
  paper-grid   opt-in, not gated: the paper's 5 400-fit study, one pass

--trace 0 repeats the workload until --seconds are used and reports the
end-to-end metrics. --trace 1 runs one untraced and one traced pass (whatever
--seconds is) and reports the per-layer metrics. Either way the last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the full
result, with provenance and the deterministic counters, goes to
.bench_out/<workload>-seed<seed>-trace<t>.json. The package is imported from
src/ of this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

try:
    import cmpbayes
except ImportError as exc:
    sys.exit(f"error: cannot import cmpbayes from {SRC}: {exc}")
if Path(cmpbayes.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"error: cmpbayes was imported from {cmpbayes.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from cmpbayes import cli, datasets, study  # noqa: E402
from cmpbayes.errors import CmpError  # noqa: E402
from cmpbayes.mcmc import McmcConfig  # noqa: E402
from cmpbayes.priors import PRESET_NAMES, get_preset  # noqa: E402
from cmpbayes.rng import SeedSpec  # noqa: E402

import inputs  # noqa: E402
from diagnostics import ess_bulk  # noqa: E402
from hostspeed import HostSampler, PoolClock  # noqa: E402
from spans import Tracer, layer_counters, layer_timings  # noqa: E402

WORKLOADS = ("fit-matrix", "study-cell", "long-series")
RHAT_LIMIT = 1.1  # a fit whose split R-hat (lambda or nu) exceeds this is unconverged
SETUP_PROBES = (4, 3)  # set-up probes before and after the timed passes
MIN_PASSES = 2  # timed passes per untraced run, so a median has company

END_TO_END = {"setup_s": "s", "fits_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.log_normalizer.calls": "count",
    "core.log_normalizer.us": "us",
    "core.moments.calls": "count",
    "core.moments.us": "us",
    "core.series_evals_per_target": "ratio",
    "core.series_K_mean": "terms",
    "core.series_grow_frac": "ratio",
    "priors.log_prior_density.conj.us": "us",
    "priors.log_prior_density.flat.us": "us",
    "priors.log_prior_density.jeffreys.us": "us",
    "posterior.log_posterior.calls": "count",
    "posterior.log_posterior.us": "us",
    "posterior.sufficient_stats.ms": "ms",
    "mcmc.step_us": "us",
    "mcmc.self_frac": "ratio",
    "mcmc.run_chains.conj.s": "s",
    "mcmc.run_chains.flat.s": "s",
    "mcmc.run_chains.jeffreys.s": "s",
    "mcmc.summarize.ms": "ms",
    "mcmc.divergent_frac": "ratio",
    "mcmc.accept_rate": "ratio",
    "mcmc.ess_bulk_min": "count",
    "mcmc.ess_per_s": "1/s",
    "mcmc.rhat_max": "ratio",
    "rng.sample_cmp.calls": "count",
    "rng.sample_cmp.us": "us",
    "study.overhead_s": "s",
    "study.parallel_eff": "ratio",
    "study.progress_bytes": "bytes",
    "study.render_tables.ms": "ms",
    "datasets.resolve_dataset.ms": "ms",
    "cli.import_s": "s",
    "cli.to_json.ms": "ms",
    "fits.fail_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Fit:
    """One fit as the benchmark saw it: time, output and draws, or the error."""

    dataset: str
    prior: str
    seconds: float  # at reference host speed
    wall: float
    report: Optional[str] = None  # FitReport.to_json()
    draws: object = None
    error: Optional[str] = None


class Run:
    """Everything one invocation measures, checks and counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.counters: dict = {}
        self.timings: dict = {}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


# ------------------------------------------------------------------ set-up


def measure_setup(workload: str, seed: int, tmp: Path, probes: int, run: Run) -> None:
    """Time fresh interpreters that import cmpbayes.cli and load the inputs.

    Wall clock, not rescaled: interpreter start-up is not the single-threaded
    Python work whose host slowdown hostspeed.py measures. Probes before and
    after the passes spread the samples over the run; the metrics are the
    medians of all of them.
    """
    walls = run.timings.setdefault("setup_s", [])
    imports = run.timings.setdefault("cli_import_s", [])
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(tmp)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    run.metrics["setup_s"] = statistics.median(walls)
    run.metrics["cli.import_s"] = statistics.median(imports)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ------------------------------------------------------------- fit workloads


def load_fit_inputs(workload: str, seed: int, tmp: Path):
    if workload == "fit-matrix":
        loaded = [datasets.resolve_dataset(name) for name in inputs.FIT_DATASETS]
        return loaded, McmcConfig()
    path = inputs.write_long_series(seed, tmp)
    return [datasets.resolve_dataset(str(path))], McmcConfig(warmup=inputs.LONG_WARMUP)


def fit_pass(loaded, config: McmcConfig, seed: int, host: HostSampler) -> list[Fit]:
    """One `cmpbayes fit --format json` per dataset and prior, in order."""
    fits = []
    for dataset in loaded:
        for prior in inputs.FIT_PRIORS:
            t0 = time.perf_counter()
            try:
                report, draws = cli.fit_command(
                    dataset, prior, get_preset(prior), config, SeedSpec(seed))
                text, error = report.to_json(), None
            except CmpError as exc:
                text, draws, error = None, None, type(exc).__name__
            t1 = time.perf_counter()
            fits.append(Fit(dataset.name, prior, (t1 - t0) / host.slowdown(t0, t1), t1 - t0,
                            text, draws, error))
    return fits


def fit_gates(workload: str, fits: list[Fit], run: Run) -> None:
    reports = {(f.dataset, f.prior): json.loads(f.report) for f in fits if f.report}
    if workload == "fit-matrix":
        # criterion-7 bands for the conj-1 medians
        bands = (
            ("textile-faults", "lambda", 1.144, 2.409),
            ("textile-faults", "nu", 0.103, 0.421),
            ("crab-satellites", "nu", -np.inf, 0.11),
            ("slovak-poem", "nu", 2.4, 4.3),
            ("hungarian-words", "nu", 3.0, 3.1),
        )
        for name, param, lo, hi in bands:
            rep = reports.get((name, "conj-1"))
            median = rep[param]["median"] if rep else None
            run.check(median is not None and lo < median < hi,
                      f"{name} conj-1 {param} median {median} outside ({lo}, {hi})")
        return
    for prior in ("flat", "jeffreys"):
        rep = reports.get((Path(inputs.LONG_FILE).stem, prior))
        for param, truth in (("lambda", inputs.LONG_LAM), ("nu", inputs.LONG_NU)):
            ok = rep is not None and rep[param]["cri_low"] <= truth <= rep[param]["cri_high"]
            run.check(ok, f"long-series {prior} 95% CrI of {param} misses {truth}")


def fit_diagnostics(pairs) -> dict:
    """Deterministic counters from (Draws, rhat) pairs of completed fits."""
    ess = [min(ess_bulk(d.lam), ess_bulk(d.nu)) for d, _ in pairs]
    kept = sum(d.n_kept for d, _ in pairs)
    return {
        "fits": len(pairs),
        "ess_bulk_min_per_fit": ess,
        "rhat_per_fit": [r for _, r in pairs],
        "divergences": int(sum(int(d.divergences.sum()) for d, _ in pairs)),
        "accepts": int(round(sum(float(d.accept_rate.sum()) * d.lam.shape[1]
                                 for d, _ in pairs))),
        "kept": int(kept),
        "unconverged": sum(r > RHAT_LIMIT for _, r in pairs),
    }


def diagnostics_metrics(diag: dict, wall_s: float, errors: int, attempted: int) -> dict:
    """Sampler quality; a fit fails (fits.fail_ratio) if it raised or is unconverged."""
    n = diag["fits"]
    chain_draws = diag["kept"]
    return {
        "mcmc.divergent_frac": diag["divergences"] / chain_draws if chain_draws else 0.0,
        "mcmc.accept_rate": diag["accepts"] / chain_draws if chain_draws else 0.0,
        "mcmc.ess_bulk_min": min(diag["ess_bulk_min_per_fit"]) if n else 0.0,
        "mcmc.ess_per_s": sum(diag["ess_bulk_min_per_fit"]) / wall_s,
        "mcmc.rhat_max": max(diag["rhat_per_fit"]) if n else 0.0,
        "fits.fail_ratio": (errors + diag["unconverged"]) / attempted,
    }


def _rhat(report_json: str) -> float:
    rep = json.loads(report_json)
    return max(rep["lambda"]["rhat"], rep["nu"]["rhat"])


def count_fits(fits: list[Fit], run: Run) -> int:
    """Add a pass to attempted/failed; return its fits that raised."""
    failed = sum(f.error is not None for f in fits)
    run.attempted += len(fits)
    run.failed += failed
    return failed


def run_fit_workload(workload: str, seed: int, seconds: int, trace: bool,
                     tmp: Path, run: Run) -> str:
    loaded, config = load_fit_inputs(workload, seed, tmp)
    inputs_sha = inputs.sha256_of(*(d.name.encode() + d.counts.tobytes() for d in loaded))

    if not trace:
        passes = []
        start = time.perf_counter()
        with HostSampler() as host:
            while True:
                passes.append(fit_pass(loaded, config, seed, host))
                if len(passes) > 1:
                    for f in passes[-1]:
                        f.draws = None  # the first pass's draws serve every pass
                if not more_passes(passes, start, seconds):
                    break
        first = passes[0]
        for fits in passes:
            count_fits(fits, run)
            run.check([f.report for f in fits] == [f.report for f in first],
                      "fit output differs between passes with one seed")
        per_fit = [statistics.median(p[i].seconds for p in passes) for i in range(len(first))]
        run.timings["host_kernel_s"] = statistics.quantiles(
            [cpu for _, cpu in host.samples], n=10)
        run.metrics["fits_per_s"] = len(first) / sum(per_fit)
        run.timings["fit_s"] = [[f.seconds for f in p] for p in passes]
        run.timings["fit_wall_s"] = [[f.wall for f in p] for p in passes]
        run.counters.update(
            fit_diagnostics([(f.draws, _rhat(f.report)) for f in first if f.report]))
    else:
        # both passes load their inputs, so the traced one sees resolve_dataset
        with HostSampler() as host:
            first = fit_pass(*load_fit_inputs(workload, seed, tmp), seed, host)
            with Tracer() as tr:
                traced = fit_pass(*load_fit_inputs(workload, seed, tmp), seed, host)
        untraced_s = sum(f.seconds for f in first)
        traced_s = sum(f.seconds for f in traced)
        count_fits(first, run)
        errors = count_fits(traced, run)
        run.check([f.report for f in traced] == [f.report for f in first],
                  "tracing changed the fit output")
        diag = fit_diagnostics([(f.draws, _rhat(f.report)) for f in first if f.report])
        run.metrics.update(layer_timings(tr))
        run.metrics.update(layer_counters(tr))
        run.metrics.update(diagnostics_metrics(diag, untraced_s, errors, len(traced)))
        run.metrics.update(trace_overhead(untraced_s, traced_s))
        run.counters.update(diag)
        run.counters.update(layer_counters(tr))
        run.timings.update({"untraced_s": untraced_s, "traced_s": traced_s,
                            "spans": tr.spans})

    fit_gates(workload, first, run)
    run.counters["errors"] = [f"{f.dataset}/{f.prior}: {f.error}" for f in first if f.error]
    run.counters["outputs_sha256"] = inputs.sha256_of(
        *(f.report.encode() for f in first if f.report))
    return inputs_sha


def more_passes(passes: list, start: float, seconds: int) -> bool:
    """At least MIN_PASSES; then another only if it should end within --seconds."""
    elapsed = time.perf_counter() - start
    return len(passes) < MIN_PASSES or elapsed * (len(passes) + 1) / len(passes) <= seconds


def trace_overhead(untraced_s: float, traced_s: float) -> dict:
    return {
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }


# ----------------------------------------------------------- study workload


@dataclass
class StudyPass:
    seconds: float  # at reference host speed
    wall: float
    csv: str
    progress_bytes: int
    fit_wall: float = 0.0  # summed over fits, in the pool workers


def _study(argv: list[str], tmp: Path, run: Run) -> tuple[float, str, int]:
    """Run `cmpbayes study`; (wall seconds, CSV, progress bytes), files removed."""
    progress, out = tmp / "progress.jsonl", tmp / "tables.csv"
    t0 = time.perf_counter()
    code = cli.main([*argv, "--progress", str(progress), "--out", str(out)])
    wall = time.perf_counter() - t0
    run.check(code == 0, f"cmpbayes study exited with {code}")
    done = (wall, out.read_text() if out.exists() else "",
            progress.stat().st_size if progress.exists() else 0)
    for path in (progress, out):
        path.unlink(missing_ok=True)
    return done


def study_pass(seed: int, workers: int, tmp: Path, run: Run,
               paper_grid: bool = False) -> StudyPass:
    """One `cmpbayes study ... --format csv` with a fresh progress file.

    The workers time the host-speed kernel around each fit (PoolClock), and
    the pass time is rescaled by the slowdown they saw.
    """
    with PoolClock(study, "run_chains", tmp) as pool:
        wall, csv, size = _study(inputs.study_argv(seed, workers, paper_grid), tmp, run)
    fit_wall, slowdown = pool.collect()
    return StudyPass(wall / slowdown, wall, csv, size, fit_wall)


def study_pass_in_process(seed: int, tmp: Path, run: Run, host: HostSampler) -> StudyPass:
    """The study at --workers 1, rescaled like an in-process fit (HostSampler)."""
    t0 = time.perf_counter()
    wall, csv, size = _study(inputs.study_argv(seed, 1), tmp, run)
    return StudyPass(wall / host.slowdown(t0, t0 + wall), wall, csv, size)


def study_gates(csv: str, expected_rows: int, run: Run) -> int:
    """Round-trip the tables through parse_tables; return the failed fits."""
    rows = study.parse_tables(csv, "csv")
    run.check(len(rows) == expected_rows,
              f"study table has {len(rows)} cell rows, expected {expected_rows}")
    run.check(len({(r.setting, r.parameter, r.n, r.prior) for r in rows}) == len(rows),
              "study table repeats a cell")
    run.check(study.render_tables(rows, "csv") == csv,
              "study CSV does not round-trip through parse_tables")
    return sum(r.n_failed for r in rows if r.parameter == "lambda")


def run_study_workload(seed: int, seconds: int, trace: bool, tmp: Path, run: Run,
                       paper_grid: bool = False) -> str:
    n_settings = 3 if paper_grid else inputs.STUDY_SETTINGS.count(",") + 1
    n_sizes = 3 if paper_grid else inputs.STUDY_SIZES.count(",") + 1
    replicates = 100 if paper_grid else inputs.STUDY_REPLICATES
    cells = n_settings * n_sizes * len(PRESET_NAMES)
    fits_per_pass = cells * replicates
    inputs_sha = inputs.sha256_of(
        " ".join(inputs.study_argv(seed, 0, paper_grid)).encode())

    def account(done: StudyPass) -> int:
        failed = study_gates(done.csv, 2 * cells, run)
        run.attempted += fits_per_pass
        run.failed += failed
        return failed

    if paper_grid:
        done = study_pass(seed, os.cpu_count() or 1, tmp, run, paper_grid=True)
        account(done)
        run.metrics["fits_per_s"] = fits_per_pass / done.seconds
        run.timings["study_s"] = [done.seconds]
        run.timings["study_wall_s"] = [done.wall]
        run.counters["outputs_sha256"] = inputs.sha256_of(done.csv.encode())
        return inputs_sha

    if not trace:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(study_pass(seed, inputs.STUDY_WORKERS, tmp, run))
            if not more_passes(passes, start, seconds):
                break
        for done in passes:
            account(done)
            run.check(done.csv == passes[0].csv, "study tables differ between passes")
        run.metrics["fits_per_s"] = fits_per_pass / statistics.median(
            p.seconds for p in passes)
        run.timings["study_s"] = [p.seconds for p in passes]
        run.timings["study_wall_s"] = [p.wall for p in passes]
        first = passes[0]
    else:
        first = study_pass(seed, inputs.STUDY_WORKERS, tmp, run)
        with HostSampler() as host:
            serial = study_pass_in_process(seed, tmp, run, host)
            with Tracer() as tr:
                traced = study_pass_in_process(seed, tmp, run, host)
        run.check(serial.csv == first.csv,
                  f"study tables differ between --workers 1 and {inputs.STUDY_WORKERS}")
        run.check(traced.csv == first.csv,
                  "study tables of the traced --workers 1 run differ")
        account(first)
        account(serial)
        pairs = [(d, max(s.lam.rhat, s.nu.rhat)) for d, s in tr.fits]
        diag = fit_diagnostics(pairs)
        errors = account(traced)
        run.metrics.update(layer_timings(tr))
        run.metrics.update(layer_counters(tr))
        run.metrics.update(diagnostics_metrics(diag, first.seconds, errors, fits_per_pass))
        run.metrics.update(trace_overhead(serial.seconds, traced.seconds))
        run.metrics["study.parallel_eff"] = first.fit_wall / (
            inputs.STUDY_WORKERS * first.wall)
        run.metrics["study.progress_bytes"] = traced.progress_bytes
        run.counters.update(diag)
        run.counters.update(layer_counters(tr))
        run.timings.update({
            "workers2_s": first.seconds, "workers1_s": serial.seconds,
            "traced_workers1_s": traced.seconds, "workers2_wall_s": first.wall,
            "workers1_wall_s": serial.wall, "traced_workers1_wall_s": traced.wall,
            "spans": tr.spans,
        })
    run.counters["progress_bytes"] = first.progress_bytes
    run.counters["outputs_sha256"] = inputs.sha256_of(first.csv.encode())
    return inputs_sha


# --------------------------------------------------------------- provenance


def provenance(workload: str, seed: int, inputs_sha: str) -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        git_rev = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        git_rev = None
    sources = sorted((SRC / "cmpbayes").rglob("*"))
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_sha,
        "git_rev": git_rev,
        "src_sha256": inputs.sha256_of(
            *(p.relative_to(SRC).as_posix().encode() + p.read_bytes()
              for p in sources if p.is_file() and "__pycache__" not in p.parts)),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "paper-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    trace = bool(args.trace) and args.workload != "paper-grid"

    run = Run()
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "paper-grid":
            measure_setup(args.workload, args.seed, tmp, SETUP_PROBES[0], run)
        if args.workload in ("fit-matrix", "long-series"):
            inputs_sha = run_fit_workload(args.workload, args.seed, args.seconds, trace,
                                          tmp, run)
        else:
            inputs_sha = run_study_workload(args.seed, args.seconds, trace, tmp, run,
                                            paper_grid=args.workload == "paper-grid")
        if args.workload != "paper-grid":
            measure_setup(args.workload, args.seed, tmp, SETUP_PROBES[1], run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.metrics["peak_rss_mb"] = peak_rss_mb()

    # a layer that does not run on this workload reads 0
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(run.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in units.items() if trace or name in run.metrics}
    record = {
        "provenance": provenance(args.workload, args.seed, inputs_sha),
        "trace": trace,
        "seconds": args.seconds,
        "rhat_limit": RHAT_LIMIT,
        "correct": not run.problems,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "counters": run.counters,
        "counters_sha256": inputs.sha256_of(
            json.dumps(run.counters, sort_keys=True).encode()),
        "timings": run.timings,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"counters_sha256 {record['counters_sha256']} (full record: {out_file.relative_to(ROOT)})")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']!r} {m['unit']}")
    for problem in run.problems:
        print(f"GATE FAILED: {problem}")
    print(json.dumps({"correct": record["correct"], "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
