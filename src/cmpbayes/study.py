"""Simulation study: bias, MSE, and coverage across dispersion regimes.

For every (setting, sample size, replicate) a dataset is simulated from the
true CMP parameters; each requested prior is then fit by MCMC and scored by
its posterior median (point estimate) and equal-tailed 95% interval
(coverage). Replicate-level records can be persisted as JSON lines so long
runs are resumable; results are bit-reproducible functions of the config,
including failure counts, regardless of worker count or resume history.

Stream layout: every task gets stream_id
    ((setting_idx * 64 + size_idx) * 2^20 + replicate) * 16 + slot
under the study's master seed, with slot 0 the dataset stream and slot
1 + prior_idx the fit stream. The MCMC layer appends the chain index.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import TruncationPolicy, DEFAULT_POLICY, CmpParams
from .errors import (
    AllDivergentError,
    ImproperPosteriorError,
    InvalidParamsError,
    TruncationError,
    ZeroVarianceError,
)
from .mcmc import McmcConfig, run_chains, summarize
from .posterior import sufficient_stats
from .priors import PRESET_NAMES, get_preset
from .rng import SeedSpec, sample_cmp

_REPLICATE_STRIDE = 2**20
_SLOT_STRIDE = 16


@dataclass(frozen=True)
class StudySetting:
    """One dispersion regime: a name and the true (lambda, nu)."""

    name: str
    lam: float
    nu: float


DEFAULT_SETTINGS = (
    StudySetting("equi", 4.0, 1.0),
    StudySetting("over", 3.0, 0.5),
    StudySetting("under", 3.0, 2.0),
)
DEFAULT_SIZES = (25, 75, 125)


@dataclass(frozen=True)
class StudyConfig:
    settings: tuple[StudySetting, ...] = DEFAULT_SETTINGS
    sample_sizes: tuple[int, ...] = DEFAULT_SIZES
    replicates: int = 100
    mcmc: McmcConfig = McmcConfig()
    priors: tuple[str, ...] = PRESET_NAMES
    master_seed: int = 0
    policy: TruncationPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidParamsError("replicates must be >= 1")
        if len(self.settings) > 64 or len(self.sample_sizes) > 64:
            raise InvalidParamsError("at most 64 settings and sample sizes")
        if self.replicates > _REPLICATE_STRIDE:
            raise InvalidParamsError(f"at most {_REPLICATE_STRIDE} replicates")
        if len(self.priors) + 1 > _SLOT_STRIDE:
            raise InvalidParamsError(f"at most {_SLOT_STRIDE - 1} priors")
        for name in self.priors:
            get_preset(name)  # fail fast on unknown preset names


@dataclass(frozen=True)
class CellResult:
    """Aggregated scores for one (setting, n, prior, parameter) cell.

    bias/mse/coverage are None when every replicate failed; failures are
    counted in n_failed, never silently dropped.
    """

    setting: str
    n: int
    prior: str
    parameter: str
    bias: Optional[float]
    mse: Optional[float]
    coverage: Optional[float]
    n_failed: int


def _stream_id(setting_idx: int, size_idx: int, replicate: int, slot: int) -> int:
    return ((setting_idx * 64 + size_idx) * _REPLICATE_STRIDE + replicate) * _SLOT_STRIDE + slot


def _record_key(setting: str, n: int, replicate: int, prior: str) -> tuple:
    return (setting, n, replicate, prior)


def _run_replicate(config: StudyConfig, setting_idx: int, size_idx: int,
                   replicate: int, priors: Sequence[str]) -> list[dict]:
    """Fit the listed priors on one simulated dataset; returns JSON records."""
    setting = config.settings[setting_idx]
    n = config.sample_sizes[size_idx]
    data_seed = SeedSpec(config.master_seed, _stream_id(setting_idx, size_idx, replicate, 0))
    data = sample_cmp(CmpParams(setting.lam, setting.nu), n, data_seed, config.policy)
    stats = sufficient_stats(data)

    records = []
    for prior_name in priors:
        prior_idx = config.priors.index(prior_name)
        fit_seed = SeedSpec(
            config.master_seed, _stream_id(setting_idx, size_idx, replicate, 1 + prior_idx)
        )
        rec = {
            "setting": setting.name,
            "n": n,
            "replicate": replicate,
            "prior": prior_name,
        }
        try:
            draws = run_chains(get_preset(prior_name), stats, config.mcmc, fit_seed,
                               config.policy)
            summary = summarize(draws)
        except (ImproperPosteriorError, AllDivergentError, ZeroVarianceError,
                TruncationError) as exc:
            rec["failed"] = True
            rec["reason"] = type(exc).__name__
        else:
            rec["failed"] = False
            for pname, ps in (("lambda", summary.lam), ("nu", summary.nu)):
                rec[pname] = {
                    "median": ps.median,
                    "cri_low": ps.cri_low,
                    "cri_high": ps.cri_high,
                }
        records.append(rec)
    return records


def _load_progress(path: Path) -> dict:
    """Records of a progress file, keyed by _record_key.

    An unparsable final line, torn by an interrupted run, is dropped with a
    warning and cut from the file so later records start on their own line;
    an unparsable line elsewhere raises json.JSONDecodeError.
    """
    done = {}
    if not path.exists():
        return done
    lines = path.read_bytes().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if any(rest.strip() for rest in lines[i + 1:]):
                raise
            warnings.warn(f"{path}: dropping torn final line {i + 1}")
            os.truncate(path, sum(len(kept) for kept in lines[:i]))
            return done
        done[_record_key(rec["setting"], rec["n"], rec["replicate"], rec["prior"])] = rec
    if lines and not lines[-1].endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")
    return done


def run_study(
    config: StudyConfig,
    progress_path: Optional[str] = None,
    workers: int = 1,
) -> list[CellResult]:
    """Run the full study and aggregate per-cell bias, MSE, and coverage.

    progress_path, when given, holds one JSON line per (setting, n,
    replicate, prior); existing records are reused, new ones appended, so an
    interrupted study resumes without recomputation. workers > 1 spreads
    replicates over processes; output is identical either way.
    """
    done = _load_progress(Path(progress_path)) if progress_path else {}

    tasks = []  # (setting_idx, size_idx, replicate, missing prior names)
    for si in range(len(config.settings)):
        for ni in range(len(config.sample_sizes)):
            for r in range(config.replicates):
                missing = [
                    p for p in config.priors
                    if _record_key(config.settings[si].name, config.sample_sizes[ni], r, p)
                    not in done
                ]
                if missing:
                    tasks.append((si, ni, r, missing))

    if tasks:
        new_records = []
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_replicate, config, si, ni, r, missing)
                    for si, ni, r, missing in tasks
                ]
                for fut in futures:
                    new_records.extend(fut.result())
        else:
            for si, ni, r, missing in tasks:
                new_records.extend(_run_replicate(config, si, ni, r, missing))
        for rec in new_records:
            done[_record_key(rec["setting"], rec["n"], rec["replicate"], rec["prior"])] = rec
        if progress_path:
            with Path(progress_path).open("a") as fh:
                for rec in new_records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")

    return _aggregate(config, done)


def _aggregate(config: StudyConfig, done: dict) -> list[CellResult]:
    results = []
    for setting in config.settings:
        for n in config.sample_sizes:
            for prior in config.priors:
                recs = [
                    done[_record_key(setting.name, n, r, prior)]
                    for r in range(config.replicates)
                ]
                failed = sum(1 for rec in recs if rec["failed"])
                for pname, truth in (("lambda", setting.lam), ("nu", setting.nu)):
                    ok = [rec[pname] for rec in recs if not rec["failed"]]
                    if ok:
                        est = np.array([o["median"] for o in ok])
                        lo = np.array([o["cri_low"] for o in ok])
                        hi = np.array([o["cri_high"] for o in ok])
                        bias = float((est - truth).mean())
                        mse = float(((est - truth) ** 2).mean())
                        coverage = float(((lo <= truth) & (truth <= hi)).mean())
                    else:
                        bias = mse = coverage = None
                    results.append(CellResult(
                        setting=setting.name, n=n, prior=prior, parameter=pname,
                        bias=bias, mse=mse, coverage=coverage, n_failed=failed,
                    ))
    return results


def _sorted_results(results: Sequence[CellResult]) -> list[CellResult]:
    return sorted(results, key=lambda r: (r.setting, r.parameter, r.n, r.prior))


def render_tables(results: Sequence[CellResult], fmt: str = "text") -> str:
    """Render cell results deterministically ordered by (setting, parameter, n, prior).

    csv and json round-trip through parse_tables; text mirrors the study's
    row-per-(setting, parameter, n), column-per-prior layout with one block
    per metric. An all-failed cell renders as an em-dash plus its failure
    count.
    """
    if not results:
        raise InvalidParamsError("no results to render")
    rows = _sorted_results(results)
    if fmt == "csv":
        lines = ["setting,parameter,n,prior,bias,mse,coverage,n_failed"]
        for r in rows:
            vals = ["" if v is None else repr(v) for v in (r.bias, r.mse, r.coverage)]
            lines.append(f"{r.setting},{r.parameter},{r.n},{r.prior},"
                         f"{vals[0]},{vals[1]},{vals[2]},{r.n_failed}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return _render_text(rows)
    raise InvalidParamsError(f"unknown format {fmt!r}; use csv, json, or text")


def _render_text(rows: list[CellResult]) -> str:
    priors = sorted({r.prior for r in rows})
    keys = sorted({(r.setting, r.parameter, r.n) for r in rows},
                  key=lambda k: (k[0], k[1], k[2]))
    by_cell = {(r.setting, r.parameter, r.n, r.prior): r for r in rows}
    width = max(12, max(len(p) for p in priors) + 2)

    def cell_text(r: Optional[CellResult], metric: str) -> str:
        if r is None:
            return ""
        value = getattr(r, metric)
        if value is None:
            return f"— ({r.n_failed} failed)"
        return f"{value:.3f}" + (f" [{r.n_failed}f]" if r.n_failed else "")

    blocks = []
    for metric in ("bias", "mse", "coverage"):
        lines = [metric.upper()]
        header = f"{'setting':<10}{'param':<8}{'n':>5}  " + "".join(
            f"{p:>{width}}" for p in priors
        )
        lines.append(header)
        lines.append("-" * len(header))
        for setting, parameter, n in keys:
            row = f"{setting:<10}{parameter:<8}{n:>5}  "
            row += "".join(
                f"{cell_text(by_cell.get((setting, parameter, n, p)), metric):>{width}}"
                for p in priors
            )
            lines.append(row)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_tables(text: str, fmt: str = "csv") -> list[CellResult]:
    """Inverse of render_tables for the machine formats (csv, json)."""
    results = []
    if fmt == "csv":
        lines = [ln for ln in text.strip().splitlines() if ln]
        for line in lines[1:]:
            setting, parameter, n, prior, bias, mse, coverage, n_failed = line.split(",")
            results.append(CellResult(
                setting=setting, parameter=parameter, n=int(n), prior=prior,
                bias=None if bias == "" else float(bias),
                mse=None if mse == "" else float(mse),
                coverage=None if coverage == "" else float(coverage),
                n_failed=int(n_failed),
            ))
        return results
    if fmt == "json":
        return [CellResult(**rec) for rec in json.loads(text)]
    raise InvalidParamsError(f"cannot parse format {fmt!r}")


OVERRIDE_KEYS = ("settings", "sizes", "replicates", "priors", "seed",
                 "chains", "warmup", "keep", "trunc_terms", "tail_tol")


def with_overrides(config: StudyConfig, values: Mapping[str, object]) -> StudyConfig:
    """config with the overrides in values: OVERRIDE_KEYS to strings or numbers.

    MCMC and truncation keys replace single fields of config.mcmc and config.policy.
    """
    def items(key):
        return [item.strip() for item in str(values[key]).split(",")]

    def fields(keys):  # {key: (field, type)} -> {field: value} for the keys given
        return {field: kind(values[key]) for key, (field, kind) in keys.items() if key in values}

    changes = fields({"replicates": ("replicates", int), "seed": ("master_seed", int)})
    if "settings" in values:
        triples = [item.split(":") for item in items("settings")]
        changes["settings"] = tuple(StudySetting(name.strip(), float(lam), float(nu))
                                    for name, lam, nu in triples)
    if "sizes" in values:
        changes["sample_sizes"] = tuple(int(v) for v in items("sizes"))
    if "priors" in values:
        changes["priors"] = tuple(items("priors"))
    mcmc = fields({key: (key, int) for key in ("chains", "warmup", "keep")})
    if mcmc:
        changes["mcmc"] = replace(config.mcmc, **mcmc)
    policy = fields({"trunc_terms": ("base_terms", int), "tail_tol": ("tail_tol", float)})
    if policy:
        changes["policy"] = replace(config.policy, **policy)
    return replace(config, **changes)


def load_study_config(path: str) -> StudyConfig:
    """Read a StudyConfig from a plain key-value file.

    Recognized keys (one `key = value` per line, '#' comments):
      settings    comma list of name:lambda:nu triples
      sizes       comma list of integers
      replicates  integer
      priors      comma list of preset names
      seed        integer
      chains/warmup/keep  MCMC overrides
      trunc_terms/tail_tol  truncation overrides
    """
    values = {}
    for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"{path}:{i}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return with_overrides(StudyConfig(), values)
