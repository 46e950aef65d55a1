"""Simulation study: bias, MSE, and coverage across dispersion regimes.

For every (setting, sample size, replicate) a dataset is simulated from the
true CMP parameters; each requested prior is then fit by MCMC and scored by
its posterior median (point estimate) and equal-tailed 95% interval
(coverage). Each replicate's records can be appended to a JSON-lines file as
it ends, so long runs are resumable. A fit's record is its key (setting, n,
replicate, prior), what made it (made_by) and whether it failed; a fit that
ended holds mcmc.fit_record's dict too, the `fit` report's results and
diagnostics, and a failed one the exception's class name (reason) and message.
A resume refuses records made under another config, draw scheme
(mcmc.DRAW_SCHEME) or record shape (mcmc.RECORD_VERSION). Results are
bit-reproducible functions of the config, including failure counts, regardless
of worker count or resume history.

Stream layout: every task gets stream_id
    ((setting_idx * 64 + size_idx) * 2^20 + replicate) * 16 + slot
under the study's master seed, with slot 0 the dataset stream and slot
1 + prior_idx the fit stream. The MCMC layer appends the chain index.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import TruncationPolicy, DEFAULT_POLICY, CmpParams, log_normalizer
from .errors import (AllDivergentError, ImproperPosteriorError, InvalidParamsError,
                     ZeroVarianceError)
from .mcmc import DRAW_SCHEME, RECORD_VERSION, McmcConfig, fit_record, run_chains, summarize
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

    def __post_init__(self):
        CmpParams(self.lam, self.nu)  # the CMP domain, checked before any fit


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
        if min(self.sample_sizes, default=1) < 1:
            raise InvalidParamsError(f"sample sizes must be >= 1, got {min(self.sample_sizes)}")
        if len(self.settings) > 64 or len(self.sample_sizes) > 64:
            raise InvalidParamsError("at most 64 settings and sample sizes")
        if self.replicates > _REPLICATE_STRIDE:
            raise InvalidParamsError(f"at most {_REPLICATE_STRIDE} replicates")
        if len(self.priors) + 1 > _SLOT_STRIDE:
            raise InvalidParamsError(f"at most {_SLOT_STRIDE - 1} priors")
        for name in self.priors:
            get_preset(name)  # fail fast on unknown preset names
        SeedSpec(self.master_seed)  # and on a seed that names no stream, before any file
        # records are keyed by names and sizes, so a repeat would share them
        for axis, values in (("setting", [s.name for s in self.settings]),
                             ("sample size", self.sample_sizes), ("prior", self.priors)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise InvalidParamsError(f"repeated {axis} {repeated[0]!r}")


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


def _fits(config: StudyConfig) -> list[tuple[int, int, int, int]]:
    """Every fit of the study as (setting_idx, size_idx, replicate, prior_idx), in task order."""
    return list(itertools.product(range(len(config.settings)), range(len(config.sample_sizes)),
                                  range(config.replicates), range(len(config.priors))))


def _made_by(config: StudyConfig, fit: tuple[int, int, int, int]) -> dict:
    """What a fit's record depends on besides its key, in JSON types; checked on resume."""
    si, ni, r, pi = fit
    setting = config.settings[si]
    return {"seed": config.master_seed, "stream": _stream_id(si, ni, r, 1 + pi),
            "setting": [setting.lam, setting.nu], "mcmc": asdict(config.mcmc),
            "policy": asdict(config.policy), "draws": DRAW_SCHEME, "record": RECORD_VERSION}


def _run_replicate(config: StudyConfig, replicate: tuple[int, int, int],
                   prior_idxs: Sequence[int]) -> dict:
    """Fit the listed priors on one simulated dataset; returns {fit: JSON record}."""
    si, ni, r = replicate
    setting = config.settings[si]
    n = config.sample_sizes[ni]
    data_seed = SeedSpec(config.master_seed, _stream_id(si, ni, r, 0))
    data = sample_cmp(CmpParams(setting.lam, setting.nu), n, data_seed, config.policy)
    stats = sufficient_stats(data)

    records = {}
    for pi in prior_idxs:
        fit = (si, ni, r, pi)
        made_by = _made_by(config, fit)
        rec = {"setting": setting.name, "n": n, "replicate": r, "prior": config.priors[pi],
               "made_by": made_by}
        try:
            draws = run_chains(get_preset(config.priors[pi]), stats, config.mcmc,
                               SeedSpec(config.master_seed, made_by["stream"]), config.policy)
            summary = summarize(draws)
        except (ImproperPosteriorError, AllDivergentError, ZeroVarianceError) as exc:
            rec |= {"failed": True, "reason": type(exc).__name__, "message": str(exc)}
        else:
            rec |= {"failed": False} | fit_record(draws, summary, config.mcmc.warmup)
        records[fit] = rec
    return records


def _load_progress(path: Path) -> dict:
    """Records of a progress file, keyed by (setting, n, replicate, prior).

    An unparsable final line, torn by an interrupted run, is dropped with a
    warning and cut from the file so later records start on their own line;
    an unparsable line elsewhere, or a line that is no record, raises
    InvalidParamsError naming the file and line.
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
        except ValueError as exc:
            if any(rest.strip() for rest in lines[i + 1:]):
                raise InvalidParamsError(f"{path}:{i + 1}: unparsable line: {exc}") from None
            warnings.warn(f"{path}: dropping torn final line {i + 1}")
            os.truncate(path, sum(len(kept) for kept in lines[:i]))
            return done
        try:
            done[rec["setting"], rec["n"], rec["replicate"], rec["prior"]] = rec
        except (KeyError, TypeError):
            raise InvalidParamsError(
                f"{path}:{i + 1}: not a fit record keyed by setting, n, replicate and prior"
            ) from None
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
    replicate, prior) fit: records made under this config are reused, others
    raise InvalidParamsError, and each replicate's new records are appended as
    it ends, so an interrupted study resumes without recomputation. workers > 1
    spreads replicates over a pool of at most one process per pending replicate;
    tables and file are the same either way.
    A setting whose ln Z series cannot be summed under config.policy raises
    TruncationError before the progress file is read or written.
    """
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    for setting in config.settings:
        # every replicate's data are drawn from this series
        log_normalizer(CmpParams(setting.lam, setting.nu), config.policy)
    path = Path(progress_path) if progress_path else None
    on_file = _load_progress(path) if path else {}
    done = {}
    tasks = {}  # (setting_idx, size_idx, replicate) -> prior indices still to fit
    for fit in _fits(config):
        si, ni, r, pi = fit
        key = (config.settings[si].name, config.sample_sizes[ni], r, config.priors[pi])
        rec = on_file.get(key)
        if rec is None:
            tasks.setdefault((si, ni, r), []).append(pi)
        elif rec.get("made_by") != _made_by(config, fit):
            raise InvalidParamsError(
                f"{path}: the record of fit (setting, n, replicate, prior) = {key} was made "
                "under another seed, setting, prior order, MCMC or truncation config, "
                "draw scheme or record version; start a new progress file")
        else:
            done[fit] = rec

    with ExitStack() as stack:
        out = stack.enter_context(path.open("a")) if path else None
        scheduler = map  # yields in task order, as pool.map does
        workers = min(workers, len(tasks))
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            scheduler = pool.map
        for records in scheduler(_run_replicate, itertools.repeat(config), tasks, tasks.values()):
            done.update(records)
            if out:
                out.writelines(json.dumps(rec, sort_keys=True) + "\n"
                               for rec in records.values())
                out.flush()

    return _aggregate(config, done)


def _aggregate(config: StudyConfig, done: dict) -> list[CellResult]:
    cells = {}  # (setting_idx, size_idx, prior_idx) -> records in replicate order
    for si, ni, r, pi in _fits(config):
        cells.setdefault((si, ni, pi), []).append(done[si, ni, r, pi])
    results = []
    for (si, ni, pi), recs in cells.items():
        setting = config.settings[si]
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
                setting=setting.name, n=config.sample_sizes[ni], prior=config.priors[pi],
                parameter=pname, bias=bias, mse=mse, coverage=coverage, n_failed=failed,
            ))
    return results


def render_tables(results: Sequence[CellResult], fmt: str = "text") -> str:
    """Render cell results deterministically ordered by (setting, parameter, n, prior).

    csv and json round-trip through parse_tables; text mirrors the study's
    row-per-(setting, parameter, n), column-per-prior layout with one block
    per metric. An all-failed cell renders as "--" plus its failure count, in
    ASCII, so that the table prints under any locale.
    """
    if not results:
        raise InvalidParamsError("no results to render")
    rows = sorted(results, key=lambda r: (r.setting, r.parameter, r.n, r.prior))
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
    keys = sorted({(r.setting, r.parameter, r.n) for r in rows})
    by_cell = {(r.setting, r.parameter, r.n, r.prior): r for r in rows}

    def cell_text(r: Optional[CellResult], metric: str) -> str:
        if r is None:
            return ""
        value = getattr(r, metric)
        if value is None:
            return f"-- ({r.n_failed} failed)"
        return f"{value:.3f}" + (f" [{r.n_failed}f]" if r.n_failed else "")

    tables = {metric: [[cell_text(by_cell.get((*key, p)), metric) for p in priors]
                       for key in keys]
              for metric in ("bias", "mse", "coverage")}
    # a column is at least 12 wide, and 2 wider than its longest prior name or cell
    width = max(12, 2 + max(len(text) for text in [
        *priors, *(cell for table in tables.values() for row in table for cell in row)]))
    blocks = []
    for metric, table in tables.items():
        lines = [metric.upper()]
        header = f"{'setting':<10}{'param':<8}{'n':>5}  " + "".join(
            f"{p:>{width}}" for p in priors
        )
        lines.append(header)
        lines.append("-" * len(header))
        for (setting, parameter, n), cells in zip(keys, table):
            row = f"{setting:<10}{parameter:<8}{n:>5}  "
            row += "".join(f"{cell:>{width}}" for cell in cells)
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


def _parse_setting(text: str) -> StudySetting:
    name, lam, nu = text.split(":")  # ValueError unless name:lambda:nu
    return StudySetting(name.strip(), float(lam), float(nu))


def with_overrides(config: StudyConfig, values: Mapping[str, object]) -> StudyConfig:
    """config with the overrides in values: OVERRIDE_KEYS to strings or numbers.

    MCMC and truncation keys replace single fields of config.mcmc and config.policy.
    An unknown key or an unreadable item raises InvalidParamsError.
    """
    unknown = sorted(set(values) - set(OVERRIDE_KEYS))
    if unknown:
        raise InvalidParamsError(
            f"unknown key {unknown[0]!r}; known keys: {', '.join(OVERRIDE_KEYS)}")

    def read(key, kind, text):
        try:
            return kind(text)
        except ValueError as exc:  # an InvalidParamsError says why
            why = f": {exc}" if isinstance(exc, InvalidParamsError) else ""
            raise InvalidParamsError(f"{key}: cannot read {text!r}{why}") from None

    def items(key, kind):
        return tuple(read(key, kind, item.strip()) for item in str(values[key]).split(","))

    def fields(keys):  # {key: (field, type)} -> {field: value} for the keys given
        return {field: read(key, kind, values[key])
                for key, (field, kind) in keys.items() if key in values}

    changes = fields({"replicates": ("replicates", int), "seed": ("master_seed", int)})
    if "settings" in values:
        changes["settings"] = items("settings", _parse_setting)
    if "sizes" in values:
        changes["sample_sizes"] = items("sizes", int)
    if "priors" in values:
        changes["priors"] = items("priors", str)
    mcmc = fields({key: (key, int) for key in ("chains", "warmup", "keep")})
    if mcmc:
        changes["mcmc"] = replace(config.mcmc, **mcmc)
    policy = fields({"trunc_terms": ("base_terms", int), "tail_tol": ("tail_tol", float)})
    if policy:
        changes["policy"] = replace(config.policy, **policy)
    return replace(config, **changes)


def load_study_config(path: str) -> StudyConfig:
    """Read a StudyConfig from a plain key-value file.

    One `key = value` per line, '#' comments; the keys are OVERRIDE_KEYS,
    with the values with_overrides reads (the same as the study's CLI flags).
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
