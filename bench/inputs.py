"""Workload inputs, made from the seed alone.

Kept free of the benchmark's heavier imports, because the set-up probe
(probe.py) imports this module in a fresh interpreter and its import time is
part of setup_s.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from scipy.special import gammaln

FIT_DATASETS = ("textile-faults", "slovak-poem", "crab-satellites", "hungarian-words")
FIT_PRIORS = ("conj-1", "flat", "jeffreys")

LONG_LAM, LONG_NU, LONG_N = 30.0, 0.7, 2000
LONG_WARMUP = 8000
LONG_FILE = "long-series.txt"

STUDY_SETTINGS = "over:3:0.5,under:3:2"
STUDY_SIZES = "25,75"
STUDY_REPLICATES = 2
STUDY_WORKERS = 2


def study_argv(seed: int, workers: int, paper_grid: bool = False) -> list[str]:
    """`cmpbayes study` arguments for the study-cell (or the paper grid).

    The caller adds --progress and --out.
    """
    grid = [] if paper_grid else [
        "--settings", STUDY_SETTINGS,
        "--sizes", STUDY_SIZES,
        "--replicates", str(STUDY_REPLICATES),
    ]
    return ["study", *grid, "--seed", str(seed), "--workers", str(workers),
            "--format", "csv"]


def long_series_counts(seed: int) -> np.ndarray:
    """n = 2000 counts from CMP(30, 0.7) by stratified inverse-CDF sampling.

    The pmf comes from this module's own series (2000 terms, far past the
    mass near lambda^(1/nu) ~ 129), not from cmpbayes.rng, so a change to the
    package cannot change the inputs. Draw i is the inverse CDF at
    (i + U_i) / n: every count is a draw from CMP(30, 0.7) and the sample's
    statistics sit close to their expectations, so the 95% CrIs covering
    the truth tests the sampler rather than the luck of the draw.
    """
    j = np.arange(2000, dtype=np.float64)
    log_terms = j * np.log(LONG_LAM) - LONG_NU * gammaln(j + 1.0)
    pmf = np.exp(log_terms - log_terms.max())
    cdf = np.cumsum(pmf / pmf.sum())
    u = (np.arange(LONG_N) + np.random.default_rng(seed).random(LONG_N)) / LONG_N
    return np.minimum(np.searchsorted(cdf, u, side="right"), j.size - 1).astype(np.int64)


def write_long_series(seed: int, directory: Path) -> Path:
    path = directory / LONG_FILE
    path.write_text("".join(f"{int(x)}\n" for x in long_series_counts(seed)))
    return path


def sha256_of(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
