"""Deterministic, seedable generation of CMP-distributed counts.

All randomness in the package flows through Philox(4x64) bit generators keyed
by numpy SeedSequence over an integer entropy tuple (master_seed, *path).
numpy documents both the SeedSequence hash and the Philox stream as stable
across platforms and releases, so identical seeds give identical draws
everywhere. Distinct paths (including paths of different length) give
statistically independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CmpParams, TruncationPolicy, DEFAULT_POLICY, pmf_table
from .errors import InvalidParamsError

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """A (master_seed, stream_id) pair naming one reproducible stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            # a float would be truncated to an integer stream, one another seed names too
            if not (isinstance(v, (int, np.integer)) and 0 <= v < _MAX_SEED):
                raise InvalidParamsError(f"{name} must be a 64-bit unsigned integer, got {v}")


def make_generator(master_seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream named by (master_seed, *path).

    The entropy tuple is (master_seed, len(path), *path): SeedSequence pads
    entropy with zeros, so without the length prefix (m, s) and (m, s, 0)
    would collide.
    """
    entropy = (int(master_seed), len(path)) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def sample_cmp(
    params: CmpParams,
    count: int,
    seed: SeedSpec,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Draw `count` CMP(lambda, nu) variates by inverse-CDF table lookup.

    The cumulative pmf is tabulated on the same truncation grid as
    log_normalizer (omitted tail below policy.tail_tol), then uniform draws
    are mapped through searchsorted. Exact to truncation tolerance and
    bit-reproducible for a given SeedSpec.
    """
    if count <= 0:
        raise InvalidParamsError(f"count must be positive, got {count}")
    cdf = np.cumsum(pmf_table(params, policy))
    g = make_generator(seed.master_seed, seed.stream_id)
    u = g.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1).astype(np.int64)


def chi_square_gof(
    draws: np.ndarray,
    params: CmpParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
    max_cell: int = 20,
    alpha: float = 0.001,
) -> tuple[float, float, bool]:
    """Chi-square goodness of fit of draws against the exact pmf.

    Cells are {0..max_cell, (max_cell+1)+}; trailing cells are pooled until
    every cell has expected count >= 5 (Cochran's rule) so the statistic's
    chi-square reference is valid. Returns (statistic, critical_value,
    non_rejecting) at significance alpha.
    """
    from scipy.stats import chi2

    draws = np.asarray(draws)
    n = draws.size
    p = pmf_table(params, policy)
    probs = np.zeros(max_cell + 2)
    upto = min(max_cell + 1, p.size)
    probs[:upto] = p[:upto]
    probs[max_cell + 1] = max(0.0, 1.0 - probs[: max_cell + 1].sum())

    observed = np.bincount(np.minimum(draws, max_cell + 1), minlength=max_cell + 2).astype(float)
    expected = n * probs

    # pool the tail until the last cell holds at least 5 expected
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]

    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = expected.size - 1
    critical = float(chi2.ppf(1.0 - alpha, dof))
    return stat, critical, stat <= critical


def dispersion_ratio(draws: np.ndarray) -> float:
    """Sample variance over sample mean; below 1 signals under-dispersion."""
    draws = np.asarray(draws, dtype=np.float64)
    mean = draws.mean()
    if mean == 0.0:
        return math.nan
    return float(draws.var() / mean)
