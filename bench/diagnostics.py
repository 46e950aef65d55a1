"""Rank-normalised bulk effective sample size.

Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-normalization,
folding, and localization: an improved R-hat", Bayesian Analysis 16(2):
split each chain in half, replace draws by the normal scores of their
pooled ranks, and estimate the multi-chain autocorrelation time with
Geyer's initial monotone sequence.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT with zero padding."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centred, n=2 * n, axis=1)
    return np.fft.irfft(f * np.conj(f), n=2 * n, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    m, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus

    kept = np.zeros(n)
    kept[0], kept[1] = 1.0, rho[1]
    even, odd = 1.0, rho[1]
    t = 1
    # initial positive sequence: stop at the first negative pair sum
    while t < n - 3 and even + odd > 0.0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0.0:
            kept[t + 1], kept[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0.0:
        kept[max_t + 1] = even
    # initial monotone sequence: pair sums may not increase
    t = 1
    while t <= max_t - 2:
        if kept[t + 1] + kept[t + 2] > kept[t - 1] + kept[t]:
            kept[t + 1] = kept[t + 2] = (kept[t - 1] + kept[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * kept[: max_t + 1].sum() + kept[max_t + 1]
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def ess_bulk(draws: np.ndarray) -> float:
    """Bulk ESS of a (chains x draws) array."""
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)
    ranks = rankdata(split, method="average").reshape(split.shape)
    return _ess(ndtri((ranks - 0.375) / (split.size + 0.25)))
