"""Log posteriors for any prior spec, and posterior propriety where decidable.

The likelihood depends on the data only through (n, S1, S2) with
S1 = sum(x_i) and S2 = sum(ln x_i!), so posteriors are assembled from
SufficientStats. Every posterior is one log kernel in (ln lambda, nu) that
evaluates one ln Z series (log_kernel), and the prior is the posterior of no
data. Under a conjugate prior it is the conjugate kernel at the shifted
hyperparameters (a + S1, b + S2, c + n); under the flat prior it is the
conjugate kernel at (S1, S2, n), which is proper exactly when those values
satisfy the conjugate propriety condition. log_posterior, log_prior_density
and the sampler all run this kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np
from scipy.special import gammaln

from .core import CmpParams, TruncationPolicy, DEFAULT_POLICY
from .core import log_likelihood  # noqa: F401  (a name bench/spans.py patches)
from .errors import EmptyDataError, InvalidParamsError
from .priors import Conjugate, ConjugateHyper, Flat, Jeffreys, PriorSpec, conjugate_propriety
from .priors import conjugate_log_kernel, jeffreys_log_kernel


@dataclass(frozen=True)
class SufficientStats:
    """(n, S1, S2) summarizing a count dataset.

    n = 0 is the explicit empty-data state (used to sample a prior as if it
    were a posterior); build it with SufficientStats.empty().
    """

    n: int
    s1: int
    s2: float

    def __post_init__(self):
        if self.n < 0 or self.s1 < 0 or self.s2 < 0.0:
            raise InvalidParamsError("sufficient statistics must be nonnegative")
        if self.n == 0 and (self.s1 != 0 or self.s2 != 0.0):
            raise InvalidParamsError("empty data must have s1 = 0 and s2 = 0")

    @classmethod
    def empty(cls) -> "SufficientStats":
        return cls(n=0, s1=0, s2=0.0)

    @property
    def xbar(self) -> float:
        return self.s1 / self.n if self.n > 0 else 0.0

    @property
    def mean_lnfact(self) -> float:
        return self.s2 / self.n if self.n > 0 else 0.0


def sufficient_stats(data: Iterable[int]) -> SufficientStats:
    """Exact (n, S1, S2) for a sequence of nonnegative integer counts."""
    x = np.asarray(list(data))
    if x.size == 0:
        raise EmptyDataError("dataset is empty")
    if not np.issubdtype(x.dtype, np.integer):
        if not np.all(x == np.floor(x)):
            raise InvalidParamsError("counts must be integers")
        x = x.astype(np.int64)
    if (x < 0).any():
        raise InvalidParamsError("counts must be nonnegative")
    return SufficientStats(
        n=int(x.size),
        s1=int(x.sum()),
        s2=float(gammaln(x + 1.0).sum()),
    )


def log_kernel(spec: PriorSpec, stats: SufficientStats,
               policy: TruncationPolicy = DEFAULT_POLICY) -> Callable[[float, float], float]:
    """The unnormalized log posterior as an unvalidated function of (ln lambda, nu).

    Each call evaluates one ln Z series and raises where log_posterior would.
    """
    if isinstance(spec, Jeffreys):
        return partial(jeffreys_log_kernel, stats.s1, stats.s2, stats.n, policy=policy)
    if isinstance(spec, Conjugate):
        h = updated_hyper(spec.hyper, stats)
        return partial(conjugate_log_kernel, h.a, h.b, h.c, policy=policy)
    if isinstance(spec, Flat):
        return partial(conjugate_log_kernel, stats.s1, stats.s2, stats.n, policy=policy)
    raise TypeError(f"unknown prior spec {spec!r}")


def log_posterior(
    spec: PriorSpec,
    stats: SufficientStats,
    params: CmpParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Unnormalized log posterior: log prior density plus log likelihood."""
    return log_kernel(spec, stats, policy)(math.log(params.lam), params.nu)


def log_prior_density(
    spec: PriorSpec, params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """Unnormalized log prior density at (lambda, nu): the posterior of no data.

    Conjugate: (a-1)*ln(lambda) - nu*b - c*ln Z. Flat: -ln(lambda). Jeffreys:
    0.5 * ln det of the single-observation information (requires nu > 0; raises
    NonpositiveDeterminantError where det is not positive, nothing is clamped).
    """
    return log_posterior(spec, SufficientStats.empty(), params, policy)


def flat_posterior_propriety(stats: SufficientStats) -> bool:
    """Whether the flat-prior posterior for this data is proper.

    Requires n, S1, S2 all positive (some observation must exceed 1) and the
    conjugate propriety condition to hold at (S1, S2, n), i.e.
    mean(ln x!) > ln(floor(xbar)!) + (xbar - floor(xbar)) * ln(floor(xbar)+1).
    """
    if stats.n <= 0 or stats.s1 <= 0 or stats.s2 <= 0.0:
        return False
    return conjugate_propriety(ConjugateHyper(float(stats.s1), stats.s2, float(stats.n)))


def updated_hyper(hyper: ConjugateHyper, stats: SufficientStats) -> ConjugateHyper:
    """Posterior hyperparameters (a + S1, b + S2, c + n) under conjugacy."""
    return ConjugateHyper(hyper.a + stats.s1, hyper.b + stats.s2, hyper.c + stats.n)
