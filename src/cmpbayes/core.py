"""Numerically stable evaluation of the CMP normalizing series and its derivatives.

The CMP(lambda, nu) distribution has pmf

    P(X = x) = lambda^x / ((x!)^nu * Z(lambda, nu)),   x = 0, 1, 2, ...

with normalizing function Z(lambda, nu) = sum_j lambda^j / (j!)^nu. The series
has no closed form in general, so everything here works with a truncated grid
of log-domain terms

    t_j = j*ln(lambda) - nu*lnGamma(j + 1),

summed by log-sum-exp. The tables of j and lnGamma(j + 1) are built once per
grid size. log_normalizer_at and moments_at work from (ln lambda,
nu), the sampler's coordinates; moments reuses one grid for the expectations
and ln Z, which keeps them self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParamsError, TruncationError


@dataclass(frozen=True)
class CmpParams:
    """Parameter pair (lambda, nu) locating a CMP distribution.

    nu = 1 is Poisson(lambda); nu = 0 is Geometric(p = 1 - lambda), which only
    defines a distribution for lambda < 1; nu -> infinity approaches
    Bernoulli(p = lambda / (1 + lambda)).
    """

    lam: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise InvalidParamsError(f"lambda must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise InvalidParamsError(f"nu must be nonnegative and finite, got {self.nu}")
        if self.nu == 0.0 and self.lam >= 1.0:
            raise InvalidParamsError(
                f"nu = 0 requires lambda < 1 (geometric case), got lambda = {self.lam}"
            )


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how many series terms are used when evaluating Z(lambda, nu).

    The grid starts at base_terms and doubles until the terms are decaying and
    a geometric bound on the omitted tail, term * r / (1 - r) with r the last
    consecutive-term ratio, falls below tail_tol relative to the partial sum.
    (Term ratios lambda / (j+1)^nu decrease in j, so the bound is valid.)
    Hitting max_terms first raises TruncationError.
    """

    base_terms: int = 101
    tail_tol: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self):
        if self.base_terms < 2:
            raise InvalidParamsError(f"base_terms must be >= 2, got {self.base_terms}")
        if self.max_terms < self.base_terms:
            raise InvalidParamsError("max_terms must be >= base_terms")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0.0):
            raise InvalidParamsError(f"tail_tol must be positive, got {self.tail_tol}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class CmpMoments:
    """Expectations of X ~ CMP(lambda, nu) needed by the information matrix.

    e_x:        E(X)
    e_x2:       E(X^2)
    e_lnfact:   E(ln X!)
    e_lnfact2:  E((ln X!)^2)
    e_x_lnfact: E(X * ln X!)
    log_z:      ln Z on the grid the expectations were summed over
    """

    e_x: float
    e_x2: float
    e_lnfact: float
    e_lnfact2: float
    e_x_lnfact: float
    log_z: float

    @property
    def var_x(self) -> float:
        return self.e_x2 - self.e_x**2

    @property
    def var_lnfact(self) -> float:
        return self.e_lnfact2 - self.e_lnfact**2

    @property
    def cov_x_lnfact(self) -> float:
        return self.e_x_lnfact - self.e_x * self.e_lnfact


@dataclass(frozen=True)
class LogZDerivatives:
    """First and second partial derivatives of ln Z(lambda, nu)."""

    d_lam: float
    d_nu: float
    d2_lam2: float
    d2_nu2: float
    d2_lam_nu: float


@lru_cache(maxsize=64)
def _tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only j and lnGamma(j + 1) for j < k, built once per grid size."""
    j = np.arange(k, dtype=np.float64)
    lgamma = gammaln(j + 1.0)
    j.flags.writeable = False
    lgamma.flags.writeable = False
    return j, lgamma


def _series(log_lam: float, nu: float, policy: TruncationPolicy) -> tuple[np.ndarray, float]:
    """Adaptively truncated log-term grid at (ln lambda, nu) and its log-sum-exp.

    Returns (t, log_z) where t has the final grid length K.
    """
    log_tol = math.log(policy.tail_tol)
    k = policy.base_terms
    while True:
        j, lgamma = _tables(k)
        t = log_lam * j - nu * lgamma
        m = float(t.max())
        log_z = m + math.log(float(np.exp(t - m).sum()))
        last = float(t[-1])
        prev = float(t[-2])
        if last < prev:
            log_r = last - prev
            r = math.exp(log_r)
            if r < 1.0:
                # tail <= term_{K-1} * r / (1 - r); ratios only shrink with j
                log_tail_bound = (last - log_z) + log_r - math.log1p(-r)
                if log_tail_bound < log_tol:
                    return t, log_z
        if k >= policy.max_terms:
            raise TruncationError(
                f"normalizing series for (ln lambda={log_lam}, nu={nu}) did not "
                f"converge within {policy.max_terms} terms (tail_tol={policy.tail_tol})"
            )
        k = min(2 * k, policy.max_terms)


def log_normalizer_at(log_lam: float, nu: float,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln Z at (ln lambda, nu), unvalidated: the kernel behind log_normalizer."""
    return _series(log_lam, nu, policy)[1]


def log_normalizer(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln Z(lambda, nu) via log-sum-exp over the adaptive truncation grid."""
    return log_normalizer_at(math.log(params.lam), params.nu, policy)


def log_pmf(x: int, params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln P(X = x) = x*ln(lambda) - nu*lnGamma(x+1) - ln Z."""
    if x < 0 or x != int(x):
        raise InvalidParamsError(f"x must be a nonnegative integer, got {x}")
    return float(
        x * math.log(params.lam)
        - params.nu * gammaln(x + 1.0)
        - log_normalizer(params, policy)
    )


def pmf_table(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """P(X = j) for j = 0 .. K-1 on the truncation grid (sums to 1 - tail)."""
    t, log_z = _series(math.log(params.lam), params.nu, policy)
    return np.exp(t - log_z)


def log_likelihood(stats, params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Log likelihood S1*ln(lambda) - nu*S2 - n*ln Z from sufficient statistics.

    stats needs fields (n, s1, s2); n = 0 (empty data) gives 0.
    """
    if stats.n == 0:
        return 0.0
    return float(
        stats.s1 * math.log(params.lam)
        - params.nu * stats.s2
        - stats.n * log_normalizer(params, policy)
    )


def moments_at(log_lam: float, nu: float, policy: TruncationPolicy = DEFAULT_POLICY) -> CmpMoments:
    """Moments at (ln lambda, nu), unvalidated: sums of g(j) * exp(t_j - ln Z) on one grid."""
    t, log_z = _series(log_lam, nu, policy)
    j, g = _tables(t.size)
    w = np.exp(t - log_z)
    jw = j * w
    gw = g * w
    return CmpMoments(
        e_x=float(jw.sum()),
        e_x2=float(jw @ j),
        e_lnfact=float(gw.sum()),
        e_lnfact2=float(gw @ g),
        e_x_lnfact=float(jw @ g),
        log_z=log_z,
    )


def moments(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> CmpMoments:
    """Probability-weighted truncated sums for the moments in CmpMoments."""
    return moments_at(math.log(params.lam), params.nu, policy)


def logz_hessian(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> LogZDerivatives:
    """All partials of ln Z from moments, via the exponential-family identities.

    With G = ln(X!):
        d(lnZ)/dlam      = E(X) / lam
        d(lnZ)/dnu       = -E(G)
        d2(lnZ)/dlam2    = (Var(X) - E(X)) / lam^2
        d2(lnZ)/dnu2     = Var(G)
        d2(lnZ)/dlam dnu = -Cov(X, G) / lam
    """
    m = moments(params, policy)
    lam = params.lam
    return LogZDerivatives(
        d_lam=m.e_x / lam,
        d_nu=-m.e_lnfact,
        d2_lam2=(m.var_x - m.e_x) / lam**2,
        d2_nu2=m.var_lnfact,
        d2_lam_nu=-m.cov_x_lnfact / lam,
    )
