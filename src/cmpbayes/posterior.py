"""The log likelihood, log posteriors for any prior spec, and propriety for every prior.

The likelihood depends on the data only through (n, S1, S2) with
S1 = sum(x_i) and S2 = sum(ln x_i!), so posteriors are assembled from
SufficientStats, and the prior is the posterior of no data. Every posterior
is the conjugate kernel at some (a, b, c) (conjugate_form): at the shifted
hyperparameters (a + S1, b + S2, c + n) under a conjugate prior, at
(S1, S2, n) under the flat prior and under Jeffreys, which adds the Jeffreys
log density J = 0.5 ln(lambda^2 det I). check_propriety is the one place
that decides from (a, b, c) whether a posterior is proper. log_kernel binds a
posterior to that one formula over many points, as the density of
(u, nu) = (ln lambda, nu), the sampler's coordinates: a*u - b*nu - c*ln Z,
plus J. It decides the support, the CMP's parameter space, and why each
row off it or out of reach is -inf (priors.REJECTIONS). It sums the points'
series (core.series_arrays), evaluates the formula on them in array
operations and, when asked, its gradient and Hessian, taking J and the
Hessian from one set of the rows' second moments.
The sampler hands it a fit's proposals and each point its mode search
visits. _at_point reads its row at one point: log_likelihood is the flat
prior's row, and log_posterior and log_prior_density subtract ln lambda, the
Jacobian of lambda = e^u, to give the density in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (CmpParams, TruncationPolicy, DEFAULT_POLICY, _log_factorial, central_moments,
                   truncation_error, series_arrays)
from .errors import (EmptyDataError, ImproperPosteriorError, InvalidParamsError,
                     NonpositiveDeterminantError)
from .priors import (JEFFREYS_DET, OUTSIDE_SUPPORT, OVERFLOW, TRUNCATION, Conjugate,
                     ConjugateHyper, Flat, Jeffreys, PriorSpec, conjugate_propriety,
                     jeffreys_derivatives, propriety_bound)

_MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64


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
    """Exact (n, S1, S2) for a sequence of nonnegative integer counts.

    An ndarray is used as given; any other iterable is read into one. Every
    count must be at most 2^63 - 1, the bound datasets.parse_counts applies,
    whatever the input's type. S1 is summed in int64 only where n * max(x)
    fits in it, and as Python ints otherwise, so it never wraps. S2 sums
    lnGamma(x + 1) as core._log_factorial reads it: from core's table where
    every count is below core.MAX_TERMS, else from gammaln of the same floats.
    """
    x = data if isinstance(data, np.ndarray) else np.asarray(list(data))
    if x.size == 0:
        raise EmptyDataError("dataset is empty")
    if not np.issubdtype(x.dtype, np.integer) and not np.all(x == np.floor(x)):
        raise InvalidParamsError("counts must be integers")
    # as Python numbers, so the bound is compared exactly (a float 2^63 exceeds it)
    low, high = x.min(keepdims=True).item(), x.max(keepdims=True).item()
    if low < 0:
        raise InvalidParamsError("counts must be nonnegative")
    if high > _MAX_COUNT:
        raise InvalidParamsError(f"counts must be at most 2^63 - 1, got {high!r}")
    x = x.astype(np.int64, copy=False)
    n = int(x.size)
    # an int64 sum wraps without error, so past its range the counts are summed as Python ints
    s1 = int(x.sum()) if n * int(high) <= _MAX_COUNT else sum(x.tolist())
    return SufficientStats(n=n, s1=s1, s2=float(_log_factorial(x).sum()))


def conjugate_form(spec: PriorSpec, stats: SufficientStats) -> tuple[float, float, float]:
    """Floats (a, b, c): the log posterior of (u, nu) = (ln lambda, nu) is a*u - b*nu - c*ln Z.

    Exactly so under a conjugate prior, at (a + S1, b + S2, c + n), and under
    the flat prior, at (S1, S2, n); under Jeffreys it is this at (S1, S2, n)
    plus 0.5 * ln(lambda^2 * information determinant). The density in lambda
    (log_posterior) is each less ln lambda.
    """
    if isinstance(spec, Conjugate):
        h = updated_hyper(spec.hyper, stats)
        return h.a, h.b, h.c
    if isinstance(spec, (Flat, Jeffreys)):
        return _as_float(stats.s1), stats.s2, _as_float(stats.n)
    raise TypeError(f"unknown prior spec {spec!r}")


def _as_float(count: int) -> float:
    """An int statistic as a float, inf past float range (as a product with it would be)."""
    try:
        return float(count)
    except OverflowError:
        return math.inf


def log_kernel(spec: PriorSpec, stats: SufficientStats,
               policy: TruncationPolicy = DEFAULT_POLICY) -> Callable:
    """The unnormalized log posterior of (ln lambda, nu) over rows: rows(u, nu, derivatives=False).

    rows takes float arrays of the rows' u = ln lambda and nu and returns
    (values, reasons, derivatives): each row's a*u - b*nu - c*ln Z at
    conjugate_form's (a, b, c), plus J = 0.5 * ln(lambda^2 * information
    determinant) under Jeffreys; a REJECTIONS code per row (see priors), 0
    where the value is finite; and, with derivatives, each row's gradient
    (a - c E X, c E ln X! - b) and Hessian -c Cov(X, -ln X!) in (u, nu) as
    (rows, 2) and (rows, 2, 2) arrays, plus J's (priors.jeffreys_derivatives,
    from central moments on the row's own grid) under Jeffreys; else None.
    The support is the CMP's parameter space, nu > 0 or the geometric law at
    nu = 0 and lambda < 1, with e^u a positive float: a row off it is
    outside_support and never reaches the series. It sums the other rows'
    series in one call, with moments under Jeffreys or with derivatives, and
    none for the flat prior of no data. A row is -inf where its series could
    not be summed (truncation), where the determinant is not positive and
    finite (jeffreys_det: the density is undefined there, nothing is clamped)
    and where the arithmetic overflows; each leaves the row's value not
    finite, so only such rows are looked at for their reason. Only a finite
    row's derivatives are computed to mean anything, and they too may not be
    finite.
    """
    a, b, c = conjugate_form(spec, stats)
    jeffreys = isinstance(spec, Jeffreys)
    reads_z = jeffreys or c != 0.0  # all but the flat prior of no data

    def rows(u: np.ndarray, nu: np.ndarray, derivatives: bool = False):
        with np.errstate(over="ignore", under="ignore"):
            lam = np.exp(u)
        inside = ((nu > 0.0) | ((nu == 0.0) & (lam < 1.0))) & (lam > 0.0) & (lam < math.inf)
        if inside.all():  # no copy where every row is on the support
            return on_support(u, nu, derivatives)
        at = np.flatnonzero(inside)
        values = np.full(u.size, -math.inf)
        reasons = np.full(u.size, OUTSIDE_SUPPORT, dtype=np.int8)
        values[at], reasons[at], found = on_support(u[at], nu[at], derivatives)
        if not derivatives:
            return values, reasons, None
        grad, hess = np.full((u.size, 2), math.nan), np.full((u.size, 2, 2), math.nan)
        grad[at], hess[at] = found
        return values, reasons, (grad, hess)

    def on_support(u: np.ndarray, nu: np.ndarray, derivatives: bool):
        moments = derivatives or jeffreys
        if reads_z or moments:
            log_z, sums, k = series_arrays(u, nu, policy, moments)
        reasons = np.zeros(u.size, dtype=np.int8)
        with np.errstate(all="ignore"):
            if moments:  # the second moments of (X, ln X!), for J and for the Hessian
                e_x, e_x2, e_g, e_g2, e_xg = sums.T
                var_x, var_g, cov = e_x2 - e_x * e_x, e_g2 - e_g * e_g, e_xg - e_x * e_g
            values = a * u - nu * b
            if c != 0.0:
                values = values - c * log_z
            if jeffreys:  # lambda^2 det I = Var(X) Var(ln X!) - Cov(X, ln X!)^2
                det = var_x * var_g - cov * cov
                values = values + 0.5 * np.log(det)
            # a rejected row's value is not finite (nan where its series or determinant is),
            # so only those rows are given a reason: the first of truncation, jeffreys_det
            # and overflow that holds there
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                why = np.full(bad.size, OVERFLOW, dtype=np.int8)
                if jeffreys:
                    why[~((det[bad] > 0.0) & np.isfinite(det[bad]))] = JEFFREYS_DET
                if reads_z:
                    why[np.isnan(log_z[bad])] = TRUNCATION
                reasons[bad] = why
                values[bad] = -math.inf
            if not derivatives:
                return values, reasons, None
            grad, hess = np.empty((u.size, 2)), np.empty((u.size, 2, 2))
            grad[:, 0], grad[:, 1] = a - c * e_x, c * e_g - b
            hess[:, 0, 0], hess[:, 1, 1] = -c * var_x, -c * var_g
            hess[:, 0, 1] = hess[:, 1, 0] = c * cov
            if jeffreys:  # J's, in the basis (X, -ln X! - beta X) that leaves the two uncorrelated
                beta = (-cov / var_x).tolist()
                for i in np.flatnonzero(reasons == 0).tolist():
                    mu = central_moments(u[i], nu[i], log_z[i], k[i], e_x[i], e_g[i], beta[i])
                    dj, d2j = jeffreys_derivatives(mu, beta[i])
                    grad[i] += dj
                    hess[i] += d2j
        return values, reasons, (grad, hess)

    return rows


def _at_point(spec: PriorSpec, stats: SufficientStats, params: CmpParams, policy) -> float:
    """log_kernel's row at params as a float; raises its TruncationError or determinant error."""
    log_lam, nu = math.log(params.lam), params.nu
    values, reasons, _ = log_kernel(spec, stats, policy)(np.array([log_lam]), np.array([nu]))
    if reasons[0] == TRUNCATION:
        raise truncation_error(log_lam, nu, policy)
    if reasons[0] == JEFFREYS_DET:
        raise NonpositiveDeterminantError(
            f"information determinant not positive at (ln lambda={log_lam}, nu={nu})")
    return float(values[0])


def log_likelihood(stats: SufficientStats, params: CmpParams,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Log likelihood S1*ln(lambda) - nu*S2 - n*ln Z: the flat prior's kernel row, 0 for no data."""
    return _at_point(Flat(), stats, params, policy)


def log_posterior(
    spec: PriorSpec,
    stats: SufficientStats,
    params: CmpParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Unnormalized log posterior of (lambda, nu): log prior density plus log likelihood.

    log_kernel's row at one point less ln lambda; -inf where its arithmetic
    overflows. Raises TruncationError where the series cannot be summed and,
    under Jeffreys, NonpositiveDeterminantError where the information
    determinant is not positive and finite.
    """
    return _at_point(spec, stats, params, policy) - math.log(params.lam)


def log_prior_density(
    spec: PriorSpec, params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """Unnormalized log prior density at (lambda, nu): the posterior of no data.

    Conjugate: (a-1)*ln(lambda) - nu*b - c*ln Z. Flat: -ln(lambda). Jeffreys:
    0.5 * ln det of the single-observation information (raises
    NonpositiveDeterminantError where det is not positive, nothing is clamped).
    """
    return log_posterior(spec, SufficientStats.empty(), params, policy)


def check_propriety(spec: PriorSpec, stats: SufficientStats) -> None:
    """Raise ImproperPosteriorError where the posterior is decidably improper.

    Under a conjugate or the flat prior it is the conjugate kernel at conjugate_form's
    (a, b, c), proper exactly when all three are positive and conjugate_propriety holds.
    Under Jeffreys it is improper without data, and with data not decidable here: the
    mode search and the Pareto k-hat are the canaries.
    """
    if isinstance(spec, Jeffreys):
        if stats.n == 0:
            raise ImproperPosteriorError("the Jeffreys prior is improper; it needs data")
        return
    a, b, c = conjugate_form(spec, stats)
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ImproperPosteriorError(f"the posterior's (a, b, c) = ({a!r}, {b!r}, {c!r}) must "
                                     "all be positive (under the flat prior, some count above 1)")
    hyper = ConjugateHyper(a, b, c)
    if not conjugate_propriety(hyper):
        raise ImproperPosteriorError("b/c = %r does not exceed %r" % propriety_bound(hyper))


def flat_posterior_propriety(stats: SufficientStats) -> bool:
    """Whether check_propriety accepts the flat prior's posterior: n, S1, S2 > 0, proper there."""
    try:
        check_propriety(Flat(), stats)
    except ImproperPosteriorError:
        return False
    return True


def updated_hyper(hyper: ConjugateHyper, stats: SufficientStats) -> ConjugateHyper:
    """Posterior hyperparameters (a + S1, b + S2, c + n) under conjugacy."""
    return ConjugateHyper(hyper.a + stats.s1, hyper.b + stats.s2, hyper.c + stats.n)
