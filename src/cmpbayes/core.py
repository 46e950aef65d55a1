"""Numerically stable evaluation of the CMP normalizing series and its derivatives.

The CMP(lambda, nu) distribution has pmf

    P(X = x) = lambda^x / ((x!)^nu * Z(lambda, nu)),   x = 0, 1, 2, ...

with normalizing function Z(lambda, nu) = sum_j lambda^j / (j!)^nu. The series
has no closed form in general, so everything here works with a truncated grid
of log-domain terms

    t_j = j*ln(lambda) - nu*lnGamma(j + 1),

summed by log-sum-exp over a grid whose length, a whole number of
base_terms blocks, is chosen from (ln lambda, nu) before summing (see
TruncationPolicy), so one sum almost always suffices. j and lnGamma(j + 1) are
read-only views of one MAX_TERMS table built at import, next to a read-only
(5, MAX_TERMS) table of the moment integrands j, j^2, lnGamma(j + 1),
lnGamma(j + 1)^2 and j*lnGamma(j + 1). series_rows is the one summation
routine: it takes many points in (ln lambda, nu), the sampler's coordinates,
sizes them in one pass into per-length column lists (a row whose term mode is
at most base_terms / 2 is tested inline), sums the rows of each grid length as
one (B, K) grid formed by outer products of those columns with the tables,
tail-tests each row on Python floats against the grid's last two j and
lnGamma(j + 1), cached per length beside the tables, and sends a row that
fails the test back through the same loop at double length. The weights
exp(t - max t) overwrite the log terms in place, unless the rows must return
them; the moments are one einsum of the weights with the table over the grid
that gave ln Z, divided by the weights' sums that gave ln Z, which keeps them
self-consistent. No point's result depends on the other points, so the
one-point entries (log_normalizer_at, moment_sums_at, pmf_table) are one-row
calls of series_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParamsError, TruncationError

MAX_TERMS = 10_000  # a series still unconverged at this length raises TruncationError
_LOG_LAST_J = math.log(MAX_TERMS - 1)
_SIZE_MARGIN = 5.0  # log-units past -ln(tail_tol) at which a sized grid ends


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

    base_terms is the minimum grid and its block: every grid length is a
    whole number of base_terms blocks, or the fixed cap MAX_TERMS. When the
    term mode j* = lambda^(1/nu) exceeds base_terms / 2, the grid instead
    reaches j* + sqrt(2 j* (5 - ln tail_tol) / nu), rounded up to the next
    block: the mode plus the distance at which a peak of log-curvature nu / j*
    has fallen by -ln tail_tol, with 5 log-units to spare. A grid is accepted
    once its terms are decaying and a geometric bound on the omitted tail,
    term * r / (1 - r) with r the last consecutive-term ratio, falls below
    tail_tol relative to the partial sum (term ratios lambda / (j+1)^nu
    decrease in j, so the bound is valid); until then the grid doubles and
    is summed afresh. A series whose last term ratio is still >= 1 at
    MAX_TERMS, or that is unconverged there, raises TruncationError.
    """

    base_terms: int = 101
    tail_tol: float = 1e-10

    def __post_init__(self):
        if not 2 <= self.base_terms <= MAX_TERMS:
            raise InvalidParamsError(
                f"base_terms must lie in [2, {MAX_TERMS}], got {self.base_terms}")
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


_J = np.arange(MAX_TERMS, dtype=np.float64)
_LGAMMA = gammaln(_J + 1.0)
# the moment integrands g(j), one row per CmpMoments expectation, in its order
_MOMENT_TABLE = np.vstack([_J, _J * _J, _LGAMMA, _LGAMMA * _LGAMMA, _J * _LGAMMA])
for _table in (_J, _LGAMMA, _MOMENT_TABLE):
    _table.flags.writeable = False


@lru_cache(maxsize=None)
def _tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...]]:
    """Read-only views of j, lnGamma(j + 1) and the moment integrands for j < k.

    Also the grid's ends for the tail test as Python floats: its last two j
    and their lnGamma(j + 1), (j_prev, j_last, g_prev, g_last).
    """
    ends = (*_J[k - 2:k].tolist(), *_LGAMMA[k - 2:k].tolist())
    return _J[:k], _LGAMMA[:k], _MOMENT_TABLE[:, :k], ends


def _truncation_error(log_lam: float, nu: float, policy: TruncationPolicy) -> TruncationError:
    return TruncationError(
        f"normalizing series for (ln lambda={log_lam}, nu={nu}) did not "
        f"converge within {MAX_TERMS} terms (tail_tol={policy.tail_tol})"
    )


@lru_cache(maxsize=None)
def _sizer(policy: TruncationPolicy):
    """_grid_length's rule under policy, its constants computed once: 0 where it raises.

    Returns (base_terms, ln(base_terms / 2), the rule), so a caller can test
    the base case, ln lambda <= nu * ln(base_terms / 2), before calling it.
    """
    b = policy.base_terms
    log_half_b = math.log(0.5 * b)
    margin = _SIZE_MARGIN - math.log(policy.tail_tol)
    exp, sqrt = math.exp, math.sqrt

    def size(log_lam: float, nu: float) -> int:
        if log_lam <= nu * log_half_b:
            return b
        if log_lam >= nu * _LOG_LAST_J:
            return 0
        mode = exp(log_lam / nu)
        width = sqrt(2.0 * mode * margin / nu)
        return min(MAX_TERMS, -(-(int(mode + width) + 2) // b) * b)

    return b, log_half_b, size


def _grid_length(log_lam: float, nu: float, policy: TruncationPolicy) -> int:
    """Length of the first grid summed at (ln lambda, nu), in whole base_terms blocks.

    base_terms while the term mode lambda^(1/nu) is at most base_terms / 2;
    above it, the mode plus the width TruncationPolicy describes, rounded up
    to the next block and capped at MAX_TERMS. Raises TruncationError, before
    any sum, where the term ratio lambda / j^nu is still >= 1 at the cap.
    """
    k = _sizer(policy)[2](log_lam, nu)
    if not k:
        raise _truncation_error(log_lam, nu, policy)
    return k


def series_rows(points: list[tuple[float, float]], policy: TruncationPolicy = DEFAULT_POLICY,
                moments: bool = False, terms: bool = False) -> list:
    """The series at each (ln lambda, nu) in points, unvalidated: the one summation routine.

    Row i is ln Z at points[i]; with moments, the five CmpMoments
    expectations (a list, in its order) and ln Z; otherwise with terms, the
    grid's log terms t and ln Z. It is None where the series cannot be
    summed. Each row is summed over its own length (_grid_length), in one
    (B, K) grid with the other rows of that length: t is the outer product
    of the rows' ln lambda with j less that of their nu with lnGamma(j + 1),
    ln Z is max t + ln(sum of the weights exp(t - max t)), and the moments
    are one einsum of the weights with _MOMENT_TABLE, divided by the same
    sum. The tail test recomputes a row's last two terms as Python floats
    from its point and the table ends _tables caches. A row that fails it
    re-enters at double length (at most MAX_TERMS), where it joins the rows
    of that length; one unconverged at MAX_TERMS is None. So a row's result
    depends on its own point alone, and the one-point entries below are
    one-row calls.
    """
    out = [None] * len(points)
    base, log_half_base, size = _sizer(policy)
    # grid length -> the columns of the rows to sum at it: index, ln lambda, nu
    pending: dict[int, tuple[list[int], list[float], list[float]]] = {}
    for i, (log_lam, nu) in enumerate(points):
        k = base if log_lam <= nu * log_half_base else size(log_lam, nu)
        if k:
            group = pending.get(k)
            if group is None:
                group = pending[k] = ([], [], [])
            group[0].append(i)
            group[1].append(log_lam)
            group[2].append(nu)
    log_tol = math.log(policy.tail_tol)
    log, exp, log1p = math.log, math.exp, math.log1p
    while pending:
        k = min(pending)  # a doubled row joins a length not yet summed
        rows, log_lams, nus = pending.pop(k)
        j, lgamma, table, (j_prev, j_last, g_prev, g_last) = _tables(k)
        t = np.multiply.outer(log_lams, j)
        t -= np.multiply.outer(nus, lgamma)
        m = np.maximum.reduce(t, axis=1)
        # the weights exp(t - max t), in t's own buffer unless the rows return t
        w = np.subtract(t, m[:, None], out=None if terms else t)
        np.exp(w, out=w)
        totals = np.add.reduce(w, axis=1)
        sums = (np.einsum("bk,ck->bc", w, table) / totals[:, None]).tolist() if moments else None
        for r, (i, log_lam, nu, m_row, total) in enumerate(
                zip(rows, log_lams, nus, m.tolist(), totals.tolist())):
            log_z = m_row + log(total)
            # tail <= term_{K-1} * r / (1 - r), r the last term ratio; ratios only shrink with j
            prev = log_lam * j_prev - nu * g_prev
            last = log_lam * j_last - nu * g_last
            if last < prev:
                log_r = last - prev
                ratio = exp(log_r)
                if ratio < 1.0 and (last - log_z) + log_r - log1p(-ratio) < log_tol:
                    if moments:
                        out[i] = (sums[r], log_z)
                    else:
                        out[i] = (t[r], log_z) if terms else log_z
                    continue
            if k < MAX_TERMS:
                group = pending.setdefault(min(2 * k, MAX_TERMS), ([], [], []))
                group[0].append(i)
                group[1].append(log_lam)
                group[2].append(nu)
    return out


def _series(log_lam: float, nu: float, policy: TruncationPolicy, moments: bool = False) -> tuple:
    """series_rows' row at one point: (its log terms t, ln Z), or with moments (moments, ln Z).

    Raises TruncationError where the row is None.
    """
    row = series_rows([(log_lam, nu)], policy, moments, terms=True)[0]
    if row is None:
        raise _truncation_error(log_lam, nu, policy)
    return row


def log_normalizer_at(log_lam: float, nu: float,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln Z at (ln lambda, nu), unvalidated: the kernel behind log_normalizer."""
    return _series(log_lam, nu, policy)[1]


def log_normalizer(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln Z(lambda, nu) via log-sum-exp over the mode-sized truncation grid."""
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


def moment_sums_at(log_lam: float, nu: float,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[list[float], float]:
    """The five CmpMoments expectations as floats, in its order, and ln Z, unvalidated."""
    return _series(log_lam, nu, policy, moments=True)


def moments(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> CmpMoments:
    """Probability-weighted truncated sums for the moments in CmpMoments."""
    sums, log_z = moment_sums_at(math.log(params.lam), params.nu, policy)
    return CmpMoments(*sums, log_z=log_z)


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
