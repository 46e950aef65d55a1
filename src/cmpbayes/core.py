"""Numerically stable evaluation of the CMP normalizing series and its derivatives.

The CMP(lambda, nu) distribution has pmf

    P(X = x) = lambda^x / ((x!)^nu * Z(lambda, nu)),   x = 0, 1, 2, ...

with normalizing function Z(lambda, nu) = sum_j lambda^j / (j!)^nu. The series
has no closed form in general, so everything here works with the log terms

    t_j = j*ln(lambda) - nu*lnGamma(j + 1),

spelled once, in _log_terms, but for series_arrays' einsum, its blocked form.
They are summed over a grid whose length is chosen from (ln lambda, nu)
before summing, to where the terms have fallen an ulp's worth below the
largest (TruncationPolicy), so one sum suffices. series_arrays is the one
summation routine, over arrays of points in (ln lambda, nu), the sampler's
coordinates, so that a fit's thousands of proposals cost a few numpy calls per
grid length rather than Python per row; its docstring says how it sizes,
weighs and sums them. No point's result depends on the other points or on the
grid bound, and the one-point entries (log_normalizer, moments, pmf_table)
are one-row calls of series_arrays (the last two through _series).
_MOMENT_TABLE, built at import, holds the five moment integrands; CmpMoments'
second moments round as posterior.log_kernel's do, and the third and fourth
are central_moments'.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParamsError, TruncationError

MAX_TERMS = 10_000  # a series still unconverged at this length raises TruncationError
_LOG_LAST_J = math.log(MAX_TERMS - 1)
# a grid ends where its terms have fallen 53 ln 2 log-units below its largest, so that
# the terms it omits weigh less than an ulp of those it sums, with a margin for the
# tail's length; moment sums reach further, since j^2 and lnGamma(j + 1)^2 grow into it
_ULP_REACH = 53.0 * math.log(2.0)
_REACH_MARGIN = 3.0
_MOMENT_MARGIN = 16.0
# a row's weights are exp(t) unshifted while its largest log term is at most this:
# e^600 times K terms and lnGamma(j + 1)^2 <= 6.7e9 keeps its moment sums below e^632
_MAX_UNSHIFTED = 600.0
# rows x terms of one summed grid: 256 KiB of float64 per (rows, K) array, so a
# fit's thousands of rows never make one large temporary
_MAX_CELLS = 1 << 15
_LAST_TWO = np.array([[MAX_TERMS - 1], [MAX_TERMS - 2]])  # a capped grid's last two indices


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

    base_terms is the shortest grid and the anchor of the ladder of grid
    lengths ceil(base_terms * 2^(i/4)), i = 0, 1, ..., capped at MAX_TERMS.
    Each row's grid is the first rung at or past its reach: where its terms
    have fallen R = 53 ln 2 + 3 log-units below the largest (R + 16 when its
    moments are summed), so that the terms it omits weigh less than an ulp of
    its sum. Past the term mode m = lambda^(1/nu) the log terms fall at least
    nu m h(j/m - 1), h(x) = (1 + x) ln(1 + x) - x, and below lambda = 1 at
    least j (-ln lambda); the reach is where either bound passes R. The sum
    is then checked: it is accepted once its terms are decaying and a
    geometric bound on the omitted tail, term * r / (1 - r) with r the last
    consecutive-term ratio, falls below tail_tol relative to the partial sum
    (term ratios lambda / (j+1)^nu decrease in j, so the bound is valid). R is
    -ln tail_tol + ln(MAX_TERMS - 1) where that is larger, so that only a
    grid cut at MAX_TERMS can fail the check. A series whose last term ratio
    is still >= 1 at MAX_TERMS, or that fails the check there, raises
    TruncationError.
    """

    base_terms: int = 16
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
        return self.e_x2 - self.e_x * self.e_x

    @property
    def var_lnfact(self) -> float:
        return self.e_lnfact2 - self.e_lnfact * self.e_lnfact

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


def _log_factorial(j: np.ndarray) -> np.ndarray:
    """ln j! at integers j >= 0 of any shape: from _LGAMMA below MAX_TERMS, else gammaln (equal)."""
    return _LGAMMA[j] if j.max() < MAX_TERMS else gammaln(j + 1.0)


def _log_terms(log_lam, nu, j: np.ndarray) -> np.ndarray:
    """The CMP log terms t_j = j ln lambda - nu lnGamma(j + 1), broadcast over the three.

    series_arrays' einsum gives the same values (a zero, 0.0 there, may be -0.0 here).
    """
    return log_lam * j - nu * _log_factorial(j)


@lru_cache(maxsize=None)
def _tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of the rows j and lnGamma(j + 1), and of the moment integrands, for j < k."""
    return _MOMENT_TABLE[0:3:2, :k], _MOMENT_TABLE[:, :k]


def truncation_error(log_lam: float, nu: float, policy: TruncationPolicy) -> TruncationError:
    """The error for a series at (ln lambda, nu) that cannot be summed."""
    return TruncationError(
        f"normalizing series for (ln lambda={log_lam}, nu={nu}) did not "
        f"converge within {MAX_TERMS} terms (tail_tol={policy.tail_tol})"
    )


def _reach(log_lam: np.ndarray, nu_mode: np.ndarray, mode: np.ndarray,
           log_reach: np.ndarray) -> np.ndarray:
    """An index by which each row's log terms have fallen log_reach below its largest.

    log_reach is a column of reaches, each a row of the result, and nu_mode
    is nu times the term mode m = lambda^(1/nu). Past the mode the log terms
    fall by at least nu * m * h(j/m - 1) at j, with h(x) = (1 + x) ln(1 + x) - x,
    so m (1 + x) reaches where x is at or above the root of nu * m * h(x) =
    log_reach: Bennett's bound h(x) >= x^2 / (2 (1 + x/3)) gives a root above
    it, and three Newton steps on the convex h come down towards it without
    passing it. Below lambda = 1 the terms are at most lambda^j of t_0 = 0,
    the largest, so log_reach / -ln lambda reaches too, and the lesser is
    taken; it is the only reach at nu = 0. nan where neither is finite (a
    mode past float range). Its caller (_sizes) silences the floating-point
    warnings of those rows.
    """
    c = log_reach / nu_mode
    x = c * c
    x /= 9.0
    x += 2.0 * c
    np.sqrt(x, out=x)
    x += c / 3.0
    for _ in range(3):  # x - (h(x) - c) / h'(x), with h'(x) = ln(1 + x)
        slope = np.log1p(x)
        x += c
        x /= slope
        x -= 1.0
    x += 1.0
    x *= mode
    return np.fmin(x, np.where(log_lam < 0.0, log_reach / -log_lam, np.nan), out=x)


@lru_cache(maxsize=None)
def _sizing(policy: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid lengths by rung, the rung at or past each n = 0 .. MAX_TERMS, and the reaches.

    The lengths are 0, then the ladder ceil(base_terms * 2^(i/4)), i = 0, 1, ...,
    ending at MAX_TERMS, so rung 0 is a row that is not summed; each n's rung is
    an int16 index of that table (the ladder has at most 53 rungs); the reaches
    are the column R, R + _MOMENT_MARGIN (see TruncationPolicy).
    """
    steps = 4 * math.ceil(math.log2(MAX_TERMS / policy.base_terms)) + 1
    rungs = np.ceil(policy.base_terms * 2.0 ** (np.arange(steps) / 4))
    lengths = np.unique(np.minimum(rungs, MAX_TERMS)).astype(np.int64)
    rung = (np.searchsorted(lengths, np.arange(MAX_TERMS + 1)) + 1).astype(np.int16)
    lengths = np.concatenate(([0], lengths))
    log_reach = max(_ULP_REACH, _LOG_LAST_J - math.log(policy.tail_tol)) + _REACH_MARGIN
    reaches = np.array([[log_reach], [log_reach + _MOMENT_MARGIN]])
    for table in (lengths, rung, reaches):
        table.flags.writeable = False  # one array, shared by every call
    return lengths, rung, reaches


def _sizes(log_lam: np.ndarray, nu: np.ndarray, policy: TruncationPolicy, moments: bool = False):
    """Each row's grid length (0 where it cannot be summed), shift, ln Z's length and sort key.

    ln Z's length is the first rung of the ladder (_sizing) whose last index
    is past the row's _reach of R (see TruncationPolicy); a row shorter than
    MAX_TERMS then passes the tail test, whose bound, term * r / (1 - r), is
    at most e^-R (K - 1) / R of its sum. With moments the grid reaches
    _MOMENT_MARGIN further, since j^2 and lnGamma(j + 1)^2 grow into the
    tail; without, it is ln Z's. Both are MAX_TERMS where the reach passes
    it, and 0, before any sum, where the term ratio lambda / j^nu is still
    >= 1 at the cap. The shift is what the row's log terms are less before
    they are weighed: lnGamma(j + 1) >= j ln j - j bounds the largest term by
    nu * lambda^(1/nu), nu times the mode, and where that bound passes
    _MAX_UNSHIFTED (only at ln lambda > 0) the shift is the largest term
    itself, the largest of the three at floor(mode) - 1, floor(mode) and
    floor(mode) + 1, since terms rise up to the mode and fall after it.
    Elsewhere it is 0.0 and every weight exp(t) and moment sum stays in float
    range. The key orders rows by grid length, then by ln Z's length: it is
    i (rungs + 1) + i_z at their rungs i and i_z (_sizing), an int16 that numpy's
    stable argsort radix-sorts, and 0 where the row cannot be summed.
    """
    lengths, rung, reaches = _sizing(policy)
    summable = log_lam < nu * _LOG_LAST_J
    with np.errstate(all="ignore"):  # nu = 0, and modes past float range
        mode = np.exp(log_lam / nu)
        nu_mode = nu * mode
        reach = _reach(log_lam, nu_mode, mode, reaches[:1 + moments])
    need = np.fmin(np.floor(reach) + 2.0, MAX_TERMS)  # whole numbers in [2, MAX_TERMS]
    rungs = np.where(summable, rung[need.astype(np.intp)], 0)  # (1 or 2, rows)
    k = lengths.take(rungs)  # take: fancy indexing by an int16 index is 2-3 times slower
    shift = np.zeros(log_lam.size)
    big = np.flatnonzero(summable & (log_lam > 0.0) & (nu_mode > _MAX_UNSHIFTED))
    if big.size:
        j = np.floor(mode[big]).astype(np.int64)[:, None] + np.arange(-1, 2)
        shift[big] = _log_terms(log_lam[big, None], nu[big, None], j).max(axis=1)
    return k[-1], shift, k[0], rungs[-1] * lengths.size + rungs[0]


def series_arrays(log_lam: np.ndarray, nu: np.ndarray, policy: TruncationPolicy = DEFAULT_POLICY,
                  moments: bool = False) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The series at each row (ln lambda, nu) of two float arrays: the one summation routine.

    Returns (ln Z, moment sums, grid lengths): ln Z of each row, nan where
    the series cannot be summed; with moments, a (rows, 5) array of the five
    CmpMoments expectations in its order (nan rows likewise), else None; and
    the length of the grid each row was summed over. Rows are sized in one
    pass (_sizes), sorted by grid (unless every row shares one, as a one-row
    call's does: then they are summed in place, with no sort, gathers or
    scatter) and their grids formed length by length, shortest first,
    each length as (B, K) grids of at most _MAX_CELLS cells: t is one einsum
    of the rows' (ln lambda, -nu) with the table rows j and lnGamma(j + 1),
    the weights are exp(t - shift), the sum of the weights past t_0 is
    reduced over ln Z's length, and with moments the weights' einsum with
    _MOMENT_TABLE runs over the whole grid. Then, once over all rows: ln Z is
    log1p of that sum for an unshifted row (its t_0 = 0 has weight 1, and
    log1p keeps ln Z's relative precision where it is near 0) and shift +
    ln(e^-shift + the sum) for a shifted one, the moments are divided by the
    same weights' sum, and the rows whose ln Z length is MAX_TERMS, the only
    ones that can fail it (TruncationPolicy), take the tail test: a row is
    kept once its terms decay at its last two and a geometric bound on the
    omitted tail falls below tail_tol relative to the sum, and is nan where
    it fails. Every operation is elementwise or along a row, so a row's
    result depends on its own point alone, whatever the batch and the grid
    bound, and its ln Z is the same with and without moments.
    """
    log_lam = np.asarray(log_lam, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    log_z = np.full(log_lam.size, np.nan)
    sums = np.full((log_lam.size, 5), np.nan) if moments else None
    k, shift, k_z, key = _sizes(log_lam, nu, policy, moments)
    summed = np.count_nonzero(k)
    if not summed:
        return log_z, sums, k
    # the summed rows by grid length, then by ln Z's length: the unsummed (key 0) sort first;
    # where every row is summed on one grid, as a one-row call's is, they stay in place
    one_grid = key.min() == key.max()
    rows = slice(None) if one_grid else np.argsort(key, kind="stable")[k.size - summed:]
    lengths, z_lengths, c = k[rows], k_z[rows], shift[rows]
    coef = np.concatenate((log_lam[rows], -nu[rows])).reshape(2, -1)
    rest = np.empty(summed)
    moment_sums = np.empty((summed, 5)) if moments else None
    # the sorted rows' runs of one grid length, of one ln Z length, and their shifted rows
    bounds, z_bounds = ([0, summed] if one_grid else
                        [0, *(np.flatnonzero(x[1:] != x[:-1]) + 1).tolist(), summed]
                        for x in (lengths, z_lengths))
    shifted = np.flatnonzero(c).tolist()
    for first, end in zip(bounds[:-1], bounds[1:]):
        length = int(lengths[first])
        j_lgamma, table = _tables(length)
        step = max(1, _MAX_CELLS // length)
        for a in range(first, end, step):
            b = min(a + step, end)
            w = np.einsum("ib,ik->bk", coef[:, a:b], j_lgamma)
            if bisect_left(shifted, b) > bisect_left(shifted, a):
                w -= c[a:b, None]
            np.exp(w, out=w)  # the weights overwrite the log terms
            run = bisect_right(z_bounds, a)
            lo = a
            while lo < b:  # the weights past t_0 summed over each run's ln Z length
                hi = min(b, z_bounds[run])
                np.add.reduce(w[lo - a:hi - a, 1:z_lengths[lo]], axis=1, out=rest[lo:hi])
                lo, run = hi, run + 1
            if moments:
                np.einsum("bk,ck->bc", w, table, out=moment_sums[a:b])
    total = np.exp(-c) + rest  # t_0 = 0 weighs e^-shift
    with np.errstate(all="ignore"):
        lz = np.log1p(rest)
        if shifted:
            lz[shifted] = c[shifted] + np.log(total[shifted])
    if moments:
        moment_sums /= total[:, None]
    # only a row cut at MAX_TERMS can fail the tail test (TruncationPolicy); such rows sort last
    cut = summed - np.count_nonzero(z_lengths == MAX_TERMS)
    if cut < summed:
        with np.errstate(all="ignore"):
            # tail <= term_{K-1} * r / (1 - r), r the last term ratio; ratios only shrink with j
            last, prev = _log_terms(coef[0, cut:], -coef[1, cut:], _LAST_TWO)
            log_r = last - prev
            ratio = np.exp(log_r)
            # ratio < 1 holds only where log_r < 0: the terms decay
            ok = (ratio < 1.0) & ((last - lz[cut:]) + log_r - np.log1p(-ratio)
                                  < math.log(policy.tail_tol))
        failed = cut + np.flatnonzero(~ok)
        lz[failed] = np.nan
        if moments:
            moment_sums[failed] = np.nan
    log_z[rows] = lz
    if moments:
        sums[rows] = moment_sums
    return log_z, sums, k


def _series(log_lam: float, nu: float, policy: TruncationPolicy, moments: bool = False) -> tuple:
    """The series at one point: (its grid's log terms t, ln Z), or with moments (moments, ln Z).

    A one-row call of series_arrays; t is that row's _log_terms at its grid's
    length. Raises TruncationError where the series cannot be summed.
    """
    log_z, sums, k = series_arrays(np.array([log_lam]), np.array([nu]), policy, moments)
    if math.isnan(log_z[0]):
        raise truncation_error(log_lam, nu, policy)
    if moments:
        return sums[0].tolist(), float(log_z[0])
    return _log_terms(log_lam, nu, np.arange(k[0])), float(log_z[0])


def central_moments(log_lam: float, nu: float, log_z: float, k: int, e_x: float, e_g: float,
                    beta: float) -> np.ndarray:
    """E d_x^(m - q) d_y^q, m = 2, 3, 4 and q = 0..m, of d = s - E s, s = (X, -ln X! - beta X).

    At a row, on its grid, from the ln Z, length, E(X) and E(ln X!) series_arrays gave it,
    with nothing sized or summed again. At beta = Cov(X, -ln X!) / Var(X) the two are
    uncorrelated, which keeps the digits that X and ln X!'s near-collinearity cancels.
    """
    j = np.arange(k)
    dx = j - e_x
    dg = e_g - _LGAMMA[:k] - beta * dx
    x2, xg, g2 = dx * dx, dx * dg, dg * dg
    return np.array([x2, xg, g2, x2 * dx, x2 * dg, xg * dg, g2 * dg, x2 * x2, x2 * xg,
                     x2 * g2, xg * g2, g2 * g2]) @ np.exp(_log_terms(log_lam, nu, j) - log_z)


def log_normalizer(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln Z(lambda, nu) over a grid sized to its ulp reach on the length ladder (series_arrays).

    A one-row call of series_arrays; raises TruncationError where the series cannot be summed.
    """
    log_lam = math.log(params.lam)
    log_z = float(series_arrays(np.array([log_lam]), np.array([params.nu]), policy)[0][0])
    if math.isnan(log_z):
        raise truncation_error(log_lam, params.nu, policy)
    return log_z


def log_pmf(x: int, params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """ln P(X = x) = x*ln(lambda) - nu*lnGamma(x+1) - ln Z."""
    if x < 0 or not x < math.inf or x != int(x):  # not math.isfinite(x): it overflows on huge ints
        raise InvalidParamsError(f"x must be a nonnegative integer, got {x}")
    if x > sys.float_info.max:  # an int past float range, named by its size, not its digits
        raise InvalidParamsError(
            f"x must be within float range, got an integer of {int(x).bit_length()} bits")
    return float(_log_terms(math.log(params.lam), params.nu, np.asarray(int(x)))
                 - log_normalizer(params, policy))


def pmf_table(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """P(X = j) for j = 0 .. K-1 on the truncation grid (sums to 1 - tail)."""
    t, log_z = _series(math.log(params.lam), params.nu, policy)
    return np.exp(t - log_z)


def moments(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> CmpMoments:
    """Probability-weighted truncated sums for the moments in CmpMoments."""
    sums, log_z = _series(math.log(params.lam), params.nu, policy, moments=True)
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
