"""Numerically stable evaluation of the CMP normalizing series and its derivatives.

The CMP(lambda, nu) distribution has pmf

    P(X = x) = lambda^x / ((x!)^nu * Z(lambda, nu)),   x = 0, 1, 2, ...

with normalizing function Z(lambda, nu) = sum_j lambda^j / (j!)^nu. The series
has no closed form in general, so everything here works with a truncated grid
of log-domain terms

    t_j = j*ln(lambda) - nu*lnGamma(j + 1),

summed by log-sum-exp over a grid whose length is chosen from (ln lambda, nu)
before summing (see TruncationPolicy), so one sum almost always suffices. j
and lnGamma(j + 1) are read-only views of one MAX_TERMS table built at import,
next to a read-only (6, MAX_TERMS) table whose rows are 1 and the moment
integrands j, j^2, lnGamma(j + 1), lnGamma(j + 1)^2 and j*lnGamma(j + 1).
log_normalizer_at and moment_sums_at work from (ln lambda, nu), the sampler's
coordinates; the moments are one einsum of the weights exp(t - max t) with the
table's rows over the grid that gave ln Z, each divided by the weights' sum
(the row of ones), which keeps them self-consistent. series_rows evaluates
many points as one (B, K) grid, for the sampler's lockstep chains, and no
point's result there depends on the other points.
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

    base_terms is the minimum grid. When the term mode j* = lambda^(1/nu)
    exceeds base_terms / 2, the grid instead reaches j* + sqrt(2 j* (5 -
    ln tail_tol) / nu): the mode plus the distance at which a peak of
    log-curvature nu / j* has fallen by -ln tail_tol, with 5 log-units to
    spare. A grid is accepted once its terms are decaying and a geometric bound
    on the omitted tail, term * r / (1 - r) with r the last consecutive-term
    ratio, falls below tail_tol relative to the partial sum (term ratios
    lambda / (j+1)^nu decrease in j, so the bound is valid); until then the
    grid doubles and is summed afresh. A series whose last term ratio is still
    >= 1 at the fixed cap MAX_TERMS, or that is unconverged there, raises
    TruncationError.
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
# a row of ones (the weights' sum), then the moment integrands g(j), one row
# per CmpMoments expectation, in its order
_MOMENT_TABLE = np.vstack(
    [np.ones(MAX_TERMS), _J, _J * _J, _LGAMMA, _LGAMMA * _LGAMMA, _J * _LGAMMA])
for _table in (_J, _LGAMMA, _MOMENT_TABLE):
    _table.flags.writeable = False


@lru_cache(maxsize=None)
def _tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of j and lnGamma(j + 1) for j < k."""
    return _J[:k], _LGAMMA[:k]


def _truncation_error(log_lam: float, nu: float, policy: TruncationPolicy) -> TruncationError:
    return TruncationError(
        f"normalizing series for (ln lambda={log_lam}, nu={nu}) did not "
        f"converge within {MAX_TERMS} terms (tail_tol={policy.tail_tol})"
    )


def _sized_terms(log_lam: float, nu: float, policy: TruncationPolicy) -> int:
    """Grid length reaching past a term mode lambda^(1/nu) above base_terms / 2."""
    if log_lam >= nu * _LOG_LAST_J:
        # the term ratio lambda / j^nu is still >= 1 at j = MAX_TERMS - 1
        raise _truncation_error(log_lam, nu, policy)
    mode = math.exp(log_lam / nu)
    width = math.sqrt(2.0 * mode * (_SIZE_MARGIN - math.log(policy.tail_tol)) / nu)
    return min(MAX_TERMS, max(policy.base_terms, int(mode + width) + 2))


def _grid_length(log_lam: float, nu: float, policy: TruncationPolicy) -> int:
    """Length of the first grid summed at (ln lambda, nu): base_terms, or sized from the mode."""
    k = policy.base_terms
    # mode above base_terms / 2, as in every series that cannot converge by MAX_TERMS
    if log_lam > nu * math.log(0.5 * k):
        k = _sized_terms(log_lam, nu, policy)
    return k


def _converged(prev: float, last: float, log_z: float, log_tol: float) -> bool:
    """Whether a grid whose last two log terms are (prev, last) passes the tail test."""
    if last < prev:
        log_r = last - prev
        r = math.exp(log_r)
        if r < 1.0:
            # tail <= term_{K-1} * r / (1 - r); ratios only shrink with j
            return (last - log_z) + log_r - math.log1p(-r) < log_tol
    return False


def _series(log_lam: float, nu: float, policy: TruncationPolicy) -> tuple[np.ndarray, float]:
    """Log-term grid at (ln lambda, nu), sized from its mode, and its log-sum-exp.

    Returns (t, log_z) where t has the final grid length K.
    """
    log_tol = math.log(policy.tail_tol)
    k = _grid_length(log_lam, nu, policy)
    while True:
        j, lgamma = _tables(k)
        t = log_lam * j - nu * lgamma
        m = float(t.max())
        log_z = m + math.log(float(np.exp(t - m).sum()))
        if _converged(float(t[-2]), float(t[-1]), log_z, log_tol):
            return t, log_z
        if k >= MAX_TERMS:
            raise _truncation_error(log_lam, nu, policy)
        k = min(2 * k, MAX_TERMS)


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


def _sum_widths(lengths: list[int], policy: TruncationPolicy) -> list[int]:
    """The widths over which series_rows sums grids of these lengths.

    Each length rounded up to a multiple of base_terms (at most MAX_TERMS),
    with zero weights past the length: rows of nearby lengths then share
    one reduction, and a row's sums still depend on its own length alone.
    """
    b = policy.base_terms
    return [min(MAX_TERMS, -(-length // b) * b) for length in lengths]


def _moment_sums(w: np.ndarray) -> list[list[float]]:
    """Sums of g(j) * w_j for each row g of _MOMENT_TABLE and each row of weights w (B, K).

    One einsum over j per row and integrand, so a row's sums depend only on
    its own weights and on K, not on the other rows of w.
    """
    return np.einsum("bk,ck->bc", w, _MOMENT_TABLE[:, : w.shape[1]]).tolist()


def moment_sums_at(log_lam: float, nu: float,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[list[float], float]:
    """The five CmpMoments expectations as floats, in its order, and ln Z, unvalidated.

    The sums of g(j) * exp(t - max t) over one grid, padded with zero weights
    to its width as series_rows pads it (_sum_widths), divided by the
    weights' sum.
    """
    t, log_z = _series(log_lam, nu, policy)
    w = np.zeros((1, *_sum_widths([t.size], policy)))
    np.exp(t - float(t.max()), out=w[0, : t.size])
    total, *sums = _moment_sums(w)[0]
    return [x / total for x in sums], log_z


def series_rows(points: list[tuple[float, float]], policy: TruncationPolicy = DEFAULT_POLICY,
                moments: bool = False) -> list:
    """The series at each (ln lambda, nu) in points, from one (B, K) grid, unvalidated.

    Row i is what log_normalizer_at (or, with moments, moment_sums_at) gives
    at points[i], or None where that raises TruncationError. A row is sized
    as _series sizes it, its terms past its own length are -inf (so their
    weights are 0), and it is summed over its width (_sum_widths), together
    with the other rows of that width: one sum, or with moments one einsum
    with _MOMENT_TABLE. So no row's result depends on the other rows. The
    moments are moment_sums_at's bit for bit. A plain row of base_terms
    terms has _series' ln Z bit for bit; a longer row's, summed over its zero
    weights too, and a moment row's, from the row of ones, may differ from it
    in the last bit. A row that fails the tail test at its own length falls
    back to _series and its doubling.
    """
    out = [None] * len(points)
    sized = []
    for i, (log_lam, nu) in enumerate(points):
        try:
            sized.append((_grid_length(log_lam, nu, policy), i))
        except TruncationError:
            continue
    if not sized:
        return out
    sized.sort()  # rows of one width next to each other, the widest last
    lengths = [length for length, _ in sized]
    widths = _sum_widths(lengths, policy)
    k = widths[-1]
    grid = np.array([points[i] for _, i in sized])
    t = grid[:, :1] * _J[:k]
    t -= grid[:, 1:] * _LGAMMA[:k]
    ends = t[:, -2:].tolist()  # the tail test's last two terms of rows k long
    for r in range(len(lengths) - lengths.count(k)):  # the rows shorter than k
        length = lengths[r]
        ends[r] = t[r, length - 2:length].tolist()
        t[r, length:] = -math.inf
    m = t.max(axis=1, keepdims=True)
    t -= m
    w = np.exp(t, out=t)
    sums = []
    start = 0
    while start < len(widths):
        stop = start + widths.count(widths[start])
        block = w[start:stop, :widths[start]]
        sums += _moment_sums(block) if moments else block.sum(axis=1).tolist()
        start = stop
    log_tol = math.log(policy.tail_tol)
    for (_, i), m_row, s, (prev, last) in zip(sized, m.ravel().tolist(), sums, ends):
        total = s[0] if moments else s
        log_z = m_row + math.log(total)
        if _converged(prev, last, log_z, log_tol):
            out[i] = ([x / total for x in s[1:]], log_z) if moments else log_z
            continue
        try:
            out[i] = (moment_sums_at if moments else log_normalizer_at)(*points[i], policy)
        except TruncationError:
            pass
    return out


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
