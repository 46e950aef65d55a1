"""Prior specifications for (lambda, nu): conjugate family, flat, and Jeffreys.

The conjugate family has kernel

    pi(lambda, nu) ∝ lambda^(a-1) * exp(-nu*b) * Z(lambda, nu)^(-c),

proper for a, b, c > 0 iff b/c exceeds a floor-interpolation bound (see
propriety_bound). The flat prior lambda^(-1) is the (improper) limit of the
conjugate kernel as (a, b, c) -> 0. The Jeffreys prior is the square root of
the determinant of the single-observation Fisher information, assembled from
the moments of X and ln X!. Both log kernels are formulas over many points:
bound to their constants, each maps a list of (ln lambda, nu) rows and the
rows' series, as core.series_rows sums them, to the rows' values in one loop,
-inf where the formula is undefined. posterior.kernel_series picks one per
prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from scipy.special import gammaln

from .core import CmpParams, TruncationPolicy, DEFAULT_POLICY, moment_sums_at
from .core import log_normalizer, logz_hessian  # noqa: F401  (names bench/spans.py patches)
from .errors import InvalidParamsError, NonpositiveDeterminantError


@dataclass(frozen=True)
class ConjugateHyper:
    """Hyperparameters (a, b, c) of the conjugate prior kernel."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParamsError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class Conjugate:
    hyper: ConjugateHyper


@dataclass(frozen=True)
class Flat:
    pass


@dataclass(frozen=True)
class Jeffreys:
    pass


PriorSpec = Union[Conjugate, Flat, Jeffreys]
# A log kernel over rows: (rows of (ln lambda, nu), their series) -> values
RowKernel = Callable[[list, list], list[float]]

# The six study priors, keyed by their CLI-facing names, in study order.
# conj-data is the two-hypothetical-observations prior built from counts
# [2, 0], i.e. (a, b, c) = (2, ln 2, 2); the other conjugate presets set
# a = b = c. flat and jeffreys are improper.
_PRESETS: dict[str, PriorSpec] = {
    "conj-1": Conjugate(ConjugateHyper(1.0, 1.0, 1.0)),
    "conj-data": Conjugate(ConjugateHyper(2.0, math.log(2.0), 2.0)),
    "conj-0.1": Conjugate(ConjugateHyper(0.1, 0.1, 0.1)),
    "conj-0.01": Conjugate(ConjugateHyper(0.01, 0.01, 0.01)),
    "flat": Flat(),
    "jeffreys": Jeffreys(),
}
PRESET_NAMES = tuple(_PRESETS)


def propriety_bound(hyper: ConjugateHyper) -> tuple[float, float]:
    """The two sides of the propriety inequality: (b/c, bound it must exceed)."""
    t = hyper.a / hyper.c
    fl = math.floor(t)
    rhs = float(gammaln(fl + 1.0)) + (t - fl) * math.log(fl + 1.0)
    return hyper.b / hyper.c, rhs


def conjugate_propriety(hyper: ConjugateHyper) -> bool:
    """Whether the conjugate kernel with (a, b, c) normalizes to a proper density.

    True iff b/c > ln(floor(a/c)!) + (a/c - floor(a/c)) * ln(floor(a/c) + 1),
    strict inequality, with ln(m!) evaluated as lnGamma(m+1). The verdict
    depends only on the ratios a/c and b/c.
    """
    lhs, rhs = propriety_bound(hyper)
    return lhs > rhs


def preset_priors() -> list[tuple[str, PriorSpec]]:
    """The six study priors as (name, spec), in PRESET_NAMES order."""
    return list(_PRESETS.items())


def get_preset(name: str) -> PriorSpec:
    if name not in _PRESETS:
        raise KeyError(f"unknown prior preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]


def conjugate_log_kernel(a: float, b: float, c: float) -> RowKernel:
    """(a - 1)*ln(lambda) - nu*b - c*ln Z as a formula over rows, unvalidated.

    The conjugate prior's log kernel and, at shifted (a, b, c), every conjugate
    and flat posterior's. Each row's series is its ln Z, as log_normalizer_at
    gives it, or None where the series could not be summed: that row is -inf.
    c = 0 (flat prior, no data) reads no series.
    """
    a1 = a - 1.0
    inf = math.inf

    def kernel(rows, series):
        out = []
        for (log_lam, nu), log_z in zip(rows, series):
            value = a1 * log_lam - nu * b
            if c != 0.0:
                value = -inf if log_z is None else value - c * log_z
            out.append(value)
        return out

    return kernel


def _scaled_information_det(e_x: float, e_x2: float, e_g: float, e_g2: float,
                            e_xg: float) -> float:
    """lambda^2 times the information determinant: Var(X)Var(G) - Cov(X, G)^2, G = ln X!.

    Takes the five CmpMoments expectations in its order.
    """
    return (e_x2 - e_x**2) * (e_g2 - e_g**2) - (e_xg - e_x * e_g)**2


def jeffreys_log_kernel(s1: float, s2: float, n: int) -> RowKernel:
    """Jeffreys log density plus S1*ln(lambda) - nu*S2 - n*ln Z as a formula over rows.

    Unvalidated: nu must be positive. Each row's series is its moment sums
    and ln Z, as moment_sums_at gives them, or None. One series gives the
    information determinant and ln Z. A row is -inf where its series is None,
    where the determinant is not positive and finite (the density is
    undefined there, nothing is clamped) and where the arithmetic overflows.
    """
    log, isfinite, inf = math.log, math.isfinite, math.inf

    def kernel(rows, series):
        out = []
        for (log_lam, nu), row in zip(rows, series):
            value = -inf
            if row is not None:
                sums, log_z = row
                try:
                    det = _scaled_information_det(*sums)
                    if det > 0.0 and isfinite(det):
                        value = (0.5 * log(det) - log_lam) + (s1 * log_lam - nu * s2 - n * log_z)
                except OverflowError:
                    pass
            out.append(value)
        return out

    return kernel


def jeffreys_series(log_lam: float, nu: float,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[list[float], float]:
    """The series jeffreys_log_kernel reads at one point, where its density is defined.

    moment_sums_at's (moment sums, ln Z). Raises InvalidParamsError at nu <= 0,
    TruncationError where the series cannot be summed, and
    NonpositiveDeterminantError where the information determinant is not
    positive and finite.
    """
    if nu <= 0.0:
        raise InvalidParamsError("Jeffreys prior requires nu > 0")
    sums, log_z = moment_sums_at(log_lam, nu, policy)
    det = _scaled_information_det(*sums)
    if not (det > 0.0 and math.isfinite(det)):
        raise NonpositiveDeterminantError(
            f"information determinant not positive at (ln lambda={log_lam}, nu={nu})"
        )
    return sums, log_z


def jeffreys_information_det(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Determinant of the single-observation Fisher information matrix.

    det = [Var(X)/lambda^2] * Var(lnX!) - [Cov(X, lnX!)/lambda]^2.
    """
    sums, _ = moment_sums_at(math.log(params.lam), params.nu, policy)
    return _scaled_information_det(*sums) / params.lam**2
