"""Prior specifications for (lambda, nu): conjugate family, flat, and Jeffreys.

The conjugate family has kernel

    pi(lambda, nu) ∝ lambda^(a-1) * exp(-nu*b) * Z(lambda, nu)^(-c),

proper for a, b, c > 0 iff b/c exceeds a floor-interpolation bound (see
propriety_bound). The flat prior lambda^(-1) is the (improper) limit of the
conjugate kernel as (a, b, c) -> 0. The Jeffreys prior is the square root of
the determinant of the single-observation Fisher information, assembled from
the moments of X and ln X!. Both log kernels are formulas over many points:
bound to their constants, each maps arrays of the rows' ln lambda and nu and
their series, as core.series_arrays sums them, to the rows' values in array
operations, -inf where the formula is undefined, and a REJECTIONS code that
says why. posterior.kernel_series picks one per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
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
# A log kernel over rows: (ln lambda, nu, ln Z, moment sums) arrays -> (values, reasons)
RowKernel = Callable[..., tuple[np.ndarray, np.ndarray]]
# Why a row of a log target is -inf: code i + 1 is REJECTIONS[i], 0 a finite row.
# The kernels give the last three; a sampler gives outside_support to the
# points it does not evaluate.
REJECTIONS = ("outside_support", "truncation", "jeffreys_det", "overflow")
OUTSIDE_SUPPORT, TRUNCATION, JEFFREYS_DET, OVERFLOW = 1, 2, 3, 4

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


def _rejected(values: np.ndarray, reasons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark the rows whose value is not finite and has no reason yet as overflow; -inf where any."""
    reasons[(reasons == 0) & ~np.isfinite(values)] = OVERFLOW
    values[reasons != 0] = -math.inf
    return values, reasons


def conjugate_log_kernel(a: float, b: float, c: float) -> RowKernel:
    """(a - 1)*ln(lambda) - nu*b - c*ln Z as a formula over rows, unvalidated.

    The conjugate prior's log kernel and, at shifted (a, b, c), every conjugate
    and flat posterior's. Each row's series is its ln Z, as
    core.series_arrays gives it, nan where the series could not be summed:
    that row is -inf for truncation. c = 0 (flat prior, no data) reads no
    series.
    """
    a1 = a - 1.0

    def kernel(log_lam, nu, log_z, sums):
        reasons = np.zeros(log_lam.size, dtype=np.int8)
        with np.errstate(all="ignore"):
            values = a1 * log_lam - nu * b
            if c != 0.0:
                values = values - c * log_z
                reasons[np.isnan(log_z)] = TRUNCATION
        return _rejected(values, reasons)

    return kernel


def scaled_information_det(e_x, e_x2, e_g, e_g2, e_xg):
    """lambda^2 times the information determinant: Var(X)Var(G) - Cov(X, G)^2, G = ln X!.

    Takes the five CmpMoments expectations in its order, as floats or arrays.
    """
    cov = e_xg - e_x * e_g
    return (e_x2 - e_x * e_x) * (e_g2 - e_g * e_g) - cov * cov


def jeffreys_log_kernel(s1: float, s2: float, n: int) -> RowKernel:
    """Jeffreys log density plus S1*ln(lambda) - nu*S2 - n*ln Z as a formula over rows.

    Unvalidated: nu must be positive. Each row's series is its ln Z and
    moment sums, as core.series_arrays gives them, nan where the series could
    not be summed. One series gives the information determinant and ln Z. A
    row is -inf where its series is nan (truncation), where the determinant
    is not positive and finite (jeffreys_det: the density is undefined there,
    nothing is clamped) and where the arithmetic overflows.
    """
    def kernel(log_lam, nu, log_z, sums):
        reasons = np.zeros(log_lam.size, dtype=np.int8)
        with np.errstate(all="ignore"):
            det = scaled_information_det(*sums.T)
            values = (0.5 * np.log(det) - log_lam) + (s1 * log_lam - nu * s2 - n * log_z)
        reasons[~((det > 0.0) & np.isfinite(det))] = JEFFREYS_DET
        reasons[np.isnan(log_z)] = TRUNCATION
        return _rejected(values, reasons)

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
    det = scaled_information_det(*sums)
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
    return scaled_information_det(*sums) / params.lam**2
