"""Prior specifications for (lambda, nu): conjugate family, flat, and Jeffreys.

The conjugate family has kernel

    pi(lambda, nu) ∝ lambda^(a-1) * exp(-nu*b) * Z(lambda, nu)^(-c),

proper for a, b, c > 0 iff b/c exceeds a floor-interpolation bound (see
propriety_bound). The flat prior lambda^(-1) is the (improper) limit of the
conjugate kernel as (a, b, c) -> 0. The Jeffreys prior is the square root of
the determinant of the single-observation Fisher information, assembled from
the moments of X and ln X!. Both log kernels take (ln lambda, nu) and
evaluate one ln Z series, or take it ready-made from core.series_rows;
posterior.log_kernel picks one per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from scipy.special import gammaln

from .core import CmpParams, TruncationPolicy, DEFAULT_POLICY, log_normalizer_at
from .core import moment_sums_at
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


def conjugate_log_kernel(a: float, b: float, c: float, log_lam: float, nu: float,
                         policy: TruncationPolicy = DEFAULT_POLICY,
                         series: Optional[float] = None) -> float:
    """(a - 1)*ln(lambda) - nu*b - c*ln Z at (ln lambda, nu), unvalidated.

    The conjugate prior's log kernel and, at shifted (a, b, c), every conjugate
    and flat posterior's. c = 0 (flat prior, no data) needs no series. series,
    when given, is ln Z at the point, as log_normalizer_at returns it.
    """
    out = (a - 1.0) * log_lam - nu * b
    if c == 0.0:
        return out
    if series is None:
        series = log_normalizer_at(log_lam, nu, policy)
    return out - c * series


def _scaled_information_det(e_x: float, e_x2: float, e_g: float, e_g2: float,
                            e_xg: float) -> float:
    """lambda^2 times the information determinant: Var(X)Var(G) - Cov(X, G)^2, G = ln X!.

    Takes the five CmpMoments expectations in its order.
    """
    return (e_x2 - e_x**2) * (e_g2 - e_g**2) - (e_xg - e_x * e_g)**2


def jeffreys_log_kernel(s1: float, s2: float, n: int, log_lam: float, nu: float,
                        policy: TruncationPolicy = DEFAULT_POLICY,
                        series: Optional[tuple[list[float], float]] = None) -> float:
    """Jeffreys log density plus S1*ln(lambda) - nu*S2 - n*ln Z, unvalidated.

    One series gives the information determinant and ln Z; series, when given,
    is that series' (moment sums, ln Z) as moment_sums_at returns them. Raises
    NonpositiveDeterminantError where the determinant is not positive and
    finite (the density is undefined there, nothing is clamped). Requires nu > 0.
    """
    if nu <= 0.0:
        raise InvalidParamsError("Jeffreys prior requires nu > 0")
    sums, log_z = moment_sums_at(log_lam, nu, policy) if series is None else series
    det = _scaled_information_det(*sums)
    if not (det > 0.0 and math.isfinite(det)):
        raise NonpositiveDeterminantError(
            f"information determinant not positive at (ln lambda={log_lam}, nu={nu})"
        )
    return (0.5 * math.log(det) - log_lam) + (s1 * log_lam - nu * s2 - n * log_z)


def jeffreys_information_det(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Determinant of the single-observation Fisher information matrix.

    det = [Var(X)/lambda^2] * Var(lnX!) - [Cov(X, lnX!)/lambda]^2.
    """
    sums, _ = moment_sums_at(math.log(params.lam), params.nu, policy)
    return _scaled_information_det(*sums) / params.lam**2
