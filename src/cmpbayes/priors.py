"""Prior specifications for (lambda, nu): conjugate family, flat, and Jeffreys.

The conjugate family has kernel

    pi(lambda, nu) ∝ lambda^(a-1) * exp(-nu*b) * Z(lambda, nu)^(-c),

proper for a, b, c > 0 iff b/c exceeds a floor-interpolation bound (see
propriety_bound). The flat prior lambda^(-1) is the (improper) limit of the
conjugate kernel as (a, b, c) -> 0. The Jeffreys prior is the square root of
the determinant of the single-observation Fisher information, assembled from
the moments of X and ln X!. Both log kernels take (ln lambda, nu) and
evaluate one ln Z series; posterior.log_kernel picks one per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from scipy.special import gammaln

from .core import CmpMoments, CmpParams, TruncationPolicy, DEFAULT_POLICY, log_normalizer_at
from .core import moments, moments_at
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

PRESET_NAMES = ("conj-1", "conj-data", "conj-0.1", "conj-0.01", "flat", "jeffreys")


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
    """The six study priors, keyed by their CLI-facing names.

    conj-data is the two-hypothetical-observations prior built from counts
    [2, 0], i.e. (a, b, c) = (2, ln 2, 2); the other conjugate presets set
    a = b = c. flat and jeffreys are improper.
    """
    return [
        ("conj-1", Conjugate(ConjugateHyper(1.0, 1.0, 1.0))),
        ("conj-data", Conjugate(ConjugateHyper(2.0, math.log(2.0), 2.0))),
        ("conj-0.1", Conjugate(ConjugateHyper(0.1, 0.1, 0.1))),
        ("conj-0.01", Conjugate(ConjugateHyper(0.01, 0.01, 0.01))),
        ("flat", Flat()),
        ("jeffreys", Jeffreys()),
    ]


def get_preset(name: str) -> PriorSpec:
    for preset_name, spec in preset_priors():
        if preset_name == name:
            return spec
    raise KeyError(f"unknown prior preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def conjugate_log_kernel(a: float, b: float, c: float, log_lam: float, nu: float,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """(a - 1)*ln(lambda) - nu*b - c*ln Z at (ln lambda, nu), unvalidated.

    The conjugate prior's log kernel and, at shifted (a, b, c), every conjugate
    and flat posterior's. c = 0 (flat prior, no data) needs no series.
    """
    out = (a - 1.0) * log_lam - nu * b
    if c == 0.0:
        return out
    return out - c * log_normalizer_at(log_lam, nu, policy)


def _scaled_information_det(m: CmpMoments) -> float:
    """lambda^2 times the information determinant: Var(X)Var(ln X!) - Cov(X, ln X!)^2."""
    return m.var_x * m.var_lnfact - m.cov_x_lnfact**2


def jeffreys_log_kernel(s1: float, s2: float, n: int, log_lam: float, nu: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Jeffreys log density plus S1*ln(lambda) - nu*S2 - n*ln Z, unvalidated.

    One series gives the information determinant and ln Z. Raises
    NonpositiveDeterminantError where the determinant is not positive and
    finite (the density is undefined there, nothing is clamped). Requires nu > 0.
    """
    if nu <= 0.0:
        raise InvalidParamsError("Jeffreys prior requires nu > 0")
    m = moments_at(log_lam, nu, policy)
    det = _scaled_information_det(m)
    if not (det > 0.0 and math.isfinite(det)):
        raise NonpositiveDeterminantError(
            f"information determinant not positive at (ln lambda={log_lam}, nu={nu})"
        )
    return (0.5 * math.log(det) - log_lam) + (s1 * log_lam - nu * s2 - n * m.log_z)


def jeffreys_information_det(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Determinant of the single-observation Fisher information matrix.

    det = [Var(X)/lambda^2] * Var(lnX!) - [Cov(X, lnX!)/lambda]^2.
    """
    return _scaled_information_det(moments(params, policy)) / params.lam**2

