"""Prior specifications for (lambda, nu): conjugate family, flat, and Jeffreys.

The conjugate family has kernel

    pi(lambda, nu) ∝ lambda^(a-1) * exp(-nu*b) * Z(lambda, nu)^(-c),

proper for a, b, c > 0 iff b/c exceeds a floor-interpolation bound
(conjugate_propriety; posterior.check_propriety applies it to any posterior).
The flat prior lambda^(-1) is the (improper) limit of the conjugate kernel as
(a, b, c) -> 0. The Jeffreys prior is the square root of the determinant of
the single-observation Fisher information, from the second moments of X and
ln X! (core.CmpMoments). The priors' log densities, and the posteriors', are one
formula over many points, posterior.log_kernel; REJECTIONS names why it is
-inf at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln

from .core import CmpParams, TruncationPolicy, DEFAULT_POLICY, moments
from .core import log_normalizer, logz_hessian  # noqa: F401  (names bench/spans.py patches)
from .errors import InvalidParamsError


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
# Why a row of a log target is -inf: code i + 1 is REJECTIONS[i], 0 a finite row.
# posterior.log_kernel gives the last three; a sampler gives outside_support to
# the points it does not evaluate.
REJECTIONS = ("outside_support", "truncation", "jeffreys_det", "overflow")
OUTSIDE_SUPPORT, TRUNCATION, JEFFREYS_DET, OVERFLOW = range(1, len(REJECTIONS) + 1)

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


def jeffreys_derivatives(mu, beta):
    """The gradient and Hessian of J = 0.5 ln(lambda^2 det I) in (ln lambda, nu) at a row.

    lambda^2 det I = det Sigma, Sigma = Cov(s), and ln Z is s's cumulant function, so
    d_k Sigma_ij = k3_ijk and d_k d_l Sigma_ij = k4_ijkl: d_k J = 0.5 tr(Sigma^-1 k3_k),
    d_k d_l J = 0.5 [tr(Sigma^-1 k4_kl) - tr(Sigma^-1 k3_k Sigma^-1 k3_l)]. k4 is the
    fourth central moment less Sigma_ij Sigma_kl + Sigma_ik Sigma_jl + Sigma_il Sigma_jk,
    which Sigma^-1 contracts to 4 Sigma_kl. mu is a row's core.central_moments at beta,
    of s = T (X, -ln X!), T = [[1, 0], [-beta, 1]]: det T = 1, and the derivatives in
    s's natural parameter T^-T (ln lambda, nu) are mapped back by T^-1. The moment of
    order m with q indices on the second coordinate is mu[start + q], start = 0, 3, 7 for
    m = 2, 3, 4; each contraction is a float sum over its indices in lexicographic order.
    """
    m = mu.tolist()
    det = m[0] * m[2] - m[1] * m[1]
    inverse = ((m[2] / det, -m[1] / det), (-m[1] / det, m[0] / det))
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    d = [[[sum(inverse[i][a] * m[3 + a + j + k] for a in (0, 1)) for k in (0, 1)]
          for j in (0, 1)] for i in (0, 1)]  # d[i][j][k] = (Sigma^-1 k3_k)_ij
    gradient = [0.5 * sum(d[i][i][k] for i in (0, 1)) for k in (0, 1)]
    hessian = [[0.5 * ((sum(inverse[i][j] * m[7 + i + j + k + l] for i, j in pairs)
                        - 4.0 * m[k + l]) - sum(d[i][j][k] * d[j][i][l] for i, j in pairs))
                for l in (0, 1)] for k in (0, 1)]
    back = np.array([[1.0, 0.0], [beta, 1.0]])
    return back @ np.array(gradient), back @ np.array(hessian) @ back.T


def jeffreys_information_det(params: CmpParams, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Determinant of the single-observation Fisher information matrix.

    det = [Var(X)/lambda^2] * Var(lnX!) - [Cov(X, lnX!)/lambda]^2, as posterior.log_kernel's.
    """
    m = moments(params, policy)
    cov = m.cov_x_lnfact
    return (m.var_x * m.var_lnfact - cov * cov) / params.lam**2
