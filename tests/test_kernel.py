"""Property tests for the one-series log kernel and the sampler's target."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from cmpbayes import (
    CmpParams,
    Conjugate,
    ConjugateHyper,
    Flat,
    Jeffreys,
    SufficientStats,
    TruncationError,
    TruncationPolicy,
    log_normalizer,
    log_posterior,
    moments,
    pmf_table,
    sufficient_stats,
)
from cmpbayes.errors import NonpositiveDeterminantError
from cmpbayes.mcmc import NU_FLOOR, _make_target, _mh_step

POLICY = TruncationPolicy()
STATS = sufficient_stats([0, 1, 1, 2, 3, 3, 4, 6, 2, 1, 0, 5])
SPECS = [Conjugate(ConjugateHyper(1.0, 1.0, 1.0)), Flat(), Jeffreys()]


def converged_grid_size(p):
    try:
        return pmf_table(p, POLICY).size
    except TruncationError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(lam=st.floats(0.05, 40.0), nu=st.floats(0.5, 4.0))
@example(lam=30.0, nu=0.7)  # grid grows 101 -> 202 -> 404
@example(lam=0.9, nu=0.0)  # geometric case, slow tail
@example(lam=40.0, nu=0.5)  # grows to 3232 terms
def test_log_normalizer_matches_fresh_gammaln(lam, nu):
    p = CmpParams(lam, nu)
    k = converged_grid_size(p)
    j = np.arange(k, dtype=np.float64)
    expected = logsumexp(j * math.log(lam) - nu * gammaln(j + 1.0))
    assert log_normalizer(p, POLICY) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_examples_cover_grown_grids():
    for lam, nu in ((30.0, 0.7), (0.9, 0.0), (40.0, 0.5)):
        assert pmf_table(CmpParams(lam, nu), POLICY).size > POLICY.base_terms


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.05, 40.0), nu=st.floats(0.5, 4.0))
@example(lam=30.0, nu=0.7)
def test_moments_log_z_is_log_normalizer(lam, nu):
    p = CmpParams(lam, nu)
    converged_grid_size(p)
    assert moments(p, POLICY).log_z == log_normalizer(p, POLICY)


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-2.0, 3.5), v=st.floats(-1.0, 1.5), spec=st.sampled_from(SPECS))
def test_target_is_log_posterior_plus_jacobian(u, v, spec):
    target = _make_target(spec, STATS, POLICY)
    try:
        expected = log_posterior(spec, STATS, CmpParams(math.exp(u), math.exp(v)), POLICY)
    except (TruncationError, NonpositiveDeterminantError):
        expected = -math.inf
    else:
        expected += u + v
    assert target(u, v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=["conj", "flat", "jeffreys"])
def test_target_rejections(spec):
    target = _make_target(spec, STATS, POLICY)
    assert math.isfinite(target(1.0, 0.0))
    assert target(1.0, math.log(NU_FLOOR) - 1e-9) == -math.inf  # nu below the floor
    assert target(math.log(2.0), math.log(1e-3)) == -math.inf  # TruncationError
    assert target(800.0, 5.0) == -math.inf  # lambda = e^u overflows
    assert target(-800.0, 0.0) == -math.inf  # lambda = e^u underflows to 0


def test_target_rejects_nonpositive_jeffreys_determinant():
    # nu = 1e8 is the Bernoulli limit: ln X! is 0 on the support, so det = 0
    target = _make_target(Jeffreys(), STATS, POLICY)
    assert target(0.0, math.log(1e8)) == -math.inf


def test_target_rejects_non_finite_value():
    spec = Conjugate(ConjugateHyper(1e308, 1.0, 1.0))
    target = _make_target(spec, SufficientStats.empty(), POLICY)
    assert target(2.0, 0.0) == -math.inf


def test_rejected_proposal_counts_as_divergence():
    g = np.random.default_rng(0)
    x = np.array([1.0, 0.0])
    _, lp, accept_prob, accepted, divergent = _mh_step(
        g, lambda u, v: -math.inf, x, -3.0, 0.5, np.eye(2))
    assert (lp, accept_prob, accepted, divergent) == (-3.0, 0.0, False, True)
