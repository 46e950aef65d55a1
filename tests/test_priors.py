import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from cmpbayes import (
    CmpParams,
    Conjugate,
    ConjugateHyper,
    Flat,
    InvalidParamsError,
    Jeffreys,
    NonpositiveDeterminantError,
    PRESET_NAMES,
    SufficientStats,
    TruncationPolicy,
    bundled_dataset,
    conjugate_propriety,
    get_preset,
    jeffreys_information_det,
    log_likelihood,
    log_normalizer,
    log_prior_density,
    preset_priors,
    propriety_bound,
    sufficient_stats,
)
from cmpbayes.posterior import log_kernel

STUDY_GRID = [(lam, nu) for lam in (0.5, 3.0, 4.0) for nu in (0.5, 1.0, 2.0)]

# Frozen Jeffreys log density at (4, 1): 0.5*ln(det) with the information
# entries computed from brute-force Poisson(4) moment sums at 50-digit
# precision (det = [Var(X)/16]*Var(lnX!) - [Cov(X, lnX!)/4]^2).
JEFFREYS_LOGDENS_4_1 = -1.1653947284962804


class TestConjugatePropriety:
    def test_unit_hyper(self):
        assert conjugate_propriety(ConjugateHyper(1.0, 1.0, 1.0))

    def test_two_observation_prior(self):
        assert conjugate_propriety(ConjugateHyper(2.0, math.log(2.0), 2.0))

    def test_tiny_hyper(self):
        assert conjugate_propriety(ConjugateHyper(0.1, 0.1, 0.1))

    def test_tiny_b_passes_zero_b_rejected(self):
        assert conjugate_propriety(ConjugateHyper(1.0, 1e-12, 1.0))
        with pytest.raises(InvalidParamsError):
            ConjugateHyper(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("k", [0.01, 0.1, 1.0, 10.0])
    def test_equal_hyper_always_proper(self, k):
        assert conjugate_propriety(ConjugateHyper(k, k, k))

    @pytest.mark.parametrize("x", [1, 2, 3, 5])
    def test_single_point_construction_unobtainable(self, x):
        # c = 1 with a = x' requires b > ln(x'!); b = ln(x'!) sits on the
        # excluded boundary, so no single hypothetical observation works
        b_boundary = float(gammaln(x + 1.0))
        if x == 1:
            with pytest.raises(InvalidParamsError):
                ConjugateHyper(1.0, b_boundary, 1.0)  # ln(1!) = 0 is not > 0
        else:
            assert not conjugate_propriety(ConjugateHyper(float(x), b_boundary, 1.0))
        assert conjugate_propriety(ConjugateHyper(float(x), b_boundary + 1e-9, 1.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t, s = rng.uniform(0.05, 6.0, size=2)
            c = rng.uniform(0.05, 50.0)
            assert conjugate_propriety(ConjugateHyper(c * t, c * s, c)) == \
                conjugate_propriety(ConjugateHyper(t, s, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3),
           k=st.floats(1e-3, 1e3))
    def test_verdict_is_invariant_under_scaling(self, a, b, c, k):
        # the verdict reads only a/c and b/c; where its two sides are within rounding
        # of each other, the rounding of the scaled ratios would decide it
        lhs, rhs = propriety_bound(ConjugateHyper(a, b, c))
        assume(abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)))
        assert conjugate_propriety(ConjugateHyper(k * a, k * b, k * c)) == \
            conjugate_propriety(ConjugateHyper(a, b, c))

    def test_bound_sides(self):
        lhs, rhs = propriety_bound(ConjugateHyper(1.0, 1.0, 1.0))
        assert lhs == 1.0 and rhs == 0.0
        lhs, rhs = propriety_bound(ConjugateHyper(3.0, 0.1, 1.0))
        assert_allclose(rhs, math.log(6.0), rtol=1e-12)
        assert not conjugate_propriety(ConjugateHyper(3.0, 0.1, 1.0))


class TestPresets:
    def test_six_presets(self):
        # the study's prior order; records and stream ids follow it
        assert PRESET_NAMES == ("conj-1", "conj-data", "conj-0.1", "conj-0.01", "flat", "jeffreys")
        assert [name for name, _ in preset_priors()] == list(PRESET_NAMES)

    def test_conj_data_values(self):
        spec = get_preset("conj-data")
        assert spec.hyper == ConjugateHyper(2.0, math.log(2.0), 2.0)

    def test_conjugate_presets_proper(self):
        for name, spec in preset_priors():
            if isinstance(spec, Conjugate):
                assert conjugate_propriety(spec.hyper), name

    def test_improper_presets_tagged(self):
        assert isinstance(get_preset("flat"), Flat)
        assert isinstance(get_preset("jeffreys"), Jeffreys)
        with pytest.raises(KeyError):
            get_preset("nope")


class TestLogPriorDensity:
    def test_flat(self):
        assert log_prior_density(Flat(), CmpParams(1.0, 7.0)) == 0.0
        assert_allclose(log_prior_density(Flat(), CmpParams(math.e, 0.2)), -1.0,
                        rtol=1e-12)

    def test_conjugate_unit(self):
        for lam, nu in ((1.0, 1.0), (3.0, 0.5), (0.5, 2.0)):
            p = CmpParams(lam, nu)
            expected = -nu - log_normalizer(p)
            assert_allclose(log_prior_density(Conjugate(ConjugateHyper(1, 1, 1)), p),
                            expected, rtol=1e-12)

    def test_jeffreys_moment_sum_oracle(self):
        assert_allclose(log_prior_density(Jeffreys(), CmpParams(4.0, 1.0)),
                        JEFFREYS_LOGDENS_4_1, rtol=1e-9)

    def test_conjugate_limit_to_flat(self):
        eps = 1e-6
        p = CmpParams(2.0, 1.5)
        conj = log_prior_density(Conjugate(ConjugateHyper(eps, eps, eps)), p)
        flat = log_prior_density(Flat(), p)
        assert abs(conj - flat) < 1e-4

    def test_jeffreys_requires_positive_nu(self):
        with pytest.raises(InvalidParamsError):
            log_prior_density(Jeffreys(), CmpParams(0.5, 0.0))

    def test_jeffreys_zero_determinant_raises(self):
        # nu = 1e8 is the Bernoulli limit: ln X! is 0 on the support, so det = 0
        with pytest.raises(NonpositiveDeterminantError):
            log_prior_density(Jeffreys(), CmpParams(1.0, 1e8))

    def test_flat_reads_no_series(self):
        # -ln(lambda) holds even where the ln Z series cannot be summed
        assert log_prior_density(Flat(), CmpParams(2.0, 1e-3)) == -math.log(2.0)

    def test_jeffreys_policy_robustness(self):
        coarse = TruncationPolicy(101, 1e-10)
        fine = TruncationPolicy(500, 1e-12)
        for lam, nu in STUDY_GRID:
            p = CmpParams(lam, nu)
            assert abs(log_prior_density(Jeffreys(), p, coarse)
                       - log_prior_density(Jeffreys(), p, fine)) < 1e-6

    def test_information_det_positive_on_grid(self):
        for lam, nu in STUDY_GRID:
            assert jeffreys_information_det(CmpParams(lam, nu)) > 0.0

    # the kernel's exact gradient and Hessian in (ln lambda, nu), which the mode search
    # reads, under each preset, of no data and of textile-faults, against Richardson's
    # extrapolation (4 D(h / 2) - D(h)) / 3 of central differences D of the same rows'
    # values, with steps h of 1e-3 in ln lambda and 1e-3 * nu in nu; its error is O(h^4),
    # where D(h)'s own O(h^2) error passed rtol at large u and small nu: the conjugate
    # kernel's from its moment sums, and J = 0.5 ln(lambda^2 det I)'s from the series'
    # central moments
    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(-2.0, 2.0), nu=st.floats(0.5, 3.0))
    def test_jeffreys_derivatives_match_central_differences(self, u, nu):
        du, dn = 1e-3, 1e-3 * nu
        steps = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        grid_u, grid_nu = (x.ravel() for x in np.meshgrid(u + du * steps, nu + dn * steps,
                                                          indexing="ij"))
        data = {"no data": SufficientStats.empty(),
                "textile-faults": sufficient_stats(bundled_dataset("textile-faults").counts)}

        def differences(j, s):
            """Central differences of j's values s grid points from its middle, s / 2 steps."""
            hu, hn = 0.5 * s * du, 0.5 * s * dn
            cross = (j[2 + s, 2 + s] - j[2 + s, 2 - s] - j[2 - s, 2 + s]
                     + j[2 - s, 2 - s]) / (4 * hu * hn)
            grad = [(j[2 + s, 2] - j[2 - s, 2]) / (2 * hu), (j[2, 2 + s] - j[2, 2 - s]) / (2 * hn)]
            hess = [[(j[2 + s, 2] - 2 * j[2, 2] + j[2 - s, 2]) / hu ** 2, cross],
                    [cross, (j[2, 2 + s] - 2 * j[2, 2] + j[2, 2 - s]) / hn ** 2]]
            return np.array(grad), np.array(hess)

        for (case, stats), name in itertools.product(data.items(), PRESET_NAMES):
            rows = log_kernel(get_preset(name), stats, TruncationPolicy())
            (value,), _, ((grad,), (hess,)) = rows(np.array([u]), np.array([nu]), True)
            # j[2 + 2 i, 2 + 2 k] at (u + i du, nu + k dn), i and k in -1, -1/2, 0, 1/2, 1
            j = rows(grid_u, grid_nu)[0].reshape(5, 5)
            assert value == j[2, 2], (case, name)
            (grad_half, hess_half), (grad_whole, hess_whole) = differences(j, 1), differences(j, 2)
            assert_allclose(grad, (4 * grad_half - grad_whole) / 3,
                            rtol=1e-5, atol=1e-5 * np.abs(grad).max(), err_msg=f"{case}, {name}")
            assert_allclose(hess, (4 * hess_half - hess_whole) / 3,
                            rtol=1e-4, atol=1e-4 * np.abs(hess).max(), err_msg=f"{case}, {name}")


class TestConjugacyProperty:
    def test_prior_times_likelihood_matches_updated_prior(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 9, size=20)
        stats = sufficient_stats(data)
        h = ConjugateHyper(1.3, 0.8, 2.0)
        updated = ConjugateHyper(h.a + stats.s1, h.b + stats.s2, h.c + stats.n)
        diffs = []
        for lam in np.linspace(0.8, 6.0, 5):
            for nu in np.linspace(0.3, 2.5, 5):
                p = CmpParams(lam, nu)
                lhs = log_prior_density(Conjugate(h), p) + log_likelihood(stats, p)
                rhs = log_prior_density(Conjugate(updated), p)
                diffs.append(lhs - rhs)
        assert np.var(diffs) < 1e-10
