import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from cmpbayes import (
    CmpParams,
    InvalidParamsError,
    SufficientStats,
    TruncationError,
    TruncationPolicy,
    log_likelihood,
    log_normalizer,
    log_pmf,
    logz_hessian,
    moments,
    pmf_table,
    sufficient_stats,
)
from cmpbayes.core import MAX_TERMS, series_arrays

# lambda x nu grid containing all three simulation-study settings
STUDY_GRID = [(lam, nu) for lam in (0.5, 3.0, 4.0) for nu in (0.5, 1.0, 2.0)]

# High-precision policy for finite-difference stencils: fixed large grid so
# the adaptive term count cannot flip between stencil evaluations.
FD_POLICY = TruncationPolicy(base_terms=2048, tail_tol=1e-14)

# Frozen from an independent 500-term series summed at 50-digit precision
# (mpmath: log(sum_j exp(j*log(lam) - nu*loggamma(j+1)))).
LNZ_3_HALF = 5.8470568195952737
MOMENTS_3_HALF = {
    "e_x": 9.5209127661960817,
    "e_x2": 108.58582223784395,
    "e_lnfact": 14.905040038526626,
    "e_lnfact2": 319.99354170888705,
    "e_x_lnfact": 183.45611770619246,
}
# ln Z on sized grids, frozen the same way (50 digits, summed until the terms
# fall e^-200 below the largest) at ln lambda = math.log(lam), as the float
# log_normalizer reads: (lam, nu) -> ln Z, with the term mode lambda^(1/nu)
LNZ_SIZED = {
    (30.0, 0.7): 91.396053795976592976,  # mode 129
    (math.exp(2.5), math.exp(-1.0)): 332.1124469345213812,  # mode 894
    (20.0, 0.75): 41.588675234837373306,  # mode 54
    (2.0, 0.12): 43.114036756928590536,  # mode 322
}


class TestParams:
    def test_valid(self):
        CmpParams(3.0, 0.5)
        CmpParams(0.5, 0.0)
        CmpParams(1e-6, 100.0)

    @pytest.mark.parametrize("lam,nu", [(0.0, 1.0), (-1.0, 1.0), (3.0, -0.1),
                                        (1.0, 0.0), (2.5, 0.0), (math.inf, 1.0),
                                        (1.0, math.nan)])
    def test_invalid(self, lam, nu):
        with pytest.raises(InvalidParamsError):
            CmpParams(lam, nu)

    def test_policy_validation(self):
        with pytest.raises(InvalidParamsError):
            TruncationPolicy(base_terms=1)
        with pytest.raises(InvalidParamsError):
            TruncationPolicy(base_terms=MAX_TERMS + 1)
        assert TruncationPolicy(base_terms=MAX_TERMS).base_terms == MAX_TERMS
        assert [f.name for f in fields(TruncationPolicy)] == ["base_terms", "tail_tol"]
        with pytest.raises(InvalidParamsError):
            TruncationPolicy(tail_tol=0.0)


class TestLogNormalizer:
    def test_poisson(self):
        assert log_normalizer(CmpParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        for lam in (0.1, 0.5, 2.0, 4.0):
            assert_allclose(log_normalizer(CmpParams(lam, 1.0)), lam, atol=1e-12)

    def test_geometric(self):
        assert_allclose(log_normalizer(CmpParams(0.5, 0.0)), math.log(2.0), atol=1e-12)
        for lam in (0.1, 0.5, 0.9):
            assert_allclose(log_normalizer(CmpParams(lam, 0.0)),
                            -math.log1p(-lam), atol=1e-10)

    def test_bernoulli_limit(self):
        for lam in (0.1, 0.5, 2.0, 4.0):
            assert_allclose(log_normalizer(CmpParams(lam, 1e8)),
                            math.log1p(lam), atol=1e-9)

    def test_series_oracle(self):
        assert_allclose(log_normalizer(CmpParams(3.0, 0.5)), LNZ_3_HALF, rtol=1e-12)

    @pytest.mark.parametrize("lam, nu", list(LNZ_SIZED))
    def test_sized_series_oracle(self, lam, nu):
        # a sized grid ends at the first length-ladder rung past the row's reach, where
        # its terms have fallen 53 ln 2 + 3 log-units, so its omitted tail is far below
        # one ulp of ln Z
        assert_allclose(log_normalizer(CmpParams(lam, nu)), LNZ_SIZED[lam, nu], rtol=1e-14)

    def test_truncation_not_converged(self):
        # near-geometric with lambda > 1: the series mode sits far beyond any cap
        with pytest.raises(TruncationError):
            log_normalizer(CmpParams(1.01, 1e-4))

    def test_monotone_in_lambda(self):
        for nu in (0.0, 0.5, 1.0, 2.0):
            lams = [0.1, 0.3, 0.5, 0.9] if nu == 0.0 else [0.5, 1.0, 3.0, 8.0]
            vals = [log_normalizer(CmpParams(lam, nu)) for lam in lams]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_in_nu(self):
        for lam in (0.5, 3.0, 4.0):
            nus = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0] if lam < 1 else [0.25, 0.5, 1.0, 2.0, 5.0]
            vals = [log_normalizer(CmpParams(lam, nu)) for nu in nus]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_base_terms_robustness(self):
        for lam, nu in STUDY_GRID:
            z101 = log_normalizer(CmpParams(lam, nu), TruncationPolicy(base_terms=101))
            z500 = log_normalizer(CmpParams(lam, nu), TruncationPolicy(base_terms=500))
            assert abs(z101 - z500) < 1e-8


class TestLogPmf:
    def test_zero_count(self):
        p = CmpParams(3.0, 0.5)
        assert log_pmf(0, p) == pytest.approx(-log_normalizer(p), rel=1e-15)

    def test_poisson_pmf(self):
        assert_allclose(log_pmf(3, CmpParams(4.0, 1.0)),
                        3 * math.log(4.0) - 4.0 - math.log(6.0), atol=1e-12)
        for lam in (0.5, 3.0, 4.0, 10.0):
            for x in range(0, 51, 5):
                expected = x * math.log(lam) - lam - float(gammaln(x + 1.0))
                assert_allclose(log_pmf(x, CmpParams(lam, 1.0)), expected, atol=1e-10)

    def test_geometric_pmf(self):
        assert_allclose(log_pmf(2, CmpParams(0.5, 0.0)), math.log(0.125), atol=1e-12)
        for lam in (0.1, 0.5, 0.9):
            for x in (0, 1, 2, 5, 10, 40):
                expected = x * math.log(lam) + math.log1p(-lam)
                assert_allclose(log_pmf(x, CmpParams(lam, 0.0)), expected, atol=1e-10)

    def test_normalization(self):
        for lam, nu in STUDY_GRID:
            total = pmf_table(CmpParams(lam, nu)).sum()
            assert abs(total - 1.0) < 1e-8

    def test_invalid_x(self):
        # nan and inf are refused before int(x) sees them, and a count past float range
        # before a float product with it overflows
        for x, match in ((-1, "got -1"), (math.nan, "got nan"), (math.inf, "got inf"),
                         (10**400, "float range, got an integer of 1329 bits")):
            with pytest.raises(InvalidParamsError, match=match):
                log_pmf(x, CmpParams(3.0, 0.5))


class TestLogLikelihood:
    def test_single_observation_is_pmf(self):
        p = CmpParams(3.0, 0.5)
        stats = SufficientStats(n=1, s1=0, s2=0.0)
        assert log_likelihood(stats, p) == pytest.approx(log_pmf(0, p), rel=1e-15)

    def test_direct_substitution(self):
        stats = SufficientStats(n=2, s1=2, s2=math.log(2.0))
        assert_allclose(log_likelihood(stats, CmpParams(1.0, 1.0)),
                        -math.log(2.0) - 2.0, atol=1e-12)

    def test_per_point_sum_oracle(self):
        data = [3, 1, 4, 1, 5]
        p = CmpParams(3.0, 0.5)
        expected = sum(log_pmf(x, p) for x in data)
        assert_allclose(log_likelihood(sufficient_stats(data), p), expected, rtol=1e-12)

    def test_empty_stats(self):
        assert log_likelihood(SufficientStats.empty(), CmpParams(3.0, 0.5)) == 0.0


class TestMoments:
    def test_poisson_mean_variance(self):
        m = moments(CmpParams(4.0, 1.0))
        assert_allclose(m.e_x, 4.0, atol=1e-8)
        assert_allclose(m.var_x, 4.0, atol=1e-8)

    def test_geometric_mean(self):
        m = moments(CmpParams(0.5, 0.0))
        assert_allclose(m.e_x, 1.0, atol=1e-8)

    def test_overdispersed_oracle(self):
        m = moments(CmpParams(3.0, 0.5))
        for field, expected in MOMENTS_3_HALF.items():
            assert_allclose(getattr(m, field), expected, rtol=1e-10)
        assert m.var_x > m.e_x  # over-dispersion for nu < 1

    def test_variances_nonnegative(self):
        for lam, nu in STUDY_GRID + [(0.5, 0.0), (2.0, 1e8)]:
            m = moments(CmpParams(lam, nu))
            assert m.var_x >= 0.0
            assert m.var_lnfact >= 0.0


def fd_derivs(lam, nu, h1=1e-5, h2=1e-3):
    """Central finite differences of log_normalizer under the fixed-grid policy."""
    def f(l, n):
        return log_normalizer(CmpParams(l, n), FD_POLICY)

    return {
        "d_lam": (f(lam + h1, nu) - f(lam - h1, nu)) / (2 * h1),
        "d_nu": (f(lam, nu + h1) - f(lam, nu - h1)) / (2 * h1),
        "d2_lam2": (f(lam + h2, nu) - 2 * f(lam, nu) + f(lam - h2, nu)) / h2**2,
        "d2_nu2": (f(lam, nu + h2) - 2 * f(lam, nu) + f(lam, nu - h2)) / h2**2,
        "d2_lam_nu": (f(lam + h2, nu + h2) - f(lam + h2, nu - h2)
                      - f(lam - h2, nu + h2) + f(lam - h2, nu - h2)) / (4 * h2 * h2),
    }


class TestLogZHessian:
    def test_poisson_first_partial(self):
        d = logz_hessian(CmpParams(4.0, 1.0))
        assert_allclose(d.d_lam, 1.0, atol=1e-10)

    def test_finite_difference_oracle_spec_example(self):
        # all five partials at (3, 0.5), step 1e-5, relative tolerance 1e-4
        d = logz_hessian(CmpParams(3.0, 0.5))
        fd = fd_derivs(3.0, 0.5, h1=1e-5, h2=1e-5)
        for key, fd_value in fd.items():
            assert_allclose(getattr(d, key), fd_value, rtol=1e-4)

    @pytest.mark.parametrize("lam", [3.0, 4.0])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_finite_difference_grid(self, lam, nu):
        d = logz_hessian(CmpParams(lam, nu))
        fd = fd_derivs(lam, nu)
        for key, fd_value in fd.items():
            # atol floor for d2_lam2 at nu=1, which is exactly 0 (Var = E)
            assert_allclose(getattr(d, key), fd_value, rtol=1e-4, atol=1e-7)

    def test_geometric_nu_variance_nonnegative(self):
        d = logz_hessian(CmpParams(0.5, 0.0))
        assert d.d2_nu2 >= 0.0


class TestAdaptiveTruncation:
    def test_slow_geometric_decay_extends(self):
        # at (0.9, 0) the base 101-term grid is not enough for 1e-10 accuracy
        p = CmpParams(0.9, 0.0)
        table = pmf_table(p)
        assert table.size > 101
        assert_allclose(log_normalizer(p), -math.log1p(-0.9), atol=1e-10)

    def test_geometric_rows_are_summed_to_the_ulp(self):
        # a geometric row is sized from its tail, so it omits less than 2^-53 of its
        # weights wherever that length is below the cap: ln Z is -log1p(-lambda) to 2
        # ulp from lambda = 0.5 up (below it, one block omits less than 2^-100, and
        # what error there is comes from rounding ln lambda); at lambda = 0.796 one
        # block would pass the tail test 6.2e-11 low
        cap = math.exp(-53.0 * math.log(2.0) / (MAX_TERMS - 2))
        lam = np.concatenate(([0.7960590295147574], np.linspace(0.5, cap, 2001)))
        log_z, _, _ = series_arrays(np.log(lam), np.zeros(lam.size))
        ref = -np.log1p(-lam)
        assert (np.abs(log_z - ref) <= 2 * np.spacing(ref)).all()
        assert log_normalizer(CmpParams(lam[0], 0.0)) == log_z[0]

    def test_grid_reuse_consistency(self):
        # moment weights are the normalized pmf on the lnZ grid
        p = CmpParams(3.0, 0.5)
        table = pmf_table(p)
        j = np.arange(table.size)
        assert_allclose((j * table).sum(), moments(p).e_x, rtol=1e-12)
