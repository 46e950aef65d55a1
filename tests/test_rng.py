import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmpbayes import (
    CmpParams,
    InvalidParamsError,
    SeedSpec,
    chi_square_gof,
    dispersion_ratio,
    make_generator,
    pmf_table,
    sample_cmp,
)

STUDY_SETTINGS = [(4.0, 1.0), (3.0, 0.5), (3.0, 2.0)]


class TestSeedSpec:
    def test_valid(self):
        SeedSpec(0)
        SeedSpec(2**64 - 1, 12)

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            SeedSpec(-1)
        with pytest.raises(InvalidParamsError):
            SeedSpec(0, 2**64)

    def test_integers_only(self):
        # SeedSpec(1.5) would name SeedSpec(1)'s streams; numpy integers name their own
        SeedSpec(np.uint64(2**64 - 1), np.int64(3))
        for bad in (1.5, 1.0, np.float64(2.0), "1", None):
            with pytest.raises(InvalidParamsError):
                SeedSpec(bad)
            with pytest.raises(InvalidParamsError):
                SeedSpec(0, bad)


class TestStreams:
    def test_streams_reproducible(self):
        a = make_generator(5, 1, 2).random(8)
        b = make_generator(5, 1, 2).random(8)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = make_generator(5, 1).random(8)
        b = make_generator(5, 2).random(8)
        c = make_generator(6, 1).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_path_length_matters(self):
        a = make_generator(5, 1).random(8)
        b = make_generator(5, 1, 0).random(8)
        assert not np.array_equal(a, b)


class TestSampleCmp:
    def test_determinism(self):
        p = CmpParams(3.0, 0.5)
        a = sample_cmp(p, 1000, SeedSpec(9, 3))
        b = sample_cmp(p, 1000, SeedSpec(9, 3))
        assert np.array_equal(a, b)

    def test_poisson_moments(self):
        x = sample_cmp(CmpParams(4.0, 1.0), 100_000, SeedSpec(1, 0))
        assert abs(x.mean() - 4.0) < 0.05
        assert 0.93 < dispersion_ratio(x) < 1.07

    def test_underdispersed_direction(self):
        x = sample_cmp(CmpParams(3.0, 2.0), 100_000, SeedSpec(1, 1))
        assert dispersion_ratio(x) < 1.0

    def test_overdispersed_direction(self):
        x = sample_cmp(CmpParams(3.0, 0.5), 100_000, SeedSpec(1, 2))
        assert dispersion_ratio(x) > 1.0

    def test_dispersion_of_all_zero_draws_is_nan(self):
        assert math.isnan(dispersion_ratio(np.zeros(50, dtype=np.int64)))

    def test_empirical_pmf_matches_exact(self):
        p = CmpParams(3.0, 0.5)
        x = sample_cmp(p, 100_000, SeedSpec(1, 3))
        exact = pmf_table(p)
        for cell in range(11):
            empirical = float((x == cell).mean())
            assert abs(empirical - exact[cell]) < 0.005

    def test_draws_within_table(self):
        for lam, nu in STUDY_SETTINGS:
            p = CmpParams(lam, nu)
            x = sample_cmp(p, 50_000, SeedSpec(2, 4))
            assert x.min() >= 0
            assert x.max() < pmf_table(p).size

    def test_count_validation(self):
        with pytest.raises(InvalidParamsError):
            sample_cmp(CmpParams(3.0, 0.5), 0, SeedSpec(0))

    @pytest.mark.parametrize("lam,nu", STUDY_SETTINGS)
    def test_chi_square_gof(self, lam, nu):
        p = CmpParams(lam, nu)
        x = sample_cmp(p, 100_000, SeedSpec(3, 7))
        stat, critical, ok = chi_square_gof(x, p, alpha=0.001)
        assert ok, f"chi2 {stat:.1f} > critical {critical:.1f} at ({lam}, {nu})"
