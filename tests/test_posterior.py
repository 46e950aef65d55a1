import math
import re
import warnings

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
    EmptyDataError,
    Flat,
    ImproperPosteriorError,
    InvalidParamsError,
    Jeffreys,
    NonpositiveDeterminantError,
    SufficientStats,
    TruncationError,
    TruncationPolicy,
    bundled_dataset,
    conjugate_propriety,
    flat_posterior_propriety,
    log_likelihood,
    log_normalizer,
    log_posterior,
    log_prior_density,
    sufficient_stats,
    updated_hyper,
)
from cmpbayes.core import MAX_TERMS
from cmpbayes.posterior import check_propriety
from cmpbayes.priors import propriety_bound


class TestSufficientStats:
    def test_two_zero(self):
        s = sufficient_stats([2, 0])
        assert (s.n, s.s1) == (2, 2)
        assert_allclose(s.s2, math.log(2.0), rtol=1e-15)

    def test_all_ones(self):
        s = sufficient_stats([1, 1, 1])
        assert (s.n, s.s1, s.s2) == (3, 3, 0.0)

    def test_three_four(self):
        s = sufficient_stats([3, 4])
        assert (s.n, s.s1) == (2, 7)
        assert_allclose(s.s2, math.log(6.0) + math.log(24.0), rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            sufficient_stats([])

    def test_negative_rejected(self):
        with pytest.raises(InvalidParamsError):
            sufficient_stats([1, -2])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidParamsError):
            sufficient_stats([1.5, 2.0])

    def test_ndarray_list_and_generator_agree(self):
        counts = [3, 1, 4, 1, 5, 9, 2, 6]
        expected = sufficient_stats(counts)
        assert sufficient_stats(np.array(counts)) == expected
        assert sufficient_stats(np.array(counts, dtype=np.int32)) == expected
        assert sufficient_stats(x for x in counts) == expected
        assert sufficient_stats(tuple(counts)) == expected

    def test_integer_valued_floats_accepted(self):
        expected = sufficient_stats([3, 1, 4])
        assert sufficient_stats(np.array([3.0, 1.0, 4.0])) == expected
        assert sufficient_stats([3.0, 1.0, 4.0]) == expected
        assert sufficient_stats(x for x in [3.0, 1.0, 4.0]) == expected

    @pytest.mark.parametrize("make", [np.array, list, iter], ids=["ndarray", "list", "generator"])
    def test_non_integer_and_negative_refused(self, make):
        with pytest.raises(InvalidParamsError):
            sufficient_stats(make([1.5, 2.0]))
        with pytest.raises(InvalidParamsError):
            sufficient_stats(make([1, -2]))
        with pytest.raises(EmptyDataError):
            sufficient_stats(make([]))

    @pytest.mark.parametrize("make", [np.array, list], ids=["ndarray", "list"])
    def test_sum_past_int64_does_not_wrap(self, make):
        # four counts of 2^62 sum to 2^64, which an int64 sum wraps to 0
        s = sufficient_stats(make([2**62] * 4))
        assert (s.n, s.s1) == (4, 2**64)
        assert sufficient_stats(make([2**62, 2**62 - 1])).s1 == 2**63 - 1  # the last int64

    # datasets.parse_counts' bound, 2^63 - 1, for every input type: a float count
    # is not cast to int64 first (a RuntimeWarning and the wrong reason), an int
    # past uint64 does not escape as a bare OverflowError, and 2^63 is not uint64
    @pytest.mark.parametrize("counts", [
        [1e19], np.array([1e19]), [math.inf], np.array([3.0, math.inf]), [2.0**63],
        [2**63], np.array([2**63], dtype=np.uint64), [2**64], [3, 2**70],
    ], ids=["float-list", "float-ndarray", "inf-list", "inf-ndarray", "float-2^63",
            "int-2^63", "uint64-2^63", "int-2^64", "int-2^70"])
    def test_count_past_int64_refused(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamsError, match=r"^counts must be at most 2\^63 - 1, got "):
                sufficient_stats(counts)

    @pytest.mark.parametrize("counts", [[-math.inf], np.array([-math.inf, 2.0]), [-2**64]],
                             ids=["-inf-list", "-inf-ndarray", "int--2^64"])
    def test_count_below_int64_refused_as_negative(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamsError, match="^counts must be nonnegative$"):
                sufficient_stats(counts)

    def test_largest_counts_accepted(self):
        assert sufficient_stats([2**63 - 1]).s1 == 2**63 - 1
        assert sufficient_stats(np.array([2**63 - 1], dtype=np.uint64)).s1 == 2**63 - 1
        assert sufficient_stats([2.0**63 - 1024]).s1 == 2**63 - 1024  # the last float below 2^63

    # (n, S1, S2 as float.hex) of the bundled datasets, frozen before S1 learned to
    # leave int64: the bundled data sum in int64 as before, to the bit
    BUNDLED_STATS = {
        "textile-faults": (32, 284, "0x1.c18badb833d08p+8"),
        "slovak-poem": (117, 336, "0x1.a0310e0de589ep+7"),
        "crab-satellites": (173, 505, "0x1.090467c7ec286p+9"),
        "hungarian-words": (57459, 189872, "0x1.0744793591654p+17"),
    }

    @pytest.mark.parametrize("name", sorted(BUNDLED_STATS))
    def test_bundled_stats_unchanged(self, name):
        n, s1, s2 = self.BUNDLED_STATS[name]
        s = sufficient_stats(bundled_dataset(name).counts)
        assert (s.n, s.s1, s.s2) == (n, s1, float.fromhex(s2))
        assert type(s.s1) is int

    # counts below MAX_TERMS read lnGamma(x + 1) from core's table, the others gammaln:
    # each side of the bound, and an array spanning it, sums to gammaln's S2 to the bit
    @pytest.mark.parametrize("counts", [
        [0], [1], [9_999], [0, 1, 9_999, 9_998], [10_000], [10**6], [10_000, 10**6],
        [3, 9_999, 10_000, 0, 10**6, 1], list(range(10_000)), list(range(0, 20_000, 7)),
    ], ids=["0", "1", "9999", "table", "10000", "10^6", "gammaln", "spanning", "every-entry",
            "range-spanning"])
    def test_table_lngamma_is_gammaln_to_the_bit(self, counts):
        x = np.array(counts, dtype=np.int64)
        want = float(gammaln(x + 1.0).sum())
        assert sufficient_stats(x).s2.hex() == want.hex()
        assert sufficient_stats(counts).s2.hex() == want.hex()

    def test_hungarian_words_s2_from_the_table(self):
        # 57 459 counts, all below MAX_TERMS, so S2 is read from the table
        counts = bundled_dataset("hungarian-words").counts
        assert counts.max() < MAX_TERMS
        want = self.BUNDLED_STATS["hungarian-words"][2]
        assert sufficient_stats(counts).s2.hex() == want
        assert float(gammaln(counts + 1.0).sum()).hex() == want

    def test_xbar_exact(self):
        s = sufficient_stats([3, 1, 4, 1, 5])
        assert s.xbar == s.s1 / s.n
        assert s.mean_lnfact == s.s2 / s.n

    @pytest.mark.parametrize("n, s1, s2", [(-1, 0, 0.0), (1, -1, 0.0), (1, 0, -0.5)])
    def test_negative_statistics_refused(self, n, s1, s2):
        with pytest.raises(InvalidParamsError, match="must be nonnegative"):
            SufficientStats(n=n, s1=s1, s2=s2)

    def test_empty_state(self):
        s = SufficientStats.empty()
        assert (s.n, s.s1, s.s2, s.xbar, s.mean_lnfact) == (0, 0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParamsError):
            SufficientStats(n=0, s1=3, s2=0.0)


class TestLogPosterior:
    def test_conjugacy_example(self):
        stats = sufficient_stats([2, 0])
        spec = Conjugate(ConjugateHyper(1.0, 1.0, 1.0))
        updated = Conjugate(ConjugateHyper(3.0, 1.0 + math.log(2.0), 3.0))
        diffs = []
        for lam in (0.5, 1.5, 3.0, 6.0):
            for nu in (0.2, 1.0, 2.5):
                p = CmpParams(lam, nu)
                diffs.append(log_posterior(spec, stats, p)
                             - log_prior_density(updated, p))
        assert np.var(diffs) < 1e-12

    def test_flat_prior_kernel(self):
        stats = sufficient_stats([3, 1, 4, 1, 5])
        for lam, nu in ((2.0, 0.7), (4.0, 1.5)):
            p = CmpParams(lam, nu)
            expected = ((stats.s1 - 1) * math.log(lam) - nu * stats.s2
                        - stats.n * log_normalizer(p))
            assert_allclose(log_posterior(Flat(), stats, p), expected, rtol=1e-12)

    def test_jeffreys_component_sum(self):
        stats = sufficient_stats([3, 1, 4, 1, 5])
        p = CmpParams(3.0, 0.5)
        expected = log_prior_density(Jeffreys(), p) + log_likelihood(stats, p)
        assert log_posterior(Jeffreys(), stats, p) == pytest.approx(expected, rel=1e-15)

    def test_policy_robustness(self):
        stats = sufficient_stats([3, 1, 4, 1, 5])
        spec = Conjugate(ConjugateHyper(1.0, 1.0, 1.0))
        coarse = TruncationPolicy(101, 1e-10)
        fine = TruncationPolicy(500, 1e-12)
        for lam in (0.5, 3.0, 4.0):
            for nu in (0.5, 1.0, 2.0):
                p = CmpParams(lam, nu)
                assert abs(log_posterior(spec, stats, p, coarse)
                           - log_posterior(spec, stats, p, fine)) < 1e-6

    @pytest.mark.parametrize("spec", [
        Conjugate(ConjugateHyper(1.0, 1.0, 1.0)), Flat(), Jeffreys(),
    ], ids=["conj", "flat", "jeffreys"])
    def test_unsummable_series_raises(self, spec):
        # nu = 1e-3 with lambda = 2: the term ratio is still above 1 at MAX_TERMS
        with pytest.raises(TruncationError):
            log_posterior(spec, sufficient_stats([3, 1, 4, 1, 5]), CmpParams(2.0, 1e-3))

    @pytest.mark.parametrize("lam, nu, error", [
        (1.0, 1e8, NonpositiveDeterminantError),  # the Bernoulli limit: det = 0
        (0.5, 0.0, InvalidParamsError),  # the Jeffreys density needs nu > 0
    ])
    def test_jeffreys_refusals(self, lam, nu, error):
        # with data as without (test_priors): where the Jeffreys density is undefined,
        # the posterior raises the error that names why
        with pytest.raises(error):
            log_posterior(Jeffreys(), sufficient_stats([3, 1, 4, 1, 5]), CmpParams(lam, nu))

    def test_overflow_is_minus_inf(self):
        # (a - 1) ln(lambda) = 2e308 overflows: the posterior is -inf there, not an error
        spec = Conjugate(ConjugateHyper(1e308, 1.0, 1.0))
        p = CmpParams(math.exp(2.0), 1.0)
        assert log_posterior(spec, SufficientStats.empty(), p) == -math.inf

    def test_adding_zero_count_shifts_by_log_z(self):
        base = sufficient_stats([3, 1, 4])
        extended = sufficient_stats([3, 1, 4, 0])
        spec = Conjugate(ConjugateHyper(1.0, 1.0, 1.0))
        for lam, nu in ((2.0, 0.7), (4.0, 1.5), (0.6, 2.2)):
            p = CmpParams(lam, nu)
            delta = log_posterior(spec, extended, p) - log_posterior(spec, base, p)
            assert_allclose(delta, -log_normalizer(p), rtol=1e-10)


def refuses(spec, stats) -> bool:
    """Whether check_propriety refuses the posterior, with its refusal's wording checked."""
    try:
        check_propriety(spec, stats)
    except ImproperPosteriorError as exc:
        assert re.fullmatch(r"the Jeffreys prior is improper; it needs data|"
                            r"the posterior's \(a, b, c\) = .* must all be positive .*|"
                            r"b/c = \S+ does not exceed \S+", str(exc)), str(exc)
        return True
    return False


class TestFlatPosteriorPropriety:
    def test_no_count_above_one(self):
        assert not flat_posterior_propriety(sufficient_stats([0, 0, 1]))
        assert not flat_posterior_propriety(sufficient_stats([1, 1, 1, 1]))

    def test_two_zero_proper(self):
        assert flat_posterior_propriety(sufficient_stats([2, 0]))

    def test_matches_conjugate_condition(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            data = rng.integers(0, 8, size=rng.integers(2, 30))
            stats = sufficient_stats(data)
            if stats.s1 > 0 and stats.s2 > 0:
                expected = conjugate_propriety(
                    ConjugateHyper(float(stats.s1), stats.s2, float(stats.n)))
                assert flat_posterior_propriety(stats) == expected

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 10**6), s1=st.integers(0, 10**7), s2=st.floats(0.0, 1e8))
    def test_is_the_conjugate_condition_at_the_stats(self, n, s1, s2):
        assume(n > 0 or (s1 == 0 and s2 == 0.0))
        stats = SufficientStats(n=n, s1=s1, s2=s2)
        if n > 0 and s1 > 0 and s2 > 0.0:
            expected = conjugate_propriety(ConjugateHyper(float(s1), s2, float(n)))
        else:
            expected = False
        assert flat_posterior_propriety(stats) == expected
        assert refuses(Flat(), stats) == (not expected)

    def test_updated_hyper(self):
        stats = sufficient_stats([2, 0])
        up = updated_hyper(ConjugateHyper(1.0, 1.0, 1.0), stats)
        assert up == ConjugateHyper(3.0, 1.0 + math.log(2.0), 3.0)


class TestCheckPropriety:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3),
           n=st.integers(0, 10**4), mean=st.floats(0.0, 50.0), spread=st.floats(-1.0, 1.0))
    def test_conjugate_refusal_is_the_condition_at_the_updated_hyper(self, a, b, c, n, mean,
                                                                     spread):
        # S2 / n near ln(mean!), the bound's value, on either side, so both verdicts occur
        s1 = round(n * mean)
        s2 = n * max(float(gammaln(mean + 1.0)) + spread, 0.0) if n else 0.0
        stats = SufficientStats(n=n, s1=s1 if n else 0, s2=s2)
        h = ConjugateHyper(a, b, c)
        assert refuses(Conjugate(h), stats) == (not conjugate_propriety(updated_hyper(h, stats)))

    @pytest.mark.parametrize("counts", [[2, 3, 3, 2, 3], [1, 2, 2], [2, 2, 2, 2, 2]])
    def test_flat_refusal_at_the_bound_prints_both_sides_exactly(self, counts):
        # counts on one value or two adjacent ones put the flat posterior on its bound, where
        # b/c equals it (or falls an ulp below), so 10 digits print one number twice; the
        # refusal prints each side by repr and says b/c does not exceed the bound.
        # [2, 3, 3, 2, 3] is replicate 0 of `cmpbayes study --settings under:3:2 --sizes 5
        # --replicates 2 --priors flat --seed 3`
        stats = sufficient_stats(counts)
        lhs, rhs = propriety_bound(ConjugateHyper(float(stats.s1), stats.s2, float(stats.n)))
        assert not lhs > rhs and f"{lhs:.10g}" == f"{rhs:.10g}"
        with pytest.raises(ImproperPosteriorError) as refusal:
            check_propriety(Flat(), stats)
        assert str(refusal.value) == f"b/c = {lhs!r} does not exceed {rhs!r}"
        assert refuses(Flat(), stats)

    def test_jeffreys_refused_only_without_data(self):
        assert refuses(Jeffreys(), SufficientStats.empty())
        assert not refuses(Jeffreys(), sufficient_stats([1, 1, 1]))  # the flat posterior is not
        assert refuses(Flat(), sufficient_stats([1, 1, 1]))
