import io
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cmpbayes import (
    AllDivergentError,
    CmpParams,
    Conjugate,
    ConjugateHyper,
    Draws,
    Flat,
    ImproperPosteriorError,
    InvalidParamsError,
    Jeffreys,
    McmcConfig,
    ModeNotFoundError,
    SeedSpec,
    SufficientStats,
    ZeroVarianceError,
    bundled_dataset,
    get_preset,
    run_chains,
    sample_cmp,
    split_rhat,
    sufficient_stats,
    summarize,
    updated_hyper,
)
from cmpbayes import mcmc
from cmpbayes.core import DEFAULT_POLICY, series_arrays
from cmpbayes.mcmc import NU_FLOOR, ModeSearch, _split_rhat_matrix, pareto_khat
from cmpbayes.posterior import log_kernel
from cmpbayes.priors import PRESET_NAMES, REJECTIONS

FAST = McmcConfig(chains=2, warmup=500, keep=300)


def make_draws(lam, nu=None):
    lam = np.asarray(lam, dtype=float)
    nu = lam.copy() if nu is None else np.asarray(nu, dtype=float)
    zeros = np.zeros(lam.shape[0], dtype=np.int64)
    counts = {reason: zeros for reason in REJECTIONS}
    return Draws(lam=lam, nu=nu, accept_rate=np.full(lam.shape[0], 0.3), rejections=counts,
                 warmup_rejections=counts, pareto_k=0.5, proposal_centre=np.array([0.0, 1.0]),
                 proposal_cholesky=np.array([0.1, 0.0, 0.1]),
                 mode_search=ModeSearch(iterations=5, points=6, decrement=0.0,
                                        on_floor=False),
                 weight_sup=2.0, start_is_heaviest=True)


def pinned_fit(prior, warmup, accepted, divergences, counts=None, outside=None):
    """2 chains of warmup + 200 at SeedSpec(7) on counts (default textile-faults).

    Checks the accept, divergence and outside-support counts, and that the mode, where
    the chains start, outweighs every proposal; returns the summary.
    """
    if counts is None:
        counts = bundled_dataset("textile-faults").counts
    stats = sufficient_stats(counts)
    d = run_chains(get_preset(prior), stats,
                   McmcConfig(chains=2, warmup=warmup, keep=200), SeedSpec(7))
    assert [round(a * 200) for a in d.accept_rate] == accepted
    assert d.divergences.tolist() == divergences
    assert d.rejections["outside_support"].tolist() == (outside or [0, 0])
    assert d.weight_sup >= 1.0 and d.start_is_heaviest is True
    return summarize(d)


# Each chain's acceptance rate on the bundled fits: 0.54-0.60 per chain over seeds
# 1-20 and 42 under conj-1, flat and jeffreys, and 0.27-0.34 on crab-satellites,
# whose mode is on the nu floor, so that about half its proposals fall below it.
ACCEPT_BANDS = {"crab-satellites": (0.20, 0.45)}
ACCEPT_BAND = (0.45, 0.70)


class TestConfig:
    def test_defaults(self):
        c = McmcConfig()
        assert (c.chains, c.warmup, c.keep) == (4, 200, 2000)
        # the sampler's tuning values are constants of mcmc, not config
        assert [f.name for f in fields(c)] == ["chains", "warmup", "keep"]

    @pytest.mark.parametrize("kwargs", [
        dict(chains=1), dict(keep=50), dict(warmup=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParamsError):
            McmcConfig(**kwargs)


class TestSplitRhat:
    def test_iid_normal_near_one(self):
        g = np.random.default_rng(0)
        x = g.standard_normal((4, 2000))
        r = _split_rhat_matrix(x)
        assert 0.99 <= r <= 1.01

    def test_separated_chains_large(self):
        g = np.random.default_rng(1)
        x = np.vstack([g.standard_normal(2000), g.standard_normal(2000) + 5.0])
        assert _split_rhat_matrix(x) > 1.5

    def test_constant_chains_error(self):
        with pytest.raises(ZeroVarianceError):
            _split_rhat_matrix(np.ones((4, 2000)))

    def test_preconditions(self):
        g = np.random.default_rng(2)
        with pytest.raises(InvalidParamsError):
            _split_rhat_matrix(g.standard_normal((1, 2000)))
        with pytest.raises(InvalidParamsError):
            _split_rhat_matrix(g.standard_normal((4, 50)))

    def test_selector(self):
        g = np.random.default_rng(3)
        d = make_draws(g.standard_normal((4, 500)) + 3.0,
                       g.standard_normal((4, 500)) + 1.0)
        assert split_rhat(d, "lambda") == _split_rhat_matrix(d.lam)
        assert split_rhat(d, "nu") == _split_rhat_matrix(d.nu)
        with pytest.raises(KeyError):
            split_rhat(d, "sigma")


class TestSummarize:
    def test_order_statistics(self):
        pooled = np.arange(1, 10001, dtype=float)
        d = make_draws(pooled.reshape(4, 2500))
        s = summarize(d)
        assert s.lam.median == 5000.5
        assert_allclose(s.lam.cri_low, 250.975, rtol=1e-12)
        assert_allclose(s.lam.cri_high, 9750.025, rtol=1e-12)
        assert s.n_kept == 10000
        assert s.lam.cri_low <= s.lam.median <= s.lam.cri_high


class TestRunChains:
    def test_determinism(self):
        stats = sufficient_stats([3, 1, 4, 1, 5, 9, 2, 6])
        spec = Conjugate(ConjugateHyper(1, 1, 1))
        a = run_chains(spec, stats, FAST, SeedSpec(21))
        b = run_chains(spec, stats, FAST, SeedSpec(21))
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.nu, b.nu)
        assert np.array_equal(a.accept_rate, b.accept_rate)
        assert np.array_equal(a.divergences, b.divergences)

    def test_chain_order_invariance(self):
        # chain streams key off the chain index, so the first chains of a
        # larger run replicate the smaller run exactly
        stats = sufficient_stats([3, 1, 4, 1, 5, 9, 2, 6])
        spec = Conjugate(ConjugateHyper(1, 1, 1))
        two = run_chains(spec, stats, FAST, SeedSpec(21))
        four = run_chains(spec, stats,
                          McmcConfig(chains=4, warmup=500, keep=300), SeedSpec(21))
        assert np.array_equal(two.lam, four.lam[:2])
        assert np.array_equal(two.nu, four.nu[:2])

    @pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
    def test_chain_order_invariance_on_sized_grids(self, prior):
        # CMP(30, 0.7) has its mode near 129, so each row is sized past
        # base_terms from its own (lambda, nu) and a round mixes grid lengths;
        # no row's sums depend on the others, so the first two chains of a
        # four-chain run replicate a two-chain run exactly
        stats = sufficient_stats(sample_cmp(CmpParams(30.0, 0.7), 200, SeedSpec(8, 0)))
        two = run_chains(get_preset(prior), stats, FAST, SeedSpec(21))
        four = run_chains(get_preset(prior), stats,
                          McmcConfig(chains=4, warmup=500, keep=300), SeedSpec(21))
        assert np.array_equal(two.accept_rate, four.accept_rate[:2])
        assert np.array_equal(two.divergences, four.divergences[:2])
        assert np.array_equal(two.lam, four.lam[:2])
        assert np.array_equal(two.nu, four.nu[:2])
        for reason, per_chain in two.rejections.items():
            assert np.array_equal(per_chain, four.rejections[reason][:2])
        assert np.array_equal(two.proposal_centre, four.proposal_centre)
        assert np.array_equal(two.proposal_cholesky, four.proposal_cholesky)

    # counts near 10^6: the flat profile likelihood peaks near ln lambda = 3e5, past
    # float range and where no series sums, so there is no mode to sample from; the
    # chains used to stick and report R-hat 5-14 as a result
    @pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
    def test_posterior_without_a_mode_refused(self, prior):
        stats = sufficient_stats([1_000_000, 1_000_003, 999_990])
        with pytest.raises(ModeNotFoundError, match="^found no finite posterior mode"):
            run_chains(get_preset(prior), stats, FAST, SeedSpec(1))
        assert issubclass(ModeNotFoundError, AllDivergentError)  # study counts it as failed

    def test_jeffreys_prior_without_data_refused(self):
        with pytest.raises(ImproperPosteriorError, match="Jeffreys prior is improper"):
            run_chains(Jeffreys(), SufficientStats.empty(), FAST, SeedSpec(1))

    def test_flat_improper_refused(self):
        with pytest.raises(ImproperPosteriorError):
            run_chains(Flat(), sufficient_stats([1, 1, 1, 1]), FAST, SeedSpec(0))

    # all-zero and all-one data: flat is improper, conj-1 and jeffreys still mix
    @pytest.mark.parametrize("count", [0, 1])
    def test_constant_data(self, count):
        stats = sufficient_stats([count] * 40)
        with pytest.raises(ImproperPosteriorError):
            run_chains(Flat(), stats, FAST, SeedSpec(1))
        for prior in ("conj-1", "jeffreys"):
            s = summarize(run_chains(get_preset(prior), stats,
                                     McmcConfig(warmup=500, keep=300), SeedSpec(1)))
            for ps in (s.lam, s.nu):
                assert math.isfinite(ps.median) and ps.rhat < 1.1, prior

    def test_retained_draws_respect_domain(self):
        stats = sufficient_stats([2, 0, 1, 3, 1])
        d = run_chains(Conjugate(ConjugateHyper(1, 1, 1)), stats, FAST, SeedSpec(4))
        assert (d.lam > 0).all()
        assert (d.nu >= NU_FLOOR).all()

    def test_recovery_at_large_n(self):
        data = sample_cmp(CmpParams(4.0, 1.0), 500, SeedSpec(4, 0))
        stats = sufficient_stats(data)
        d = run_chains(Conjugate(ConjugateHyper(1, 1, 1)), stats,
                       McmcConfig(), SeedSpec(4, 1))
        s = summarize(d)
        assert abs(s.lam.median - 4.0) < 0.4
        assert abs(s.nu.median - 1.0) < 0.15

    def test_textile_faults_reproduces_published_fit(self):
        stats = sufficient_stats(bundled_dataset("textile-faults").counts)
        d = run_chains(Conjugate(ConjugateHyper(1, 1, 1)), stats,
                       McmcConfig(), SeedSpec(42))
        s = summarize(d)
        assert 1.144 < s.lam.median < 2.409
        assert 0.103 < s.nu.median < 0.421
        assert s.lam.rhat < 1.01 and s.nu.rhat < 1.01
        assert all(ACCEPT_BAND[0] <= a <= ACCEPT_BAND[1] for a in d.accept_rate)

    def test_rhat_below_1_01_on_all_bundled_fits(self):
        for name in ("textile-faults", "slovak-poem", "crab-satellites",
                     "hungarian-words"):
            stats = sufficient_stats(bundled_dataset(name).counts)
            d = run_chains(Conjugate(ConjugateHyper(1, 1, 1)), stats,
                           McmcConfig(), SeedSpec(42))
            s = summarize(d)
            assert s.lam.rhat < 1.01 and s.nu.rhat < 1.01, name
            low, high = ACCEPT_BANDS.get(name, ACCEPT_BAND)
            assert all(low <= a <= high for a in d.accept_rate), name

    # One short fit frozen, so a sampler change that moves its draws fails;
    # warmup=1 is the smallest allowed warmup. Every pin below was last re-frozen when
    # each t proposal came to be drawn from three uniforms (_proposals), which moved
    # every draw but not the proposal's distribution.
    @pytest.mark.parametrize("warmup, accepted, outside, lam_median, nu_median", [
        (300, [111, 117], [10, 14], 1.5997690416211183, 0.24462650652702095),
        (1, [115, 116], [14, 13], 1.5840625976660971, 0.240714392901989),
    ], ids=["warmup300", "warmup1"])
    def test_draws_pinned(self, warmup, accepted, outside, lam_median, nu_median):
        s = pinned_fit("conj-1", warmup, accepted, [0, 0], outside=outside)
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-12)

    # The same fit under flat and jeffreys.
    @pytest.mark.parametrize("prior, warmup, accepted, divergences, outside, lam_median, "
                             "nu_median", [
        ("flat", 300, [111, 115], [0, 0], [9, 13], 1.7594033097988593, 0.2826437031994813),
        ("flat", 1, [116, 115], [1, 0], [10, 12], 1.739479855263514, 0.27724161364467415),
        ("jeffreys", 300, [110, 117], [0, 0], [12, 14], 1.6504809880354414,
         0.25342478985435457),
        ("jeffreys", 1, [114, 116], [0, 0], [14, 15], 1.6343706227981398,
         0.2494187027859568),
    ], ids=["flat-warmup300", "flat-warmup1", "jeffreys-warmup300", "jeffreys-warmup1"])
    def test_draws_pinned_flat_jeffreys(self, prior, warmup, accepted, divergences, outside,
                                        lam_median, nu_median):
        s = pinned_fit(prior, warmup, accepted, divergences, outside=outside)
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-12)

    # A fit on a sized posterior: near CMP(30, 0.7) the term mode is about 129,
    # so rows are hundreds of terms long (textile-faults rows a few dozen).
    @pytest.mark.parametrize("prior, accepted, lam_median, nu_median", [
        ("conj-1", [113, 105], 13.370005219459674, 0.532403354130794),
        ("jeffreys", [113, 105], 33.10804253388015, 0.7180186763607924),
    ], ids=["conj-1", "jeffreys"])
    def test_draws_pinned_sized(self, prior, accepted, lam_median, nu_median):
        counts = sample_cmp(CmpParams(30.0, 0.7), 500, SeedSpec(7))
        s = pinned_fit(prior, 300, accepted, [0, 0], counts, outside=[1, 0])
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-12)

    # The warmup-300 textile-faults fit's proposal as float.hex: Draws.proposal_centre
    # (ln lambda, nu) and proposal_cholesky (c00, c10, c11). The medians above pass at
    # rtol 1e-12 even if the mode search's last step or the Cholesky factor moves a
    # bit; these do not.
    PINNED_KERNELS = {
        "conj-1": (["0x1.a848997b10ed1p-2", "0x1.bface8f50b102p-3"],
                   ["0x1.22273cdc07243p-2", "0x1.ed8b250354211p-4", "0x1.500fbfc649718p-6"]),
        "jeffreys": (["0x1.c3f291108e22bp-2", "0x1.cd6e33159d3e2p-3"],
                     ["0x1.32c62d1fb846ap-2", "0x1.042d307dca86ap-3", "0x1.4e5d836253537p-6"]),
    }

    @pytest.mark.parametrize("prior", sorted(PINNED_KERNELS))
    def test_sampling_kernel_pinned(self, prior):
        centre, cholesky = self.PINNED_KERNELS[prior]
        stats = sufficient_stats(bundled_dataset("textile-faults").counts)
        d = run_chains(get_preset(prior), stats,
                       McmcConfig(chains=2, warmup=300, keep=200), SeedSpec(7))
        assert d.proposal_centre.tolist() == [float.fromhex(x) for x in centre]
        assert d.proposal_cholesky.tolist() == [float.fromhex(x) for x in cholesky]

    def test_prior_as_posterior_with_empty_data(self):
        spec = Conjugate(ConjugateHyper(3.0, 1.0 + math.log(2.0), 3.0))
        d = run_chains(spec, SufficientStats.empty(), FAST, SeedSpec(5))
        assert np.isfinite(d.lam).all() and np.isfinite(d.nu).all()

    def test_conjugacy_oracle_equivalence(self):
        # posterior-with-data must match updated-prior-with-empty-data
        data = sample_cmp(CmpParams(3.0, 1.0), 40, SeedSpec(9, 0))
        stats = sufficient_stats(data)
        h = ConjugateHyper(1.3, 0.9, 2.0)
        with_data = run_chains(Conjugate(h), stats, McmcConfig(), SeedSpec(77, 0))
        empty = run_chains(Conjugate(updated_hyper(h, stats)),
                           SufficientStats.empty(), McmcConfig(), SeedSpec(77, 1))
        for param in ("lam", "nu"):
            m1 = np.median(getattr(with_data, param))
            m2 = np.median(getattr(empty, param))
            se = math.hypot(
                np.median(getattr(with_data, param), axis=1).std(ddof=1) / 2.0,
                np.median(getattr(empty, param), axis=1).std(ddof=1) / 2.0,
            )
            assert abs(m1 - m2) < 3.0 * max(se, 1e-3)



def same_bits(x, y) -> bool:
    """Whether two Draws field values are equal to the bit (arrays in dtype too)."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_bits(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


FIT, IMPROPER, NO_MODE = "fit", ImproperPosteriorError, ModeNotFoundError


class TestModeSearch:
    # Each preset's verdict (PRESET_NAMES order: conj-1, conj-data, conj-0.1, conj-0.01,
    # flat, jeffreys) on small and extreme data: FIT, or the error that refuses the fit.
    # These are the verdicts of the search from (ln max(xbar, 0.5), 1) alone.
    @pytest.mark.parametrize("counts, verdicts", [
        ([0] * 30, (FIT, FIT, FIT, FIT, IMPROPER, FIT)),
        ([1] * 30, (FIT, FIT, FIT, FIT, IMPROPER, FIT)),
        ([0, 1] * 15, (FIT, FIT, FIT, FIT, IMPROPER, FIT)),
        ([0], (FIT, FIT, FIT, FIT, IMPROPER, NO_MODE)),
        ([1], (FIT, FIT, FIT, FIT, IMPROPER, NO_MODE)),
        ([5], (FIT, FIT, FIT, FIT, IMPROPER, NO_MODE)),
        ([0, 7], (FIT, FIT, FIT, FIT, FIT, NO_MODE)),
        ([1_000_000, 1_000_003, 999_990], (NO_MODE,) * 6),
    ], ids=["zeros", "ones", "zero-one", "0", "1", "5", "0-7", "huge"])
    def test_fit_or_refuse_verdicts(self, counts, verdicts):
        stats = sufficient_stats(counts)
        for name, verdict in zip(PRESET_NAMES, verdicts):
            def fit():
                return run_chains(get_preset(name), stats,
                                  McmcConfig(chains=2, warmup=1, keep=100), SeedSpec(1))
            if verdict == FIT:
                assert fit().mode_search.decrement <= 1e-20, name
            else:
                with pytest.raises(verdict):
                    fit()

    @staticmethod
    def moment_start_refused_retry_fits(monkeypatch, spec, stats):
        """The two starts: the moment start's search alone is refused, and the full search
        ends at the retry-only search's mode to the bit, its points counting with the retry's."""
        rows = log_kernel(spec, stats, DEFAULT_POLICY)
        starts = mcmc._starts(spec, stats)
        assert len(starts) == 2
        mode, _, _, search = mcmc._laplace(spec, stats, rows)
        monkeypatch.setattr(mcmc, "_starts", lambda *args: starts[1:])
        retry_mode, _, _, retry = mcmc._laplace(spec, stats, rows)
        assert np.array_equal(mode, retry_mode) and search.decrement == retry.decrement
        assert search.points > retry.points and search.iterations >= retry.iterations
        monkeypatch.setattr(mcmc, "_starts", lambda *args: starts[:1])
        with pytest.raises(ModeNotFoundError):
            mcmc._laplace(spec, stats, rows)
        return starts

    # the moment start of 30 zeros or 30 ones under the tightest presets lands at nu
    # 78-1 451, and a search from there alone is refused; the retry from
    # (ln max(xbar, 0.5), 1) fits, and the first search's points count with its own
    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("prior", ["conj-0.1", "conj-0.01"])
    def test_retry_fits_where_the_moment_start_diverges(self, monkeypatch, count, prior):
        starts = self.moment_start_refused_retry_fits(
            monkeypatch, get_preset(prior), sufficient_stats([count] * 30))
        assert starts[0][1] > 50.0

    # Jeffreys at term mode 1 000: of the stress scan's searches (CMP(m^nu, nu) for
    # m 30-3 000, nu 0.3-1.5 and n 5-200 under six presets), the one Jeffreys fit whose
    # verdict the retry decides, its moment start at nu 4.36
    def test_retry_fits_the_jeffreys_stress_dataset(self, monkeypatch):
        stats = sufficient_stats(sample_cmp(CmpParams(1000.0 ** 1.5, 1.5), 5, SeedSpec(1, 7)))
        self.moment_start_refused_retry_fits(monkeypatch, get_preset("jeffreys"), stats)

    def test_conjugate_posterior_is_its_updated_prior_to_the_bit(self):
        # the search starts from (a, b, c) alone, which Conjugate(h) on data and
        # Conjugate(updated_hyper(h, stats)) on no data share, so the two fits are one
        data = sample_cmp(CmpParams(3.0, 1.0), 40, SeedSpec(9, 0))
        stats = sufficient_stats(data)
        h = ConjugateHyper(1.3, 0.9, 2.0)
        with_data = run_chains(Conjugate(h), stats, McmcConfig(), SeedSpec(77, 0))
        empty = run_chains(Conjugate(updated_hyper(h, stats)), SufficientStats.empty(),
                           McmcConfig(), SeedSpec(77, 0))
        for field in fields(Draws):
            name = field.name
            assert same_bits(getattr(with_data, name), getattr(empty, name)), name

    # (a, b, c) = c (E X, E ln X!, 1) at CMP(mode^nu, nu): the conjugate posterior whose
    # mode is that point. The asymptotic moments put the start within 3% of it in nu
    # and 0.05 in ln lambda from term mode 10 on (0.2% and 0.002 at term mode 1 000)
    @pytest.mark.parametrize("mode", [10, 30, 100, 1000])
    @pytest.mark.parametrize("nu", [0.3, 0.7, 1.0, 1.5, 3.0])
    def test_moment_start_is_near_the_mode(self, mode, nu):
        u = nu * math.log(mode)
        _, sums, _ = series_arrays(np.array([u]), np.array([nu]), DEFAULT_POLICY, moments=True)
        e_x, _, e_g, _, _ = sums[0].tolist()
        spec = Conjugate(ConjugateHyper(100.0 * e_x, 100.0 * e_g, 100.0))
        (u_start, nu_start), _ = mcmc._starts(spec, SufficientStats.empty())
        assert abs(nu_start / nu - 1.0) < 0.03 and abs(u_start - u) < 0.05

    def test_over_dispersed_start_is_the_floor_geometric_match(self):
        # crab-satellites is too over-dispersed for any nu's asymptotic moments: the
        # search starts on the floor at the geometric law of mean m = a/c
        stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
        (u_start, nu_start), _ = mcmc._starts(get_preset("flat"), stats)
        m = stats.s1 / stats.n
        assert nu_start == NU_FLOOR and u_start == math.log(m / (1.0 + m))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
    @example(0.0, 0.0, 0.0)
    @example(-3.0, 0.0, -3.0)
    @example(-1.0, -0.999999999, -1.0)
    def test_closed_form_eigen_step_is_the_eigendecomposition(self, p, q, r):
        l1, l2, c, s = mcmc._eigen2(p, q, r)
        hess = np.array([[p, q], [q, r]])
        vectors = np.array([[c, -s], [s, c]])
        scale = 4e-15 * max(abs(l1), abs(l2)) + 1e-300  # a few ulp of the larger eigenvalue
        assert l1 >= l2 and abs(c * c + s * s - 1.0) <= 1e-15
        assert_allclose(vectors @ np.diag([l1, l2]) @ vectors.T, hess, rtol=0, atol=scale)
        assert_allclose([l2, l1], np.linalg.eigvalsh(hess), rtol=0, atol=scale)


class TestParetoKhat:
    # a normal target N(0, 1) and draws from a normal proposal N(0, width^2): the log
    # importance ratio is -x^2 / 2 + x^2 / (2 width^2), constants dropped; a proposal
    # narrower than the target has ratios with a tail of shape 1 - width^2
    def log_ratios(self, width):
        x = width * np.random.default_rng(0).standard_normal(16_000)
        return -0.5 * x * x + 0.5 * (x / width) ** 2

    def test_proposal_equal_to_the_target(self):
        ratios = self.log_ratios(1.0)
        assert (ratios == 0.0).all()
        assert pareto_khat(ratios) < 0.5

    def test_proposal_wider_than_the_target(self):
        assert pareto_khat(self.log_ratios(1.5)) < 0.5

    def test_proposal_too_narrow(self):
        assert pareto_khat(self.log_ratios(0.3)) > 0.7

    def test_zero_weights_do_not_reach_the_tail(self):
        ratios = self.log_ratios(0.3)
        with_zeros = np.concatenate((ratios, np.full(100, -np.inf)))
        assert pareto_khat(with_zeros) > 0.7


def sorted_khat(log_ratios):
    """pareto_khat's fit, from a full sort of the ratios: the reference of its partition."""
    x = np.sort(log_ratios)
    s = x.size
    m = math.ceil(min(0.2 * s, 3.0 * math.sqrt(s)))
    if m < 5 or not math.isfinite(x[-1]):
        return math.nan
    with np.errstate(all="ignore"):
        y = np.exp(x[s - m:] - x[-1]) - math.exp(x[s - m - 1] - x[-1])
        if not y[-1] > 0.0:
            return -math.inf
        grid = 30 + int(math.sqrt(m))
        theta = 1.0 - np.sqrt(grid / (np.arange(1, grid + 1) - 0.5))
        theta = theta / (3.0 * y[int(m / 4 + 0.5) - 1]) + 1.0 / y[-1]
        k = np.log1p(-theta[:, None] * y).mean(axis=1)
        profile = m * (np.log(-theta / k) - k - 1.0)
        weights = 1.0 / np.exp(profile - profile[:, None]).sum(axis=1)
        keep = weights >= 10.0 * np.finfo(float).eps
        theta_hat = float((theta[keep] * weights[keep]).sum() / weights[keep].sum())
        k_hat = float(np.log1p(-theta_hat * y).mean())
    return (m * k_hat + 10 * 0.5) / (m + 10)


# log ratios with ties (a few values repeated) and -inf entries, of any length from 0
LOG_RATIOS = st.integers(0, 200).flatmap(lambda size: st.lists(
    st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-math.inf, 0.0, 1.5, -2.25])),
    min_size=size, max_size=size)).map(lambda xs: np.array(xs, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(log_ratios=LOG_RATIOS, seed=st.integers(0, 2**32 - 1), size=st.integers(0, 9_000),
       chains=st.integers(2, 4), keep=st.integers(100, 300), states=st.integers(2, 60))
@example(log_ratios=np.full(200, 1.5), seed=0, size=0, chains=2, keep=100, states=2)  # -inf
@example(log_ratios=np.full(200, -math.inf), seed=0, size=0, chains=2, keep=100, states=2)
@example(log_ratios=np.arange(24.0), seed=0, size=0, chains=2, keep=100, states=2)  # m = 4
@example(log_ratios=np.arange(25.0), seed=0, size=0, chains=2, keep=100, states=2)  # m = 5
def test_khat_and_summary_match_their_sorted_references(log_ratios, seed, size, chains, keep,
                                                         states):
    # pareto_khat takes its tail from np.partition and sorts only the tail: the same
    # bits as a full sort (k-hat -inf where all are equal, nan below m = 5 or with no
    # finite ratio); summarize takes both parameters' quantiles from one np.quantile
    # call: the same bits as one call per parameter
    assert repr(pareto_khat(log_ratios)) == repr(sorted_khat(log_ratios))  # to the bit, or nan
    # a fit's thousands of ratios: about half -inf (crab-satellites' nu floor), some tied
    rng = np.random.default_rng(seed)
    fit = np.round(rng.standard_normal(size) * rng.uniform(0.1, 3.0), int(rng.integers(1, 17)))
    fit[rng.random(size) < rng.uniform(0.0, 0.6)] = -math.inf
    assert repr(pareto_khat(fit)) == repr(sorted_khat(fit))
    # an independence chain's draws repeat its states, so they hold many ties
    lam = rng.choice(rng.lognormal(size=states), (chains, keep))
    nu = rng.choice(rng.gamma(2.0, size=states), (chains, keep))
    try:
        summary = summarize(make_draws(lam, nu))
    except ZeroVarianceError:  # a half-chain of one state has no R-hat
        assume(False)
    for param, x in ((summary.lam, lam), (summary.nu, nu)):
        got = (param.cri_low, param.median, param.cri_high)
        assert [type(v) for v in got] == [float] * 3
        assert [v.hex() for v in got] == [float(v).hex()
                                          for v in np.quantile(x.ravel(), [0.025, 0.5, 0.975])]


class TestDrawsExport:
    def test_csv_columns(self):
        d = make_draws(np.arange(8.0).reshape(2, 4) + 1.0)
        buf = io.StringIO()
        d.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "chain,iter,lambda,nu"
        assert len(lines) == 1 + 8
        assert lines[1].startswith("0,0,1.0,")
