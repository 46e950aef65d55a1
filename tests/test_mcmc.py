import io
import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cmpbayes import (
    CmpParams,
    Conjugate,
    ConjugateHyper,
    Draws,
    Flat,
    ImproperPosteriorError,
    InvalidParamsError,
    McmcConfig,
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
from cmpbayes.mcmc import NU_FLOOR, _split_rhat_matrix

FAST = McmcConfig(chains=2, warmup=500, keep=300)


def make_draws(lam, nu=None):
    lam = np.asarray(lam, dtype=float)
    nu = lam.copy() if nu is None else np.asarray(nu, dtype=float)
    n_chains = lam.shape[0]
    return Draws(lam=lam, nu=nu, accept_rate=np.full(n_chains, 0.3),
                 divergences=np.zeros(n_chains, dtype=np.int64))


def pinned_fit(prior, warmup, accepted, divergences, counts=None):
    """2 chains of warmup + 200 at SeedSpec(7) on counts (default textile-faults).

    Checks the accept and divergence counts, returns the summary.
    """
    if counts is None:
        counts = bundled_dataset("textile-faults").counts
    stats = sufficient_stats(counts)
    d = run_chains(get_preset(prior), stats,
                   McmcConfig(chains=2, warmup=warmup, keep=200), SeedSpec(7))
    assert [round(a * 200) for a in d.accept_rate] == accepted
    assert d.divergences.tolist() == divergences
    return summarize(d)


class TestConfig:
    def test_defaults(self):
        c = McmcConfig()
        assert (c.chains, c.warmup, c.keep) == (4, 2000, 2000)
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
        assert np.array_equal(two.step_size, four.step_size[:2])
        assert np.array_equal(two.proposal_cholesky, four.proposal_cholesky[:2])

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
        assert all(0.15 <= a <= 0.5 for a in d.accept_rate)

    def test_rhat_below_1_01_on_all_bundled_fits(self):
        for name in ("textile-faults", "slovak-poem", "crab-satellites",
                     "hungarian-words"):
            stats = sufficient_stats(bundled_dataset(name).counts)
            d = run_chains(Conjugate(ConjugateHyper(1, 1, 1)), stats,
                           McmcConfig(), SeedSpec(42))
            s = summarize(d)
            assert s.lam.rhat < 1.01 and s.nu.rhat < 1.01, name
            assert all(0.15 <= a <= 0.5 for a in d.accept_rate), name

    # One short fit frozen, so a sampler change that moves its draws fails;
    # warmup=1 is the smallest allowed warmup.
    @pytest.mark.parametrize("warmup, accepted, divergences, lam_median, nu_median", [
        (300, [81, 77], [0, 0], 1.6740519779775473, 0.27913204245414724),
        (1, [24, 20], [2, 1], 1.7954392793085912, 0.2905695322196746),
    ])
    def test_draws_pinned(self, warmup, accepted, divergences, lam_median, nu_median):
        s = pinned_fit("conj-1", warmup, accepted, divergences)
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-12)

    # The same fit under flat and jeffreys, frozen when the chain state was
    # numpy arrays; float arithmetic may move a draw by an ulp.
    @pytest.mark.parametrize("prior, warmup, accepted, divergences, lam_median, nu_median", [
        ("flat", 300, [66, 81], [0, 0], 1.8569222526825029, 0.32279809467645076),
        ("flat", 1, [29, 18], [0, 1], 2.1161793457440305, 0.3796414527665151),
        ("jeffreys", 300, [66, 83], [0, 0], 1.850123050457416, 0.3025475368645289),
        ("jeffreys", 1, [25, 20], [1, 1], 1.7954392793085912, 0.2905695322196746),
    ])
    def test_draws_pinned_flat_jeffreys(self, prior, warmup, accepted, divergences,
                                        lam_median, nu_median):
        s = pinned_fit(prior, warmup, accepted, divergences)
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-9)

    # A fit on a sized posterior: near CMP(30, 0.7) the term mode is about 129,
    # so nearly every row is sized past base_terms (textile-faults rows are
    # nearly all base rows). The chains are far from mixed at this length. The
    # jeffreys medians were re-frozen when the ln Z weights became exp(t)
    # unshifted: they moved 2.8e-12 and 4.8e-13 relative, since the Jeffreys
    # determinant amplifies an ulp of its moments; the counts did not move.
    @pytest.mark.parametrize("prior, accepted, lam_median, nu_median", [
        ("conj-1", [28, 37], 20.11259197536452, 0.6152138063127687),
        ("jeffreys", [33, 55], 37.064173079902375, 0.7415883396507368),
    ])
    def test_draws_pinned_sized(self, prior, accepted, lam_median, nu_median):
        counts = sample_cmp(CmpParams(30.0, 0.7), 500, SeedSpec(7))
        s = pinned_fit(prior, 300, accepted, [0, 0], counts)
        assert_allclose([s.lam.median, s.nu.median], [lam_median, nu_median], rtol=1e-12)

    # The warmup-300 textile-faults fit's sampling kernel as float.hex: per chain,
    # Draws.step_size and the row (c00, c10, c11) of proposal_cholesky. The
    # medians above pass at rtol 1e-12 even if the Robbins-Monro step-size
    # arithmetic or the Cholesky refactoring moves a bit; these do not. Re-frozen
    # when the ln Z weights became exp(t) unshifted, which moved ln Z by an ulp at
    # some warmup points: step sizes moved by at most 2.1e-14 relative, Cholesky
    # entries by 4.0e-14, and no accept or divergence count.
    PINNED_KERNELS = {
        "conj-1": (["0x1.bf6e5fc0d7310p+0", "0x1.c80df1dc1d32ep+0"],
                   [["0x1.b10ed57759776p-4", "0x1.f70c00d62e5e3p-3", "0x1.28e2b32fb3ef3p-4"],
                    ["0x1.1e9f12a3a56f0p-3", "0x1.0eca70f614242p-3", "0x1.f211cf56525fbp-6"]]),
        "jeffreys": (["0x1.76a49a63f8511p+0", "0x1.4935d1ef31067p+0"],
                     [["0x1.a4b149a5f402dp-4", "0x1.1460df5295360p-2", "0x1.55d0832b7bdcdp-4"],
                      ["0x1.bd455529ee22bp-3", "0x1.8ace67a7cb355p-3", "0x1.09bdfb3b4336dp-5"]]),
    }

    @pytest.mark.parametrize("prior", sorted(PINNED_KERNELS))
    def test_sampling_kernel_pinned(self, prior):
        step_size, cholesky = self.PINNED_KERNELS[prior]
        stats = sufficient_stats(bundled_dataset("textile-faults").counts)
        d = run_chains(get_preset(prior), stats,
                       McmcConfig(chains=2, warmup=300, keep=200), SeedSpec(7))
        assert d.step_size.tolist() == [float.fromhex(x) for x in step_size]
        assert d.proposal_cholesky.tolist() == [[float.fromhex(x) for x in row]
                                                for row in cholesky]

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


class TestDrawsExport:
    def test_csv_columns(self):
        d = make_draws(np.arange(8.0).reshape(2, 4) + 1.0)
        buf = io.StringIO()
        d.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "chain,iter,lambda,nu"
        assert len(lines) == 1 + 8
        assert lines[1].startswith("0,0,1.0,")
