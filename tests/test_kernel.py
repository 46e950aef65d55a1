"""Property tests for the one-series log kernel, its grid sizing and the sampler's target."""

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
    McmcConfig,
    SeedSpec,
    SufficientStats,
    TruncationError,
    TruncationPolicy,
    bundled_dataset,
    core,
    get_preset,
    log_normalizer,
    log_posterior,
    mcmc,
    moments,
    pmf_table,
    run_chains,
    sufficient_stats,
)
from cmpbayes.core import MAX_TERMS, _series, log_normalizer_at, moment_sums_at
from cmpbayes.errors import NonpositiveDeterminantError
from cmpbayes.mcmc import NU_FLOOR, _make_target, _run_chain

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
@example(lam=30.0, nu=0.7)  # mode 129: sized to 232 terms
@example(lam=0.9, nu=0.0)  # geometric case, slow tail
@example(lam=40.0, nu=0.5)  # mode 1600: sized to 2025 terms
def test_log_normalizer_matches_fresh_gammaln(lam, nu):
    p = CmpParams(lam, nu)
    k = converged_grid_size(p)
    j = np.arange(k, dtype=np.float64)
    expected = logsumexp(j * math.log(lam) - nu * gammaln(j + 1.0))
    assert log_normalizer(p, POLICY) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_examples_cover_grown_grids():
    for lam, nu in ((30.0, 0.7), (0.9, 0.0), (40.0, 0.5)):
        assert pmf_table(CmpParams(lam, nu), POLICY).size > POLICY.base_terms


def reference_ladder(log_lam, nu, policy):
    """The unsized grid: base_terms, doubled and summed afresh until the tail test passes."""
    log_tol = math.log(policy.tail_tol)
    k = policy.base_terms
    while True:
        j = np.arange(k, dtype=np.float64)
        t = log_lam * j - nu * gammaln(j + 1.0)
        m = float(t.max())
        log_z = m + math.log(float(np.exp(t - m).sum()))
        last = float(t[-1])
        prev = float(t[-2])
        if last < prev:
            log_r = last - prev
            r = math.exp(log_r)
            if r < 1.0:
                log_tail_bound = (last - log_z) + log_r - math.log1p(-r)
                if log_tail_bound < log_tol:
                    return t, log_z
        if k >= MAX_TERMS:
            raise TruncationError(
                f"normalizing series for (ln lambda={log_lam}, nu={nu}) did not "
                f"converge within {MAX_TERMS} terms (tail_tol={policy.tail_tol})"
            )
        k = min(2 * k, MAX_TERMS)


def sized_series(log_lam, nu):
    try:
        return _series(log_lam, nu, POLICY)
    except TruncationError:
        assume(False)


SIZING = dict(log_lam=st.floats(-3.0, 4.5), nu=st.floats(0.2, 4.0))


@settings(max_examples=150, deadline=None)
@given(**SIZING)
@example(log_lam=math.log(30.0), nu=0.7)
def test_sized_grid_passes_the_tail_bound(log_lam, nu):
    t, log_z = sized_series(log_lam, nu)
    log_r = t[-1] - t[-2]
    assert log_r < 0.0
    r = math.exp(log_r)
    assert (t[-1] - log_z) + log_r - math.log1p(-r) < math.log(POLICY.tail_tol)


@settings(max_examples=150, deadline=None)
@given(**SIZING)
@example(log_lam=math.log(30.0), nu=0.7)
def test_sized_log_z_matches_twice_the_grid(log_lam, nu):
    t, log_z = sized_series(log_lam, nu)
    j = np.arange(2 * t.size, dtype=np.float64)
    assert abs(log_z - logsumexp(log_lam * j - nu * gammaln(j + 1.0))) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(**SIZING)
@example(log_lam=0.7 * math.log(POLICY.base_terms / 2), nu=0.7)  # mode exactly base_terms / 2
def test_small_mode_is_the_old_ladder(log_lam, nu):
    # lambda^(1/nu) <= base_terms / 2: the grid starts at base_terms, unsized
    assume(log_lam <= nu * math.log(POLICY.base_terms / 2))
    t, log_z = sized_series(log_lam, nu)
    t_ref, log_z_ref = reference_ladder(log_lam, nu, POLICY)
    assert np.array_equal(t, t_ref)
    assert log_z == log_z_ref


def test_large_mode_is_summed_once(monkeypatch):
    grids = []
    tables = core._tables
    monkeypatch.setattr(core, "_tables", lambda k: grids.append(k) or tables(k))
    k = pmf_table(CmpParams(30.0, 0.7), POLICY).size  # mode 30^(1/0.7) = 129
    assert 200 < k < 404
    assert grids == [k]


@pytest.mark.parametrize("log_lam, nu", [
    (math.log(1.01), 1e-4),  # near the geometric boundary: mode e^99
    (0.5 * math.log(MAX_TERMS - 1) + 1e-9, 0.5),  # ratio lambda / j^nu just above 1 at the cap
])
def test_unconvergeable_series_raises_before_summing(monkeypatch, log_lam, nu):
    with pytest.raises(TruncationError) as before:
        reference_ladder(log_lam, nu, POLICY)
    monkeypatch.setattr(core, "_tables", lambda k: pytest.fail("summed a series"))
    with pytest.raises(TruncationError) as after:
        log_normalizer_at(log_lam, nu, POLICY)
    assert str(after.value) == str(before.value)


def test_mode_just_inside_the_cap_converges():
    # mode at 99% of MAX_TERMS; nu = 50 keeps the peak narrow enough to fit
    log_lam, nu = 50.0 * math.log(0.99 * MAX_TERMS), 50.0
    assert log_lam < nu * math.log(MAX_TERMS - 1)
    t, log_z = _series(log_lam, nu, POLICY)
    assert log_z == pytest.approx(reference_ladder(log_lam, nu, POLICY)[1], rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.05, 40.0), nu=st.floats(0.5, 4.0))
@example(lam=30.0, nu=0.7)
def test_moments_log_z_is_log_normalizer(lam, nu):
    p = CmpParams(lam, nu)
    converged_grid_size(p)
    assert moments(p, POLICY).log_z == log_normalizer(p, POLICY)


def reference_moments(log_lam, nu):
    """The five expectations as separate sums of g(j) * w_j, and ln Z, on one fresh grid."""
    t, log_z = _series(log_lam, nu, POLICY)
    j = np.arange(t.size, dtype=np.float64)
    g = gammaln(j + 1.0)
    w = np.exp(t - log_z)
    jw = j * w
    gw = g * w
    return [float(jw.sum()), float(jw @ j), float(gw.sum()), float(gw @ g), float(jw @ g)], log_z


@settings(max_examples=150, deadline=None)
@given(**SIZING)
@example(log_lam=math.log(30.0), nu=0.7)
@example(log_lam=math.log(0.9), nu=0.2)  # geometric-like slow tail
def test_moment_product_matches_five_sums(log_lam, nu):
    sized_series(log_lam, nu)
    got, got_log_z = moment_sums_at(log_lam, nu, POLICY)
    expected, log_z = reference_moments(log_lam, nu)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert got_log_z == log_z == log_normalizer_at(log_lam, nu, POLICY)


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


class RecordingGenerator:
    """A numpy Generator that records which method each draw came from."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, *size):
        self.calls.append("normal")
        return self._g.standard_normal(*size)

    def random(self):
        self.calls.append("uniform")
        return self._g.random()


def test_rejected_proposal_counts_as_divergence(monkeypatch):
    # every proposal after the start is non-finite: the chain stays at the
    # start, each kept proposal counts as a divergence and no uniform is drawn
    g = RecordingGenerator(0)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: g)
    starts = []

    def target(u, v):
        if starts:
            return -math.inf
        starts.append((u, v))
        return -3.0

    config = McmcConfig(chains=2, warmup=150, keep=100)
    lam, nu, accept_rate, divergent = _run_chain(target, 2.0, config, SeedSpec(0), 0)
    (u, v), = starts
    assert (lam == math.exp(u)).all() and (nu == math.exp(v)).all()
    assert (accept_rate, divergent) == (0.0, 100)
    # the start's two scalar normals, then one pair per step
    assert g.calls == ["normal"] * (2 + 250)


@pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
def test_one_series_per_target_evaluation(monkeypatch, prior):
    counts = {"series": 0, "above_floor": 0, "below_floor": 0}
    targets = []
    series = core._series
    make_target = mcmc._make_target

    def counted_series(*args):
        counts["series"] += 1
        return series(*args)

    def counted_make_target(*args):
        target = make_target(*args)

        def counted_target(u, v):
            counts["above_floor" if v >= math.log(NU_FLOOR) else "below_floor"] += 1
            return target(u, v)

        targets.append(counted_target)
        return counted_target

    monkeypatch.setattr(core, "_series", counted_series)
    monkeypatch.setattr(mcmc, "_make_target", counted_make_target)
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    run_chains(get_preset(prior), stats, McmcConfig(chains=2, warmup=500, keep=300), SeedSpec(3))
    assert counts["above_floor"] >= 2 * 800
    assert counts["series"] == counts["above_floor"]
    # a proposal below the floor is rejected before any series
    assert targets[0](1.0, math.log(NU_FLOOR) - 1.0) == -math.inf
    assert counts["below_floor"] >= 1
    assert counts["series"] == counts["above_floor"]
