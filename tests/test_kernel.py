"""Property tests for the one-series log kernel, its grid sizing, its batched rows and the
sampler's target."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammaln, logsumexp
from scipy.stats import kstest

from cmpbayes import (
    AllDivergentError,
    CmpParams,
    Conjugate,
    ConjugateHyper,
    Flat,
    InvalidParamsError,
    Jeffreys,
    McmcConfig,
    SeedSpec,
    SufficientStats,
    TruncationError,
    TruncationPolicy,
    bundled_dataset,
    core,
    get_preset,
    log_likelihood,
    log_normalizer,
    log_pmf,
    log_posterior,
    make_generator,
    mcmc,
    moments,
    pmf_table,
    posterior,
    run_chains,
    sufficient_stats,
)
from cmpbayes.core import MAX_TERMS, _log_terms, _series, central_moments, series_arrays
from cmpbayes.errors import ModeNotFoundError, NonpositiveDeterminantError
from cmpbayes.mcmc import NU_FLOOR, _make_target
from cmpbayes.posterior import log_kernel
from cmpbayes.priors import JEFFREYS_DET, OUTSIDE_SUPPORT, OVERFLOW, REJECTIONS, TRUNCATION

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
@example(lam=30.0, nu=0.7)  # mode 129: sized to 303 terms
@example(lam=0.9, nu=0.0)  # geometric case, slow tail
@example(lam=40.0, nu=0.5)  # mode 1600: sized to 2121 terms
def test_log_normalizer_matches_fresh_gammaln(lam, nu):
    p = CmpParams(lam, nu)
    k = converged_grid_size(p)
    j = np.arange(k, dtype=np.float64)
    expected = logsumexp(j * math.log(lam) - nu * gammaln(j + 1.0))
    assert log_normalizer(p, POLICY) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_examples_cover_grown_grids():
    for lam, nu in ((30.0, 0.7), (0.9, 0.0), (40.0, 0.5)):
        assert pmf_table(CmpParams(lam, nu), POLICY).size > POLICY.base_terms


# The closed forms ln Z(lambda, 1) = lambda and ln Z(lambda, 0) = -ln(1 - lambda) hold
# for the whole series. The summed grid of K terms omits a tail of up to tail_tol
# relative to its sum (ln Z up to tail_tol low), so the closed form of the first K
# terms is held to 1e-12 relative or 1e-14 absolute, and the whole series to tail_tol.
LOG_Z_TOL = dict(rel=1e-12, abs=1e-14)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(1e-8, 500.0))
@example(lam=49.53397669883494)  # one 101-term block left a tail near tail_tol
@example(lam=300.0)  # sized past base_terms
def test_log_z_of_poisson_is_lambda(lam):
    p = CmpParams(lam, 1.0)
    log_z = log_normalizer(p, POLICY)
    # the first K terms of e^lambda's series sum to e^lambda * Q(K, lambda)
    omitted = math.log(gammaincc(pmf_table(p, POLICY).size, lam))
    assert log_z == pytest.approx(lam + omitted, **LOG_Z_TOL)
    assert -POLICY.tail_tol < omitted <= 0.0
    assert abs(log_z - lam) < POLICY.tail_tol + 1e-12 * lam


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(1e-8, 0.99))
@example(lam=0.7960590295147574)  # one 101-term block left a tail near tail_tol
@example(lam=0.99)  # sized from its tail to 4 096 terms
def test_log_z_of_geometric_is_minus_log1m_lambda(lam):
    p = CmpParams(lam, 0.0)
    log_z = log_normalizer(p, POLICY)
    whole = -math.log1p(-lam)
    # the first K terms of the geometric series sum to (1 - lambda^K) / (1 - lambda)
    omitted = math.log1p(-lam ** pmf_table(p, POLICY).size)
    assert log_z == pytest.approx(whole + omitted, **LOG_Z_TOL)
    assert -POLICY.tail_tol < omitted <= 0.0
    assert abs(log_z - whole) < POLICY.tail_tol + 1e-12 * whole


def test_geometric_past_the_cap_raises():
    # the tail bound lambda^K / (1 - lambda^K) stays above tail_tol until K is near
    # 23 000, past MAX_TERMS
    with pytest.raises(TruncationError):
        log_normalizer(CmpParams(0.999, 0.0), POLICY)


def reference_ladder(log_lam, nu, policy):
    """The unsized grid: base_terms, doubled and summed afresh until the tail test passes."""
    log_tol = math.log(policy.tail_tol)
    k = policy.base_terms
    while True:
        j = np.arange(k, dtype=np.float64)
        t = log_lam * j - nu * gammaln(j + 1.0)
        # the weights exp(t), less the largest term where one passes 600; where nothing
        # is subtracted t_0 = 0 weighs 1, and ln Z is log1p of the other weights' sum
        # (numpy's log1p, nearer the correctly rounded value than math.log1p)
        m = float(t.max())
        c = m if m > 600.0 else 0.0
        w = np.exp(t - c)
        rest = np.add.reduce(w[1:])
        log_z = float(np.log1p(rest) if c == 0.0 else c + np.log(w[0] + rest))
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


def first_length(log_lam, nu, moments=False):
    """The length of the grid a row is summed over; 0 where it cannot be summed."""
    return int(core._sizes(np.array([log_lam]), np.array([nu]), POLICY, moments)[0][0])


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


# R, the log-units by which a grid's last term has fallen below its largest
REACH = 53.0 * math.log(2.0) + 3.0
MOMENT_REACH = REACH + 16.0


def rungs(base_terms):
    """The grid lengths ceil(base_terms * 2^(i/4)), capped at MAX_TERMS."""
    return sorted({min(math.ceil(base_terms * 2.0 ** (i / 4)), MAX_TERMS) for i in range(60)})


def certified_fall(log_lam, nu, j):
    """The closed-form bound on t_max - t_j: nu m h(j/m - 1) past the mode m, h(x) =
    (1 + x) ln(1 + x) - x, and j (-ln lambda) below lambda = 1."""
    fall = -j * log_lam if log_lam < 0.0 else 0.0
    if nu > 0.0:
        m = math.exp(log_lam / nu)
        if 0.0 < m < j:
            x = j / m - 1.0
            fall = max(fall, nu * m * ((1.0 + x) * math.log1p(x) - x))
    return fall


def sizing_reach(log_lam, nu, reach):
    """The index the sizing rule reaches: the root of Bennett's bound h(x) >= x^2 / (2 (1 +
    x/3)) for nu m h(x) = reach, three Newton steps on h from there, times the mode and
    plus it; below lambda = 1, at most reach / -ln lambda."""
    last = reach / -log_lam if log_lam < 0.0 else math.inf
    m = math.exp(log_lam / nu) if nu > 0.0 else 0.0
    if m > 0.0:
        c = reach / (nu * m)
        x = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c)
        for _ in range(3):
            x = (x + c) / math.log1p(x) - 1.0
        last = min(last, m * (1.0 + x))  # nan (c past float range) leaves the tail's
    return last


@settings(max_examples=150, deadline=None)
@given(log_lam=st.floats(-3.0, 4.5), nu=st.floats(0.0, 4.0), moments=st.booleans())
@example(log_lam=1.0, nu=1.0, moments=False)  # 32 terms
@example(log_lam=math.log(0.8), nu=0.0, moments=True)  # geometric: its tail reach alone
@example(log_lam=math.log(0.8), nu=1e-4, moments=False)  # near-geometric
@example(log_lam=math.log(30.0), nu=0.7, moments=True)
def test_first_length_is_the_first_rung_past_the_reach(log_lam, nu, moments):
    # a row's grid is the shortest rung of the ladder ceil(base_terms * 2^(i/4)) that
    # holds the index the sizing rule reaches, R past the largest term (R + 16 with
    # moments); the closed-form bound on the fall puts its last term that far down
    assume(nu > 0.0 or log_lam < 0.0)
    k = first_length(log_lam, nu, moments)
    assume(0 < k < MAX_TERMS)
    reach = MOMENT_REACH if moments else REACH
    assert k == min(rung for rung in rungs(POLICY.base_terms)
                    if rung >= math.floor(sizing_reach(log_lam, nu, reach)) + 2)
    assert certified_fall(log_lam, nu, k - 1) >= reach


@settings(max_examples=60, deadline=None)
@given(base_terms=st.integers(2, MAX_TERMS), seed=st.integers(0, 2 ** 32 - 1),
       moments=st.booleans())
@example(base_terms=2, seed=0, moments=True)  # the longest ladder: 49 rungs
@example(base_terms=MAX_TERMS, seed=0, moments=False)  # one rung
def test_grid_key_sorts_rows_as_their_lengths_do(base_terms, seed, moments):
    # series_arrays orders its rows by _sizes' int16 key, which numpy's stable argsort
    # radix-sorts: the order of (grid length, ln Z's length), ties in row order, with the
    # unsummed rows (key 0) first
    rng = np.random.default_rng(seed)
    log_lam = rng.uniform(-5.0, 15.0, 2000)
    nu = rng.uniform(0.0, 2.0, 2000) ** 2
    k, _, k_z, key = core._sizes(log_lam, nu, TruncationPolicy(base_terms), moments)
    assert key.dtype == np.int16
    assert np.array_equal(key == 0, k == 0)
    assert np.array_equal(np.argsort(key, kind="stable"),
                          np.argsort(k * (MAX_TERMS + 1) + k_z, kind="stable"))


@settings(max_examples=150, deadline=None)
@given(log_lam=st.floats(-3.0, 4.5), nu=st.floats(0.0, 4.0))
@example(log_lam=math.log(0.7960590295147574), nu=1e-4)
@example(log_lam=math.log(0.8), nu=0.01)
@example(log_lam=math.log(0.592), nu=0.0)
@example(log_lam=math.log(49.53397669883494), nu=1.0)
def test_sized_grid_omits_less_than_an_ulp(log_lam, nu):
    # the grid's last term is at most e^-R times its largest, and the terms past it
    # (up to 4x its length, summed exactly) move ln Z by at most 1 ulp
    assume(nu > 0.0 or log_lam < 0.0)
    t, log_z = sized_series(log_lam, nu)
    assume(t.size < MAX_TERMS)
    assert t[-1] - t.max() <= -REACH
    j = np.arange(4 * t.size, dtype=np.float64)
    shift = float(core._sizes(np.array([log_lam]), np.array([nu]), POLICY)[1][0])
    w = np.exp(log_lam * j - nu * gammaln(j + 1.0) - shift)
    assert math.fsum(w[t.size:]) / math.fsum(w) <= math.ulp(log_z)


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-30])
def test_only_a_row_cut_at_the_cap_fails_the_tail_test(tail_tol):
    # R is 53 ln 2 + 3, or -ln tail_tol + ln(MAX_TERMS - 1) + 3 where that is larger, so
    # a row shorter than MAX_TERMS has a tail bound term * r / (1 - r) under tail_tol
    # and is never nan; its series is summed once, at its sized length
    rng = np.random.default_rng(0)
    nu = np.exp(rng.uniform(math.log(1e-4), math.log(20.0), 4000))
    nu[:400] = 0.0
    log_lam = np.where(nu == 0.0, -np.exp(rng.uniform(-7.0, 3.0, nu.size)),
                       rng.uniform(-8.0, 8.0, nu.size) * np.maximum(nu, 0.05))
    for moments in (False, True):
        log_z, _, k = series_arrays(log_lam, nu, TruncationPolicy(tail_tol=tail_tol), moments)
        short = (k > 0) & (k < MAX_TERMS)
        assert short.sum() > 3000
        assert not np.isnan(log_z[short]).any()


def test_base_grid_keeps_the_sizing_margin():
    # lambda = 49.53 at nu = 1 had its mode within one 101-term block, whose tail was
    # just under tail_tol (ln Z was 9.6e-11 low); its grid now reaches R past the mode
    lam = 49.53397669883494
    assert log_normalizer(CmpParams(lam, 1.0), POLICY) == pytest.approx(lam, rel=1e-15)


@pytest.mark.parametrize("lam", [1e-8, 1e-12, 1e-300])
def test_log_z_near_zero_keeps_relative_precision(lam):
    # ln Z = log1p(sum of the weights past t_0 = 0): ln Z(1e-8, 1) was 1.1e-8 off
    # relative, and ln Z(1e-12, 1) 8.9e-5, when it was the log of the whole sum
    assert log_normalizer(CmpParams(lam, 1.0), POLICY) == pytest.approx(lam, rel=1e-15)
    assert log_normalizer(CmpParams(lam, 0.0), POLICY) == pytest.approx(
        -math.log1p(-lam), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(log_lam=st.floats(-50.0, 50.0), nu=st.floats(0.0, 10.0), rows=st.integers(1, 4),
       k=st.integers(1, MAX_TERMS))
def test_log_terms_are_the_einsums_to_the_bit(log_lam, nu, rows, k):
    # series_arrays' blocked form of the term: the same products and sum, so the same
    # bits, but for a term that is exactly 0 (t_0, and t_1 at ln lambda = -0.0, say),
    # 0.0 there and possibly -0.0 here
    coef = np.array([[log_lam], [-nu]]) * np.arange(1.0, rows + 1.0)
    blocked = np.einsum("ib,ik->bk", coef, core._MOMENT_TABLE[0:3:2, :k])
    direct = _log_terms(coef[0][:, None], -coef[1][:, None], np.arange(k))
    assert (direct == blocked).all()
    nonzero = blocked != 0.0
    assert direct[nonzero].tobytes() == blocked[nonzero].tobytes()
    assert direct[:, 0].tolist() == [0.0] * rows


@settings(max_examples=100, deadline=None)
@given(log_lam=st.floats(-50.0, 50.0), nu=st.floats(0.0, 10.0),
       j=st.lists(st.integers(0, 10**9), min_size=1, max_size=20))
def test_log_terms_read_gammaln_past_the_table(log_lam, nu, j):
    # below MAX_TERMS the table is gammaln of the same floats, so either read is gammaln's
    j = np.array(j)
    want = log_lam * j.astype(np.float64) - nu * gammaln(j + 1.0)
    assert _log_terms(log_lam, nu, j).tobytes() == want.tobytes()
    small = j % MAX_TERMS
    want = log_lam * small.astype(np.float64) - nu * gammaln(small + 1.0)
    assert _log_terms(log_lam, nu, small).tobytes() == want.tobytes()


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
    (1.0, 0.0),  # geometric past lambda = 1: nu times its infinite mode is sized without a warning
])
def test_unconvergeable_series_raises_before_summing(monkeypatch, log_lam, nu):
    with pytest.raises(TruncationError) as before:
        reference_ladder(log_lam, nu, POLICY)
    monkeypatch.setattr(core, "_tables", lambda k: pytest.fail("summed a series"))
    with pytest.raises(TruncationError) as after:
        _series(log_lam, nu, POLICY)
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
    got, got_log_z = _series(log_lam, nu, POLICY, moments=True)
    expected, log_z = reference_moments(log_lam, nu)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert got_log_z == log_z == _series(log_lam, nu, POLICY)[1]


def series_rows(points, policy, moments=False):
    """series_arrays at a list of (ln lambda, nu) points, one list entry per point.

    Row i is ln Z at points[i] or, with moments, the five moment sums (a list)
    and ln Z; None where the series cannot be summed.
    """
    log_lam, nu = np.array(points, dtype=np.float64).reshape(-1, 2).T
    log_z, sums, _ = series_arrays(log_lam, nu, policy, moments)
    log_z = log_z.tolist()
    rows = list(zip(sums.tolist(), log_z)) if moments else log_z
    return [None if math.isnan(z) else row for z, row in zip(log_z, rows)]


def scalar_series(log_lam, nu, moments):
    """_series at one point: ln Z or, with moments, the five moment sums and ln Z."""
    try:
        series = _series(log_lam, nu, POLICY, moments)
    except TruncationError:
        return None
    return series if moments else series[1]


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(*SIZING.values()), min_size=1, max_size=6),
       moments=st.booleans())
@example(points=[(math.log(30.0), 0.7), (1.0, 1.0)], moments=False)  # 305 and 32 terms
@example(points=[(math.log(30.0), 0.7), (math.log(30.0), 0.7)], moments=True)
@example(points=[(math.log(2.0), 1e-3), (1.0, 1.0)], moments=True)  # a row that cannot converge
@example(points=[(math.log(0.9), 0.0), (1.0, 1.0)], moments=True)  # geometric: 609 terms
@example(points=[(2.99, 0.45), (3.96, 1.07)], moments=False)  # 1218 terms beside 108
# near-geometric, mode-sized and geometric rows, each on its own rung
@example(points=[(math.log(0.8), 1e-4), (math.log(20.0), 0.75), (math.log(0.8), 0.0)],
         moments=True)
# largest-term bound nu * lambda^(1/nu) just under and just over 600: unshifted and shifted
@example(points=[(20.0 * math.log(30.0) - 1e-9, 20.0), (20.0 * math.log(30.0) + 1e-9, 20.0)],
         moments=True)
# lambda = e^800 at nu = 1e8 is shifted by its largest term, 800; lambda = e^-800 is not
@example(points=[(800.0, 1e8), (-800.0, 1e8), (1.0, 1.0)], moments=True)
# the near-cap row, shifted
@example(points=[(50.0 * math.log(0.99 * MAX_TERMS), 50.0), (1.0, 1.0)], moments=True)
def test_series_rows_match_each_series(points, moments):
    # every row, of any length, is its one-point series bit for bit: one routine sums
    # both
    got = series_rows(points, POLICY, moments)
    assert got == [scalar_series(log_lam, nu, moments) for log_lam, nu in points]
    assert got == [series_rows([point], POLICY, moments)[0] for point in points]


# series_arrays' bits at points of every kind: (ln lambda, nu) -> float.hex of ln Z, and of
# the five moment sums; None where the row cannot be summed. Each row is both plain and
# with moments, in one batch and alone. Re-frozen when ln Z of an unshifted row became
# log1p of its weights past t_0 and base grids kept the sizing margin: ln Z moved by at
# most 5 ulp (at (-2, 3), now 1 ulp from its 50-digit sum, 6 before), and each moment
# sum by at most 3.0e-16 relative; (4.7, 0.4) is now sized to 202 terms, not doubled.
# The moment sums were re-frozen when grids came to be sized to their ulp reach on the
# 2^(1/4) ladder, with 16 more log-units for the moments: 14 of them moved, by at most
# 1.65e-15 relative (at (2.5, e^-1)), and no ln Z moved. Lengths below: ln Z's (moments').
PINNED_ROWS = {
    (1.0, 1.0): (  # 32 terms (39 with moments)
        "0x1.5bf0a8b145769p+1",
        ["0x1.5bf0a8b145769p+1", "0x1.436f4ff2f84b0p+3", "0x1.e091817f1a4bfp+0",
         "0x1.f1fbbf7925a9ep+2", "0x1.0bf884a5bbbb6p+3"]),
    (math.log(0.5), 0.5): (
        "0x1.1ccddbf31a5aap-1",
        ["0x1.3bfb63a2486d3p-1", "0x1.211db1a1574d4p+0", "0x1.40cb06ff5feddp-3",
         "0x1.19447e62fe435p-2", "0x1.cad55189244b0p-2"]),
    (-2.0, 3.0): (
        "0x1.0818519cb6888p-3",
        ["0x1.f7e0c8d87cf1bp-4", "0x1.044e7b9951f3ap-3", "0x1.726e05fd05c79p-10",
         "0x1.060309a1c6d41p-10", "0x1.74d10c705b172p-9"]),
    (math.log(20.0), 0.75): (  # mode 54: 153 terms (182)
        "0x1.4cb59b5c8cbbap+5",
        ["0x1.b3a5220eec471p+5", "0x1.7bb994d7a933dp+11", "0x1.4d9c1b804118dp+7",
         "0x1.c4eaf0e157e61p+14", "0x1.24ebd9ab22f7cp+13"]),
    (math.log(30.0), 0.7): (  # mode 129: 305 terms (305)
        "0x1.6d958f2054b46p+6",
        ["0x1.022e942772250p+7", "0x1.07425a47de167p+14", "0x1.f66b5fd374731p+8",
         "0x1.f58760e51e1cep+17", "0x1.00d964840fc7ep+16"]),
    (2.5, math.exp(-1.0)): (  # mode 894: 1449 terms (1723)
        "0x1.4c1cc952824e0p+8",
        ["0x1.bf6dded86bff7p+9", "0x1.8830342c4a617p+19", "0x1.448dea3b44cf4p+12",
         "0x1.9d2e214447defp+24", "0x1.1ca1a45046ca4p+22"]),
    (50.0 * math.log(0.99 * MAX_TERMS), 50.0): (  # sized near the cap, shifted
        "0x1.e321e6fb92dcdp+18",
        ["0x1.355c1478acae9p+13", "0x1.75d79c0a093d1p+26", "0x1.3d1fe46ae5eb4p+16",
         "0x1.88d84121a2ee4p+32", "0x1.7f39c8745b775p+29"]),
    (math.log(4.7), 0.4): (  # mode 48: 182 terms (216)
        "0x1.55304e2e294e5p+4",
        ["0x1.852894b699e7dp+5", "0x1.36c0f6aae0540p+11", "0x1.20d16aa997b18p+7",
         "0x1.62457c812509ep+14", "0x1.d430f2f8dfde7p+12"]),
    (math.log(0.9), 0.0): (  # geometric, sized from its tail: 431 terms (609)
        "0x1.26bb1bbb55516p+1",
        ["0x1.1fffffffffffep+3", "0x1.55ffffffffffep+7", "0x1.0c82cc05aae30p+4",
         "0x1.dc30a480c77b7p+9", "0x1.880180a377f57p+8"]),
    (math.log(0.999), 0.0): None,  # sized to MAX_TERMS and still unconverged
    (math.log(2.0), 1e-3): None,  # term ratio >= 1 at the cap: refused before summing
    (0.5 * math.log(MAX_TERMS - 1) + 1e-9, 0.5): None,  # ratio just above 1 at the cap
}


@pytest.mark.parametrize("moments", [False, True], ids=["plain", "moments"])
def test_series_rows_frozen_bits(moments):
    points = list(PINNED_ROWS)
    want = []
    for frozen in PINNED_ROWS.values():
        if frozen is None:
            want.append(None)
        elif moments:
            want.append(([float.fromhex(x) for x in frozen[1]], float.fromhex(frozen[0])))
        else:
            want.append(float.fromhex(frozen[0]))
    assert series_rows(points, POLICY, moments) == want
    assert [series_rows([point], POLICY, moments)[0] for point in points] == want


# ln Z at each summable pinned row to 50 digits, from an independent sum (mpmath at 70
# digits: j*ln lambda - nu*loggamma(j + 1) summed by log-sum-exp over j until the terms
# fall e^-230 below the largest), at the float (ln lambda, nu) of the row.
LNZ_50_DIGITS = {
    (1.0, 1.0): "2.7182818284590452353602874713526624977572470937",
    (math.log(0.5), 0.5): "0.55625808088841679598212123328874830795482937691604",
    (-2.0, 3.0): "0.12895263442516499878523138532672928694972685438232",
    (math.log(20.0), 0.75): "41.588675234837373305733426080682097442006042612607",
    (math.log(30.0), 0.7): "91.396053795976592976094816857661729434000823506744",
    (2.5, math.exp(-1.0)): "332.11244693452138119560381655560718022928103453219",
    (50.0 * math.log(0.99 * MAX_TERMS), 50.0):
        "494727.60910483870632798184278886987239206332487839",
    (math.log(4.7), 0.4): "21.324293308561111357580120290997818844342252237761",
    (math.log(0.9), 0.0): "2.3025850929940458627712537922557272051767520479777",
}


def test_pins_are_near_50_digit_sums():
    assert set(LNZ_50_DIGITS) == {p for p, frozen in PINNED_ROWS.items() if frozen is not None}
    for point, digits in LNZ_50_DIGITS.items():
        ref = float(digits)
        off = abs(float.fromhex(PINNED_ROWS[point][0]) - ref) / math.ulp(ref)
        if point == (50.0 * math.log(0.99 * MAX_TERMS), 50.0):
            # the near-cap row's terms near 4.5e6 cancel to its ln Z, carrying the
            # rounding of their products (half an ulp of 4.5e6 is 8 ulp of ln Z)
            assert off <= 8
        else:
            assert off <= 2


# The five CmpMoments expectations at each summable pinned row and at (ln 0.8, 1e-4), to 50
# digits from the same independent sums as LNZ_50_DIGITS (each g(j) weighed by the terms'
# exp(t_j - ln Z)), and the most ulp any of a point's five was off before grids were
# sized to their ulp reach (when each was a whole number of 101-term blocks).
MOMENTS_50_DIGITS = {
    (1.0, 1.0): (1, [
        "2.7182818284590452353602874713526624977572470937",
        "10.107337927389695462590714931927670310937562664252",
        "1.8772202430066468576195204876195548983555700899007",
        "7.7809904749944095614413330732398559552901176909803",
        "8.3740866887072623665470706306495191038124413838581"]),
    (math.log(0.5), 0.5): (1, [
        "0.61715232234947797815941789608786266334946780009125",
        "1.1293593424700718459711354617651606825117986798165",
        "0.15663724390832716210021133787387752385385082229015",
        "0.27467534522253641091977423142698269275117483764619",
        "0.44807937049433638467470353941673559943141777624795"]),
    (-2.0, 3.0): (2, [
        "0.12301710563025061589158618767497455637180047097007",
        "0.12710281907697567558372554032243012632970033741271",
        "0.0014130774645815513820816498951608835802737274703152",
        "0.00099949594773003681859128289482885279105673166321505",
        "0.0028443648990814031559046815552628280512948992854949"]),
    (math.log(20.0), 0.75): (5, [
        "54.455631367288252825904585815058177201802543367936",
        "3037.7994192414041330464603829960733644455119920267",
        "166.80489731592801042688911521778072765593436704052",
        "28986.735234616695073744978524423269563288397380374",
        "9373.4812834484032876857438683098635439158920239756"]),
    (math.log(30.0), 0.7): (29, [
        "129.09097407596960814615043513850988740457953356862",
        "16848.588164777918074858004911378877836153134175539",
        "502.4194309386549503053660154969756768766973637693",
        "256782.75699211598739758440000900977554410803204421",
        "65753.392640100986505522333692313419314639033199329"]),
    (2.5, math.exp(-1.0)): (5, [
        "894.85836320184071095902093772826850521872781467249",
        "803201.63040656082471082826161296396460515786840241",
        "5192.8696854293659783875312995957389324768056870799",
        "27078177.266721628668178455429101358152968744555875",
        "4663401.0783950396686080761183734173049162973950394"]),
    (50.0 * math.log(0.99 * MAX_TERMS), 50.0): (790, [
        "9899.5099957929149444041205211522426771139760479957",
        "98000496.156803923001892370254966623633145232685414",
        "81183.892256131270288608494786995011685848608261043",
        "6590841121.6356943329488114234802470786438295788775",
        "803682574.54457445815431836782565865092054708791626"]),
    (math.log(4.7), 0.4): (4, [
        "48.644814898082593397552652451097043420329232565701",
        "2486.0301107770362345887109605407197926016386774857",
        "144.40901689507228574621517918375157419407498353746",
        "22673.371586397868402721435135240772403374745848214",
        "7491.0593193764565252311230107313118673201107836943"]),
    (math.log(0.9), 0.0): (13, [
        "9.0000000000000017875326233757137897394004872165419",
        "171.00000000000006613870706490141661090357729193493",
        "16.781932851923732914342334638411113818140358073718",
        "952.38002023449330511058700768100950000035122001599",
        "392.0058691184873643733790853336207337567063098683"]),
    (math.log(0.8), 1e-4): (3, [
        "3.9961280386975161786116082701884983198365732124708",
        "35.925517594773944886537954865596825353728320225258",
        "5.0098634298993514519742013189673483341840958243462",
        "105.4171620203636447235879907398563912684793607474",
        "58.68654127838797149774495711928957097798442586049"]),
}


def test_moment_sums_are_near_50_digit_sums():
    # a moment grid too short shows as sums further off than the same sums over 4x the
    # grid (without the moment reach's 16 log-units, E((ln X!)^2) at (ln 0.8, 1e-4) was
    # 92 ulp off, against 1 over 4x its grid); the rest is the rounding of the log terms,
    # which no grid length removes and whose summation order moves each sum by a few ulp
    summable = {p for p, frozen in PINNED_ROWS.items() if frozen is not None}
    assert set(MOMENTS_50_DIGITS) == summable | {(math.log(0.8), 1e-4)}
    for (log_lam, nu), (before, digits) in MOMENTS_50_DIGITS.items():
        point = (np.array([log_lam]), np.array([nu]))
        _, sums, k = series_arrays(*point, POLICY, moments=True)
        longer = TruncationPolicy(base_terms=min(4 * int(k[0]), MAX_TERMS))
        _, longer_sums, _ = series_arrays(*point, longer, moments=True)
        for got, at_4x, ref in zip(sums[0], longer_sums[0], map(float, digits)):
            off = abs(got - ref) / math.ulp(ref)
            assert off <= abs(at_4x - ref) / math.ulp(ref) + 2, (log_lam, nu)
            assert off <= before + 4, (log_lam, nu)


# The central moments E d_x^(m - q) d_g^q, m = 2, 3, 4 and q = 0..m, of d = s - E s for
# s = (X, -ln X!), which give the Jeffreys derivatives: at each point to 50 digits from
# the same independent sums as LNZ_50_DIGITS (mpmath at 70 digits, each deviation
# weighed by exp(t_j - ln Z) about the 70-digit means).
CENTRAL_50_DIGITS = {
    (math.log(9.0), 1.0): [  # Poisson(9): variance and k3 9, mu4 3 * 81 + 9
        "9.0000000000000016328335023002755557181755101992113",
        "-20.285680304506191141089913743249266475295056128372",
        "46.182742724484659366609297024871563533997462771824",
        "9.0000000000000016328335023002755557181755101992113",
        "-28.762258514765263234790470729258540666359692289746",
        "83.980509824476020514218276747553350589050351732268",
        "-233.4281648693456684176399477840360099067156525141",
        "252.00000000000008980584262651516356293539176350856",
        "-585.50774272930274901408576945977306852836946854056",
        "1379.2196077171058597734434420874477269288396453412",
        "-3288.3017302329825695957741189691178204517646110067",
        "7922.705172662729965826457278465855257192350442227"],
    (math.log(30.0), 0.7): [  # term mode 129
        "184.10857689526064911683550439109873441413268618391",
        "-895.57890553567742725953024962466052727107912639945",
        "4357.4724073941163183106453815172588343248307889427",
        "263.01367396334547649850526949159103092284450965725",
        "-1540.9543661554513492981520275200121061270923427532",
        "8768.1195807783025379470568717179431700861637402791",
        "-48843.574393468000555061774871527816041105185634645",
        "102063.63597735736102148840120884779560548368994147",
        "-497228.37043885491142042930268567706069779690098538",
        "2423295.6671692228732097038898126769775276655751437",
        "-11814670.571776739195740261942945216712618477275971",
        "57623619.000949845494208627011893806439530254297987"],
    (math.log(0.8), 1e-4): [  # near the geometric floor
        "19.956478293109487525434498604626008981214466589482",
        "-38.666485556121864847505400320206414179819453981483",
        "80.318430434120750783651955626932122197905550997935",
        "179.33496323368357658037495360910026719124074391501",
        "-434.30970655650615564818653614884272214125577927391",
        "1060.9016546862734756334979324613134421482889114596",
        "-2621.97949076436235290967141715330079787247537645",
        "3601.7917630422518831227770165031909234975983667751",
        "-8946.0934936593664669747264214718675486365631499381",
        "22702.723032864943616529812432984437306603160260923",
        "-58666.107530244988144833287501571590646310950890131",
        "154024.84159822913428571834133561781543559153659674"],
    (2.5, math.exp(-1.0)): [  # term mode 894
        "2430.1402142833592789973161760343429245822467124479",
        "-16518.211371259767835705840857158577854687164917982",
        "112281.69687034629711614735038594524263936070881218",
        "6605.8104262846620734704529925024729386033306952308",
        "-51496.936960947148364825842723814585308439301945163",
        "394869.14184078060982962119093026736382944144084644",
        "-2988773.7585577273424163852892865152175064622834602",
        "17734700.825491294306569889073632309141787624204694",
        "-120582648.76370706250633937769164622467992464690136",
        "819916157.99317664651241829200588995309652954430902",
        "-5575421664.7325267592746079003666169059143694189224",
        "37914873617.615218947832868073327316824828117909706"],
}


def test_central_moments_are_near_50_digit_sums():
    # the two-pass central moments on a row's own grid are as close to the 50-digit
    # sums as the same moments over 4x the grid, and within 1e-12 of them relative:
    # the rest is the rounding of the log terms, as for the raw sums
    for (log_lam, nu), digits in CENTRAL_50_DIGITS.items():
        def central(policy):  # of (X, -ln X!) itself: beta = 0
            log_z, sums, k = series_arrays(np.array([log_lam]), np.array([nu]), policy, True)
            mu = central_moments(log_lam, nu, log_z[0], k[0], sums[0, 0], sums[0, 2], 0.0)
            return mu, int(k[0])

        got, k = central(POLICY)
        at_4x, _ = central(TruncationPolicy(base_terms=min(4 * k, MAX_TERMS)))
        for value, longer, ref in zip(got, at_4x, map(float, digits)):
            off = abs(value - ref)
            assert off <= abs(longer - ref) + 2 * math.ulp(ref), (log_lam, nu)
            assert off <= 1e-12 * abs(ref), (log_lam, nu)


# ln Z to 50 digits, from the same independent sums, at two near-geometric rows: their
# term mode lambda^(1/nu) is near 0, and one 101-term block used to pass the tail test
# with ln Z 6.0e-11 and 2.3e-12 relative low
NEAR_GEOMETRIC_LNZ = {
    (0.7960590295147574, 1e-4): "1.5894419025855050138301914539257657581536181313082",
    (0.8, 0.01): "1.5628981549359581818699193538486343054619240076277",
}


@pytest.mark.parametrize("lam, nu", list(NEAR_GEOMETRIC_LNZ))
def test_near_geometric_rows_are_summed_to_the_ulp(lam, nu):
    ref = float(NEAR_GEOMETRIC_LNZ[lam, nu])
    assert abs(log_normalizer(CmpParams(lam, nu), POLICY) - ref) <= 2 * math.ulp(ref)


@settings(max_examples=150, deadline=None)
@given(log_lam=st.floats(-5.0, 40.0), nu=st.floats(0.05, 60.0))
@example(log_lam=20.0 * math.log(30.0) + 1e-9, nu=20.0)  # bound just over 600: shifted
@example(log_lam=50.0 * math.log(0.99 * MAX_TERMS), nu=50.0)  # near the cap
def test_largest_term_is_bounded(log_lam, nu):
    # lnGamma(j + 1) >= j ln j - j bounds the largest log term by nu * lambda^(1/nu),
    # and by t_0 = 0 where ln lambda <= 0; a row over _MAX_UNSHIFTED is shifted by
    # exactly its largest term
    t, _ = sized_series(log_lam, nu)
    largest = float(t.max())
    shift = float(core._sizes(np.array([log_lam]), np.array([nu]), POLICY)[1][0])
    if log_lam <= 0.0:
        assert largest == 0.0 == shift
    else:
        assert largest <= nu * math.exp(log_lam / nu)
        assert shift == (largest if nu * math.exp(log_lam / nu) > core._MAX_UNSHIFTED else 0.0)


def evaluate(target, points):
    """The target at a list of (u, nu) points: its values and reasons, as lists."""
    u, nu = np.array(points, dtype=np.float64).reshape(-1, 2).T
    values, reasons = target(u, nu)
    return values.tolist(), [REJECTIONS[r - 1] if r else None for r in reasons.tolist()]


def target_of(spec, stats=STATS):
    """The sampler's target for a posterior: its log kernel's rows on the support."""
    return _make_target(log_kernel(spec, stats, POLICY))


def scalar_target(spec, u, nu):
    """log_posterior + u at one point, or -inf where the sampler rejects it."""
    if nu < NU_FLOOR:
        return -math.inf
    try:
        lp = log_posterior(spec, STATS, CmpParams(math.exp(u), nu), POLICY)
    except (TruncationError, NonpositiveDeterminantError, OverflowError, InvalidParamsError):
        return -math.inf
    return lp + u if math.isfinite(lp) else -math.inf


def assert_is_scalar_target(value, spec, u, nu):
    """value is scalar_target within 1e-12 relative, and -inf exactly where that is."""
    want = scalar_target(spec, u, nu)
    if want == -math.inf:
        assert value == -math.inf
    else:
        assert value == pytest.approx(want, rel=1e-12)


ORDINARY = st.tuples(st.floats(-2.0, 3.5), st.floats(0.35, 4.5))
REJECTED = st.sampled_from([
    (1.0, NU_FLOOR * (1.0 - 1e-9)),  # nu below the floor
    (800.0, 1.0),  # lambda = e^u overflows
    (-800.0, 1.0),  # lambda = e^u underflows to 0
    (math.log(2.0), 1e-3),  # TruncationError
    (0.0, 1e8),  # zero Jeffreys determinant
])


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.one_of(ORDINARY, REJECTED), min_size=1, max_size=6),
       spec=st.sampled_from(SPECS))
# mode near 894, where the determinant cancels terms 2e10 times its value
@example(points=[(2.5, math.exp(-1.0)), (1.0, 1.0)], spec=Jeffreys())
# largest-term bound just under and just over 600, lambda = e^+-800 at nu = 1e8, and the
# near-cap row
@example(points=[(20.0 * math.log(30.0) - 1e-9, 20.0),
                 (20.0 * math.log(30.0) + 1e-9, 20.0)], spec=Jeffreys())
@example(points=[(800.0, 1e8), (-800.0, 1e8), (1.0, 1.0)], spec=SPECS[0])
@example(points=[(50.0 * math.log(0.99 * MAX_TERMS), 50.0), (1.0, 1.0)], spec=SPECS[0])
def test_batch_equals_row(points, spec):
    target = target_of(spec)
    values, reasons = evaluate(target, points)
    for (u, nu), value in zip(points, values):
        assert_is_scalar_target(value, spec, u, nu)
    assert [r is None for r in reasons] == [v > -math.inf for v in values]
    # and each value and reason is that point's own, bit for bit
    assert (values, reasons) == tuple(
        [row[0] for row in rows] for rows in zip(*(evaluate(target, [p]) for p in points)))


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-2.0, 3.5), nu=st.floats(0.35, 4.5), spec=st.sampled_from(SPECS))
def test_target_is_log_posterior_plus_jacobian(u, nu, spec):
    (value,), _ = evaluate(target_of(spec), [(u, nu)])
    assert_is_scalar_target(value, spec, u, nu)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.1, 30.0), nu=st.floats(0.35, 4.5), spec=st.sampled_from(SPECS))
@example(lam=30.0, nu=0.7, spec=Jeffreys())  # sized to 303 terms
@example(lam=4.7, nu=0.4, spec=SPECS[0])  # sized to 202 terms
@example(lam=4.7, nu=0.4, spec=Jeffreys())
def test_target_is_log_posterior_bit_for_bit(lam, nu, spec):
    # the sampler and log_posterior run one formula on one row of one summation
    # routine: the kernel is the density of (u, nu) = (ln lambda, nu), the target is
    # its rows inside the support, and log_posterior, the density in lambda, is the
    # kernel less the Jacobian u of lambda = e^u
    u = math.log(lam)
    rows = log_kernel(spec, STATS, POLICY)
    (kernel,), _, _ = rows(np.array([u]), np.array([nu]))
    (value,), _ = evaluate(_make_target(rows), [(u, nu)])
    assert value == kernel
    try:
        density = log_posterior(spec, STATS, CmpParams(lam, nu), POLICY)
    except (TruncationError, NonpositiveDeterminantError):
        density = -math.inf
    assert density == kernel - u


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=30),
       lam=st.floats(0.05, 40.0), nu=st.floats(0.5, 4.0))
def test_likelihood_is_the_flat_kernel(counts, lam, nu):
    # the log likelihood is the flat prior's kernel row, bit for bit, and the sum of the
    # counts' log pmfs; with no data it is 0 (the row S1 u - nu S2 may be -0.0 there)
    p, stats = CmpParams(lam, nu), sufficient_stats(counts)
    (row,), _, _ = log_kernel(Flat(), stats, POLICY)(np.array([math.log(lam)]), np.array([nu]))
    assert log_likelihood(stats, p, POLICY) == row
    assert log_likelihood(stats, p, POLICY) == pytest.approx(
        sum(log_pmf(x, p, POLICY) for x in counts), rel=1e-12)
    assert log_likelihood(SufficientStats.empty(), p, POLICY) == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=["conj", "flat", "jeffreys"])
def test_target_rejections(spec):
    target = target_of(spec)
    values, reasons = evaluate(target, [
        (1.0, 1.0),
        (1.0, NU_FLOOR * (1.0 - 1e-9)),  # nu below the floor
        (math.log(2.0), 1e-3),  # TruncationError
        (800.0, math.exp(5.0)),  # lambda = e^u overflows
        (-800.0, 1.0),  # lambda = e^u underflows to 0
    ])
    assert math.isfinite(values[0])
    assert values[1:] == [-math.inf] * 4
    assert reasons == [None, "outside_support", "truncation", "outside_support",
                       "outside_support"]
    # the rejected rows leave the finite one as it is alone
    assert values[0] == evaluate(target, [(1.0, 1.0)])[0][0]


def test_target_rejects_nonpositive_jeffreys_determinant():
    # nu = 1e8 is the Bernoulli limit: ln X! is 0 on the support, so det = 0
    target = target_of(Jeffreys())
    values, reasons = evaluate(target, [(0.0, 1e8), (1.0, 1.0)])
    assert values[0] == -math.inf and math.isfinite(values[1])
    assert reasons == ["jeffreys_det", None]


def test_target_rejects_non_finite_value():
    spec = Conjugate(ConjugateHyper(1e308, 1.0, 1.0))
    target = target_of(spec, SufficientStats.empty())
    assert evaluate(target, [(2.0, 1.0)]) == ([-math.inf], ["overflow"])


class RecordingGenerator:
    """A numpy Generator that records the size of each draw of uniforms, and offers no
    other draw."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)
        self.calls = []

    def random(self, size=None):
        self.calls.append(("uniform", size))
        return self._g.random(size)


def test_draw_order_in_both_phases(monkeypatch):
    # each chain draws its warmup and kept steps together, from its own stream, as one
    # (3, steps) array of uniforms: every step's radial uniform, then every step's angle,
    # then every step's accept uniform, whether or not the step's proposal is finite
    generators = {}
    monkeypatch.setattr(mcmc, "make_generator",
                        lambda *key: generators.setdefault(key, RecordingGenerator(key[-1])))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    config = McmcConfig(chains=2, warmup=5, keep=100)
    d = run_chains(get_preset("conj-1"), stats, config, SeedSpec(3, 4))
    assert d.rejections["outside_support"].sum() > 0
    assert list(generators) == [(3, 4, 0), (3, 4, 1)]
    for g in generators.values():
        assert g.calls == [("uniform", (3, 105))]


def proposals_of(monkeypatch):
    """Record the points of each call of a fit's target, in call order."""
    calls = []
    make_target = mcmc._make_target

    def recording(*args):
        target = make_target(*args)

        def recorded(u, nu):
            calls.append((u.copy(), nu.copy()))
            return target(u, nu)

        return recorded

    monkeypatch.setattr(mcmc, "_make_target", recording)
    return calls


def test_reported_proposal_is_the_sampling_kernel(monkeypatch):
    # every proposal is the reported centre plus rho L (cos theta, sin theta), from its
    # chain's own three uniforms per step in their draw order: rho^2 = 5 expm1(-0.4 ln V)
    # at V = 1 - U_1 and theta = 2 pi U_2; the fit's proposals (fewer than mcmc._CHUNK)
    # are evaluated chain-major in one call of the target, which the mode search does
    # not call
    calls = proposals_of(monkeypatch)
    stats = sufficient_stats(bundled_dataset("textile-faults").counts)
    config = McmcConfig(chains=3, warmup=50, keep=100)
    d = run_chains(get_preset("jeffreys"), stats, config, SeedSpec(2, 1))
    [(u, nu)] = calls
    assert u.size == config.chains * 150
    c00, c10, c11 = d.proposal_cholesky
    assert c00 > 0.0 and c11 > 0.0 and c10 != 0.0
    for c in range(config.chains):
        rows = slice(150 * c, 150 * (c + 1))
        radial, turn, _ = make_generator(2, 1, c).random((3, 150))
        rho = np.sqrt(5.0 * np.expm1(-0.4 * np.log(1.0 - radial)))
        z0, z1 = rho * np.cos(2.0 * np.pi * turn), rho * np.sin(2.0 * np.pi * turn)
        np.testing.assert_allclose(u[rows] - d.proposal_centre[0], c00 * z0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(nu[rows] - d.proposal_centre[1], c10 * z0 + c11 * z1,
                                   rtol=0, atol=1e-13)


def test_proposals_follow_the_bivariate_t():
    # 200 000 of a chain's proposals, standardized by the Cholesky factor to
    # x = L^-1 (point - centre): |x|^2 / 2 follows F(2, 5), the angle of x is uniform,
    # and each log q is the t(5) log density less its constant, -3.5 log1p(|x|^2 / 5);
    # a factor of condition number near 3 keeps the rounding of x far below rtol
    centre, (c00, c10, c11) = np.array([0.4, 0.2]), (0.3, 0.1, 0.2)
    u, nu, log_q, _ = mcmc._proposals(make_generator(0), 200_000, centre, (c00, c10, c11))
    x0 = (u - centre[0]) / c00
    x1 = (nu - centre[1] - c10 * x0) / c11
    radius2 = x0 * x0 + x1 * x1
    assert kstest(radius2 / 2.0, "f", args=(2, 5)).pvalue > 1e-3
    assert kstest(np.arctan2(x1, x0), "uniform", args=(-math.pi, 2.0 * math.pi)).pvalue > 1e-3
    np.testing.assert_allclose(log_q, -3.5 * np.log1p(radius2 / 5.0), rtol=1e-12)


def test_rejected_proposal_counts_as_divergence(monkeypatch):
    # the kept proposals' rejections count per chain by reason, and so do the warmup
    # proposals'; only the kept numerical ones are divergences; a rejected proposal
    # leaves the state where it is
    make_target = mcmc._make_target
    pattern = [TRUNCATION, OUTSIDE_SUPPORT, JEFFREYS_DET, OVERFLOW, 0]

    def rejecting(*args):
        target = make_target(*args)

        def patterned(u, nu):
            values, _ = target(u, nu)
            reasons = np.resize(np.array(pattern, dtype=np.int8), u.size)
            return np.where(reasons == 0, values, -math.inf), reasons

        return patterned

    monkeypatch.setattr(mcmc, "_make_target", rejecting)
    stats = sufficient_stats(bundled_dataset("textile-faults").counts)
    config = McmcConfig(chains=2, warmup=150, keep=100)
    d = run_chains(get_preset("conj-1"), stats, config, SeedSpec(0))
    steps = np.resize(np.array(pattern), 250)
    kept = [steps[150:]] * 2
    for reason, code in (("truncation", TRUNCATION), ("outside_support", OUTSIDE_SUPPORT),
                         ("jeffreys_det", JEFFREYS_DET), ("overflow", OVERFLOW)):
        assert d.rejections[reason].tolist() == [int((k == code).sum()) for k in kept]
        assert d.warmup_rejections[reason].tolist() == [int((steps[:150] == code).sum())] * 2
    assert d.divergences.tolist() == [60, 60]
    assert d.rejections["outside_support"].tolist() == [20, 20]
    for c in range(2):
        moved = np.flatnonzero(np.diff(d.lam[c]) != 0.0) + 1
        assert (kept[c][moved] == 0).all()


def test_one_wholly_rejected_chain(monkeypatch):
    # every kept proposal of chain 0 is rejected, and chain 1's rows are left as they are:
    # the fit is not refused, chain 0 stays at its state at the end of warmup, with no
    # kept step accepted and every kept step counted, and chain 1 is as in a plain fit
    config = McmcConfig(chains=2, warmup=150, keep=100)
    spec, stats = get_preset("conj-1"), sufficient_stats(bundled_dataset("textile-faults").counts)
    plain = run_chains(spec, stats, config, SeedSpec(0))
    make_target, proposals, drawn = mcmc._make_target, mcmc._proposals, []

    def rejecting(*args):
        target = make_target(*args)

        def chain_0_kept_rejected(u, nu):
            assert u.size == config.chains * 250  # one chain-major call
            values, reasons = target(u, nu)
            values[150:250], reasons[150:250] = -math.inf, TRUNCATION
            return values, reasons

        return chain_0_kept_rejected

    def recorded(*args):
        drawn.append(proposals(*args))
        return drawn[-1]

    monkeypatch.setattr(mcmc, "_make_target", rejecting)
    monkeypatch.setattr(mcmc, "_proposals", recorded)
    d = run_chains(spec, stats, config, SeedSpec(0))
    # chain 0's warmup scan, step by step from the mode, on its own rows
    u, nu, log_q, log_u = drawn[0]
    target = target_of(spec, stats)
    ratios = target(u[:150], nu[:150])[0] - log_q[:150]
    centre = d.proposal_centre
    current, point = target(centre[:1], centre[1:])[0][0], (centre[0], centre[1])
    for i in range(150):
        if log_u[i] < ratios[i] - current:
            current, point = ratios[i], (u[i], nu[i])
    assert point != (centre[0], centre[1])
    assert (d.lam[0] == d.lam[0, 0]).all() and (d.nu[0] == point[1]).all()
    assert d.lam[0, 0] == pytest.approx(math.exp(point[0]), rel=1e-15)
    assert d.accept_rate[0] == 0.0
    assert sum(counts[0] for counts in d.rejections.values()) == config.keep
    assert d.divergences[0] == config.keep
    for reason in REJECTIONS:
        assert d.warmup_rejections[reason].tolist() == plain.warmup_rejections[reason].tolist()
        assert d.rejections[reason][1] == plain.rejections[reason][1]
    assert np.array_equal(d.lam[1], plain.lam[1]) and np.array_equal(d.nu[1], plain.nu[1])
    assert d.accept_rate[1] == plain.accept_rate[1] > 0.0


@pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
def test_one_series_per_target_evaluation(monkeypatch, prior):
    # the mode search sums one row per point, under every prior; then
    # the fit's proposals inside the support (fewer than mcmc._CHUNK) are summed
    # in one call, each row once over the grid it was sized to and each length's
    # grids formed once, shortest first: no row is summed again at a longer length;
    # and no one-point series runs
    calls = proposals_of(monkeypatch)
    sizes, grids = [], []
    series, tables = posterior.series_arrays, core._tables

    def counted(log_lam, nu, policy, moments=False):
        sizes.append(log_lam.size)
        grids.clear()
        out = series(log_lam, nu, policy, moments)
        sized = core._sizes(log_lam, nu, policy, moments)[0]
        assert np.array_equal(out[2], sized)
        assert not np.isnan(out[0][(sized > 0) & (sized < MAX_TERMS)]).any()
        assert grids == sorted(set(sized[sized > 0].tolist()))
        return out

    monkeypatch.setattr(posterior, "series_arrays", counted)
    monkeypatch.setattr(core, "_tables", lambda k: grids.append(k) or tables(k))
    monkeypatch.setattr(core, "_series", lambda *args: pytest.fail("a one-point series ran"))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    d = run_chains(get_preset(prior), stats, McmcConfig(chains=2, warmup=500, keep=300),
                   SeedSpec(3))
    u, nu = calls[-1]
    assert u.size == 1_600
    outside = (nu.reshape(2, 800) < NU_FLOOR).sum(axis=1)
    assert sizes[-1] == 1_600 - outside.sum()
    assert (outside >= d.rejections["outside_support"]).all()
    assert d.rejections["outside_support"].sum() > 0
    assert set(sizes[:-1]) == {1}


def test_default_fit_is_one_call_and_its_finite_scan_is_exact(monkeypatch):
    # a McmcConfig() fit's 4 x 2 200 proposals are one call of the target, chain-major,
    # whose rows inside the support reach series_arrays in one call; each chain's accept
    # scan visits only its finite ratios, and accepts the same steps as a scan over every
    # step, since ln U < -inf - r never holds: on crab-satellites about half the
    # proposals fall below the nu floor
    calls = proposals_of(monkeypatch)
    sizes, drawn = [], []
    series, proposals = posterior.series_arrays, mcmc._proposals

    def counted(log_lam, nu, policy, moments=False):
        sizes.append(log_lam.size)
        return series(log_lam, nu, policy, moments)

    def recorded(*args):
        drawn.append(proposals(*args))
        return drawn[-1]

    monkeypatch.setattr(posterior, "series_arrays", counted)
    monkeypatch.setattr(mcmc, "_proposals", recorded)
    spec, stats = get_preset("conj-1"), sufficient_stats(bundled_dataset("crab-satellites").counts)
    config = McmcConfig()
    d = run_chains(spec, stats, config, SeedSpec(1))
    steps = config.warmup + config.keep
    [(u, nu)] = calls
    assert steps == 2_200 and u.size == config.chains * steps
    assert np.array_equal(u, np.concatenate([p[0] for p in drawn]))
    assert np.array_equal(nu, np.concatenate([p[1] for p in drawn]))
    outside = [int((p[1] < NU_FLOOR).sum()) for p in drawn]
    assert sizes[-1] == config.chains * steps - sum(outside)
    assert set(sizes[:-1]) == {1}  # the mode search's points
    assert d.rejections["outside_support"].sum() > 0
    target = target_of(spec, stats)
    centre = d.proposal_centre
    top = target(centre[:1], centre[1:])[0][0]  # the mode's log ratio: its log q is 0
    for c, (u, nu, log_q, log_u) in enumerate(drawn):
        ratios = target(u, nu)[0] - log_q
        assert np.isneginf(ratios).sum() == outside[c] > 0
        current, accepted = top, []
        for i in range(steps):
            if log_u[i] < ratios[i] - current:
                current = ratios[i]
                accepted.append(i)
        state = np.full(steps, -1)
        state[accepted] = accepted
        state = np.maximum.accumulate(state)[config.warmup:]  # the last accepted step, or -1
        assert np.array_equal(d.lam[c], np.exp(np.where(state < 0, centre[0], u[state])))
        assert np.array_equal(d.nu[c], np.where(state < 0, centre[1], nu[state]))
        assert d.accept_rate[c] == sum(i >= config.warmup for i in accepted) / config.keep


def test_no_weight_leaves_the_normal_range():
    # numpy's SIMD exp leaves its fast path for any vector holding an input below
    # ln(DBL_MIN) = -708.4 (subnormal or zero results), so no grid a fit sums may reach
    # that far: a row's log terms, less its shift, are unimodal, so the least is at
    # j = 0 or at the grid's last term. Rows of hungarian-words and slovak-poem need only
    # a few dozen terms; one 101-term block reached below -1 397 there.
    series = posterior.series_arrays
    lengths, least = [], []

    def recorded(log_lam, nu, policy, moments=False):
        out = series(log_lam, nu, policy, moments)
        k = out[2]
        summed = k > 0
        j = k[summed] - 1
        shift = core._sizes(log_lam, nu, policy)[1][summed]
        last = log_lam[summed] * j - nu[summed] * core._LGAMMA[j] - shift
        lengths.append(k[summed])
        least.append(np.minimum(last, -shift))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posterior, "series_arrays", recorded)
        for name in ("textile-faults", "slovak-poem", "crab-satellites", "hungarian-words"):
            stats = sufficient_stats(bundled_dataset(name).counts)
            for prior in ("conj-1", "flat", "jeffreys"):
                lengths.clear()
                least.clear()
                run_chains(get_preset(prior), stats, McmcConfig(chains=2, warmup=200, keep=200),
                           SeedSpec(1))
                assert np.concatenate(least).min() >= math.log(np.finfo(float).tiny), (name, prior)
                if name in ("hungarian-words", "slovak-poem"):
                    assert np.concatenate(lengths).mean() <= 32, (name, prior)


@pytest.mark.parametrize("chunk, cells", [(97, 1_000), (1 << 20, 1 << 20)])
def test_draws_do_not_depend_on_the_grid_bound_or_the_chain_count(monkeypatch, chunk, cells):
    # a row's value is its own, however many rows share its target call and its grid,
    # so each chain's draws are the same whatever mcmc._CHUNK and core._MAX_CELLS are
    # and however many chains run
    counts = sufficient_stats(bundled_dataset("crab-satellites").counts)
    config = McmcConfig(chains=2, warmup=300, keep=200)
    want = run_chains(get_preset("jeffreys"), counts, config, SeedSpec(5))
    monkeypatch.setattr(mcmc, "_CHUNK", chunk)
    monkeypatch.setattr(core, "_MAX_CELLS", cells)
    got = run_chains(get_preset("jeffreys"), counts, McmcConfig(chains=3, warmup=300, keep=200),
                     SeedSpec(5))
    for name in ("lam", "nu", "accept_rate", "divergences"):
        assert np.array_equal(getattr(got, name)[:2], getattr(want, name)), name
    assert got.rejections["outside_support"].sum() > 0
    for reason, per_chain in want.rejections.items():
        assert np.array_equal(got.rejections[reason][:2], per_chain)
    assert np.array_equal(got.proposal_centre, want.proposal_centre)
    assert np.array_equal(got.proposal_cholesky, want.proposal_cholesky)


def test_fit_record_does_not_depend_on_the_chunk_bound(monkeypatch):
    # a McmcConfig() fit's whole record, weight_sup, pareto_k, warmup_rejections and
    # start_is_heaviest included, is the same whether a target call splits a chain (97),
    # ends on a chain boundary (2 200), joins the four chains (8 800) or holds the fit
    spec, stats = get_preset("conj-1"), sufficient_stats(bundled_dataset("crab-satellites").counts)
    config = McmcConfig()
    records = []
    for chunk in (97, 2_200, 8_800, 1 << 20):
        monkeypatch.setattr(mcmc, "_CHUNK", chunk)
        calls = proposals_of(monkeypatch)
        d = run_chains(spec, stats, config, SeedSpec(4))
        assert len(calls) == -(-config.chains * 2_200 // chunk)
        records.append((d.lam, d.nu, mcmc.fit_record(d, mcmc.summarize(d), config.warmup)))
    want_lam, want_nu, want = records[0]
    assert want["warmup_rejections"]["outside_support"] != [0] * config.chains
    assert want["rejections"]["outside_support"] != [0] * config.chains
    for lam, nu, record in records[1:]:
        assert np.array_equal(lam, want_lam) and np.array_equal(nu, want_nu)
        assert record == want


def test_chain_without_finite_start_raises(monkeypatch):
    # the chains start at the posterior's mode; where the mode search finds no finite
    # target to start from (here no series sums anywhere), the fit is refused by name
    # before any draw
    def nowhere_summable(log_lam, nu, policy, moments=False):
        rows = np.full(log_lam.size, np.nan)
        sums = np.full((log_lam.size, 5), np.nan) if moments else None
        return rows, sums, np.zeros(log_lam.size, dtype=np.int64)

    monkeypatch.setattr(posterior, "series_arrays", nowhere_summable)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: pytest.fail("a chain drew"))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    with pytest.raises(ModeNotFoundError, match="^found no finite posterior mode"):
        run_chains(get_preset("conj-1"), stats, McmcConfig(chains=3), SeedSpec(3))


def test_every_kept_proposal_rejected_raises(monkeypatch):
    # the mode search's one-row series sum as usual; every chain row's series is nan, so
    # every proposal is a truncation and the fit is refused after its draws
    series = posterior.series_arrays

    def chains_unsummable(log_lam, nu, policy, moments=False):
        if log_lam.size == 1:
            return series(log_lam, nu, policy, moments)
        return np.full(log_lam.size, np.nan), None, np.zeros(log_lam.size, dtype=np.int64)

    monkeypatch.setattr(posterior, "series_arrays", chains_unsummable)
    stats = sufficient_stats(bundled_dataset("textile-faults").counts)
    with pytest.raises(AllDivergentError, match="^every post-warmup proposal"):
        run_chains(get_preset("conj-1"), stats, McmcConfig(chains=2, keep=100), SeedSpec(3))


def test_data_beyond_float_range_has_no_finite_start():
    # 10^309 ones: S1 * ln(lambda) overflows at every point, so there is no mode
    stats = SufficientStats(n=10**309, s1=10**309, s2=0.0)
    with pytest.raises(AllDivergentError, match="^found no finite posterior mode"):
        run_chains(Jeffreys(), stats, McmcConfig(chains=3), SeedSpec(0))
