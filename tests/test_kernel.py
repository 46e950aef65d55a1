"""Property tests for the one-series log kernel, its grid sizing, its batched rows and the
sampler's target."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammaln, logsumexp

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
    log_normalizer,
    log_posterior,
    make_generator,
    mcmc,
    moments,
    pmf_table,
    run_chains,
    sufficient_stats,
)
from cmpbayes.core import MAX_TERMS, _series, log_normalizer_at, moment_sums_at, series_arrays
from cmpbayes.errors import ModeNotFoundError, NonpositiveDeterminantError
from cmpbayes.mcmc import NU_FLOOR, _make_target
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
@example(lam=49.53397669883494)  # a base grid whose omitted tail is near tail_tol
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
@example(lam=0.7960590295147574)  # a base grid whose omitted tail is near tail_tol
@example(lam=0.99)  # doubled to 3 232 terms
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


def first_length(log_lam, nu):
    """The length of the first grid a row is summed over; 0 where it cannot be summed."""
    return int(core._sizes(np.array([log_lam]), np.array([nu]), POLICY)[0][0])


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
@example(log_lam=1.0, nu=1.0)  # ln Z(e, 1) = 2.718281828459045, the double nearest e
@example(log_lam=math.log(0.8), nu=0.0)  # geometric tail: 101 terms double to 202
def test_small_mode_is_the_old_ladder(log_lam, nu):
    # a row whose mode plus its sized width is within base_terms starts at base_terms,
    # unsized, and doubles from there until its tail test passes
    t, log_z = sized_series(log_lam, nu)
    assume(first_length(log_lam, nu) == POLICY.base_terms)
    t_ref, log_z_ref = reference_ladder(log_lam, nu, POLICY)
    assert np.array_equal(t, t_ref)
    assert log_z == log_z_ref


def test_base_grid_keeps_the_sizing_margin():
    # lambda = 49.53 at nu = 1 has its mode within base_terms / 2, but 101 terms leave a
    # tail just under tail_tol (ln Z was 9.6e-11 low): the grid reaches the mode plus
    # the sized width, as a sized one does, and is summed over 202 terms
    lam = 49.53397669883494
    assert first_length(math.log(lam), 1.0) == 2 * POLICY.base_terms
    assert log_normalizer(CmpParams(lam, 1.0), POLICY) == pytest.approx(lam, rel=1e-15)


@pytest.mark.parametrize("lam", [1e-8, 1e-12, 1e-300])
def test_log_z_near_zero_keeps_relative_precision(lam):
    # ln Z = log1p(sum of the weights past t_0 = 0): ln Z(1e-8, 1) was 1.1e-8 off
    # relative, and ln Z(1e-12, 1) 8.9e-5, when it was the log of the whole sum
    assert log_normalizer(CmpParams(lam, 1.0), POLICY) == pytest.approx(lam, rel=1e-15)
    assert log_normalizer(CmpParams(lam, 0.0), POLICY) == pytest.approx(
        -math.log1p(-lam), rel=1e-15)


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
    try:
        return (moment_sums_at if moments else log_normalizer_at)(log_lam, nu, POLICY)
    except TruncationError:
        return None


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(*SIZING.values()), min_size=1, max_size=6),
       moments=st.booleans())
@example(points=[(math.log(30.0), 0.7), (1.0, 1.0)], moments=False)  # 303 and 101 terms
@example(points=[(math.log(30.0), 0.7), (math.log(30.0), 0.7)], moments=True)
@example(points=[(math.log(2.0), 1e-3), (1.0, 1.0)], moments=True)  # a row that cannot converge
@example(points=[(math.log(0.9), 0.0), (1.0, 1.0)], moments=True)  # geometric: 404 terms
@example(points=[(2.99, 0.45), (3.96, 1.07)], moments=False)  # 1111 terms beside 101
# 101 terms that fail the tail test re-enter at 202, beside rows sized to 202 (the
# geometric one from its tail)
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
    # every row, of any length and however often it doubles, is its one-point
    # series bit for bit: one routine sums both
    got = series_rows(points, POLICY, moments)
    assert got == [scalar_series(log_lam, nu, moments) for log_lam, nu in points]
    assert got == [series_rows([point], POLICY, moments)[0] for point in points]


# series_arrays' bits at points of every kind: (ln lambda, nu) -> float.hex of ln Z, and of
# the five moment sums; None where the row cannot be summed. Each row is both plain and
# with moments, in one batch and alone. Re-frozen when ln Z of an unshifted row became
# log1p of its weights past t_0 and base grids kept the sizing margin: ln Z moved by at
# most 5 ulp (at (-2, 3), now 1 ulp from its 50-digit sum, 6 before), and each moment
# sum by at most 3.0e-16 relative; (4.7, 0.4) is now sized to 202 terms, not doubled.
PINNED_ROWS = {
    (1.0, 1.0): (  # base: 101 terms
        "0x1.5bf0a8b145769p+1",
        ["0x1.5bf0a8b14576ap+1", "0x1.436f4ff2f84b0p+3", "0x1.e091817f1a4c0p+0",
         "0x1.f1fbbf7925a9fp+2", "0x1.0bf884a5bbbb6p+3"]),
    (math.log(0.5), 0.5): (
        "0x1.1ccddbf31a5aap-1",
        ["0x1.3bfb63a2486d3p-1", "0x1.211db1a1574d4p+0", "0x1.40cb06ff5feddp-3",
         "0x1.19447e62fe435p-2", "0x1.cad55189244b0p-2"]),
    (-2.0, 3.0): (
        "0x1.0818519cb6888p-3",
        ["0x1.f7e0c8d87cf1bp-4", "0x1.044e7b9951f3ap-3", "0x1.726e05fd05c79p-10",
         "0x1.060309a1c6d41p-10", "0x1.74d10c705b172p-9"]),
    (math.log(20.0), 0.75): (  # sized: mode 54, 202 terms
        "0x1.4cb59b5c8cbbap+5",
        ["0x1.b3a5220eec471p+5", "0x1.7bb994d7a933dp+11", "0x1.4d9c1b804118dp+7",
         "0x1.c4eaf0e157e61p+14", "0x1.24ebd9ab22f7cp+13"]),
    (math.log(30.0), 0.7): (  # sized: mode 129, 303 terms
        "0x1.6d958f2054b46p+6",
        ["0x1.022e942772250p+7", "0x1.07425a47de168p+14", "0x1.f66b5fd374732p+8",
         "0x1.f58760e51e1cfp+17", "0x1.00d964840fc7fp+16"]),
    (2.5, math.exp(-1.0)): (  # sized: mode 894
        "0x1.4c1cc952824e0p+8",
        ["0x1.bf6dded86bff3p+9", "0x1.8830342c4a60fp+19", "0x1.448dea3b44cf0p+12",
         "0x1.9d2e214447de3p+24", "0x1.1ca1a45046c9dp+22"]),
    (50.0 * math.log(0.99 * MAX_TERMS), 50.0): (  # sized near the cap, shifted
        "0x1.e321e6fb92dcdp+18",
        ["0x1.355c1478acae9p+13", "0x1.75d79c0a093d1p+26", "0x1.3d1fe46ae5eb4p+16",
         "0x1.88d84121a2ee4p+32", "0x1.7f39c8745b775p+29"]),
    (math.log(4.7), 0.4): (  # sized: mode 48 plus its width passes 101, so 202 terms
        "0x1.55304e2e294e5p+4",
        ["0x1.852894b699e7dp+5", "0x1.36c0f6aae0540p+11", "0x1.20d16aa997b18p+7",
         "0x1.62457c812509ep+14", "0x1.d430f2f8dfde7p+12"]),
    (math.log(0.9), 0.0): (  # geometric: sized from its tail to 404 terms
        "0x1.26bb1bbb55516p+1",
        ["0x1.1fffffffffffep+3", "0x1.55ffffffffffep+7", "0x1.0c82cc05aae30p+4",
         "0x1.dc30a480c77afp+9", "0x1.880180a377f53p+8"]),
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
    target = _make_target(spec, STATS, POLICY)
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
    (value,), _ = evaluate(_make_target(spec, STATS, POLICY), [(u, nu)])
    assert_is_scalar_target(value, spec, u, nu)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.1, 30.0), nu=st.floats(0.35, 4.5), spec=st.sampled_from(SPECS))
@example(lam=30.0, nu=0.7, spec=Jeffreys())  # sized to 303 terms
@example(lam=4.7, nu=0.4, spec=SPECS[0])  # sized to 202 terms
@example(lam=4.7, nu=0.4, spec=Jeffreys())
def test_target_is_log_posterior_bit_for_bit(lam, nu, spec):
    # the sampler and log_posterior run one formula on one row of one summation
    # routine; u = ln(lambda) is the formula's ln lambda in both, and the Jacobian
    # of lambda = e^u is u
    u = math.log(lam)
    (value,), _ = evaluate(_make_target(spec, STATS, POLICY), [(u, nu)])
    try:
        want = log_posterior(spec, STATS, CmpParams(lam, nu), POLICY) + u
    except (TruncationError, NonpositiveDeterminantError):
        want = -math.inf
    assert value == want


@pytest.mark.parametrize("spec", SPECS, ids=["conj", "flat", "jeffreys"])
def test_target_rejections(spec):
    target = _make_target(spec, STATS, POLICY)
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
    target = _make_target(Jeffreys(), STATS, POLICY)
    values, reasons = evaluate(target, [(0.0, 1e8), (1.0, 1.0)])
    assert values[0] == -math.inf and math.isfinite(values[1])
    assert reasons == ["jeffreys_det", None]


def test_target_rejects_non_finite_value():
    spec = Conjugate(ConjugateHyper(1e308, 1.0, 1.0))
    target = _make_target(spec, SufficientStats.empty(), POLICY)
    assert evaluate(target, [(2.0, 1.0)]) == ([-math.inf], ["overflow"])


class RecordingGenerator:
    """A numpy Generator that records which method each draw came from, and its size."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, size=None):
        self.calls.append(("normal", size))
        return self._g.standard_normal(size)

    def chisquare(self, df, size=None):
        self.calls.append(("chisquare", df, size))
        return self._g.chisquare(df, size)

    def random(self, size=None):
        self.calls.append(("uniform", size))
        return self._g.random(size)


def test_draw_order_in_both_phases(monkeypatch):
    # each chain draws its warmup and kept steps together, from its own stream: every
    # step's pair of normals, then every step's chi-square(5) for the t scale, then
    # one uniform per step, whether or not the step's proposal is finite
    generators = {}
    monkeypatch.setattr(mcmc, "make_generator",
                        lambda *key: generators.setdefault(key, RecordingGenerator(key[-1])))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    config = McmcConfig(chains=2, warmup=5, keep=100)
    d = run_chains(get_preset("conj-1"), stats, config, SeedSpec(3, 4))
    assert d.rejections["outside_support"].sum() > 0
    assert list(generators) == [(3, 4, 0), (3, 4, 1)]
    for g in generators.values():
        assert g.calls == [("normal", (105, 2)), ("chisquare", 5, 105), ("uniform", 105)]


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
    # every proposal is the reported centre plus sqrt(5 / chi2) * L z, from the
    # chain's own normals and chi-square in their draw order, and each chain's
    # proposals (fewer than mcmc._CHUNK) are evaluated in one call of the target,
    # which the mode search does not call
    calls = proposals_of(monkeypatch)
    stats = sufficient_stats(bundled_dataset("textile-faults").counts)
    config = McmcConfig(chains=3, warmup=50, keep=100)
    d = run_chains(get_preset("jeffreys"), stats, config, SeedSpec(2, 1))
    assert len(calls) == config.chains
    c00, c10, c11 = d.proposal_cholesky
    assert c00 > 0.0 and c11 > 0.0 and c10 != 0.0
    for c, (u, nu) in enumerate(calls):
        g = make_generator(2, 1, c)
        z = g.standard_normal((150, 2))
        scale = np.sqrt(5.0 / g.chisquare(5, 150))
        np.testing.assert_allclose(u - d.proposal_centre[0], scale * c00 * z[:, 0],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(nu - d.proposal_centre[1],
                                   scale * (c10 * z[:, 0] + c11 * z[:, 1]), rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
def test_one_series_per_target_evaluation(monkeypatch, prior):
    # the mode search sums one row per point (nine for the Jeffreys stencil); then
    # each chain's proposals inside the support (fewer than mcmc._CHUNK) are summed
    # in one call: its rows' lengths once each, shortest first, a row that fails its
    # tail test re-entering at double length; and no one-point series runs
    calls = proposals_of(monkeypatch)
    sizes, grids = [], []
    series, tables = mcmc.series_arrays, core._tables

    def counted(log_lam, nu, policy, moments=False):
        sizes.append(log_lam.size)
        grids.clear()
        out = series(log_lam, nu, policy, moments)
        ladders = [[k] if k else [] for k in core._sizes(log_lam, nu, policy)[0].tolist()]
        for lengths, last in zip(ladders, out[2].tolist()):
            while lengths and lengths[-1] < last:
                lengths.append(min(2 * lengths[-1], MAX_TERMS))
        assert grids == sorted({k for lengths in ladders for k in lengths})
        sizes.append(sum(len(lengths) > 1 for lengths in ladders))
        return out

    monkeypatch.setattr(mcmc, "series_arrays", counted)
    monkeypatch.setattr(core, "_tables", lambda k: grids.append(k) or tables(k))
    monkeypatch.setattr(core, "_series", lambda *args: pytest.fail("a one-point series ran"))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    d = run_chains(get_preset(prior), stats, McmcConfig(chains=2, warmup=500, keep=300),
                   SeedSpec(3))
    summed, doubled = sizes[-4::2], sizes[-3::2]
    outside = [int((nu < NU_FLOOR).sum()) for _, nu in calls[-2:]]
    assert [u.size for u, _ in calls[-2:]] == [800, 800]
    assert summed == [800 - n for n in outside]
    assert (np.array(outside) >= d.rejections["outside_support"]).all()
    assert d.rejections["outside_support"].sum() > 0
    assert sum(doubled) > 0
    assert max(sizes[:-4:2]) <= (9 if prior == "jeffreys" else 1)


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


def test_chain_without_finite_start_raises(monkeypatch):
    # the chains start at the posterior's mode; where the mode search finds no finite
    # target to start from (here no series sums anywhere), the fit is refused by name
    # before any draw
    def nowhere_summable(log_lam, nu, policy, moments=False):
        rows = np.full(log_lam.size, np.nan)
        sums = np.full((log_lam.size, 5), np.nan) if moments else None
        return rows, sums, np.zeros(log_lam.size, dtype=np.int64)

    monkeypatch.setattr(mcmc, "series_arrays", nowhere_summable)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: pytest.fail("a chain drew"))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    with pytest.raises(ModeNotFoundError, match="^found no finite posterior mode"):
        run_chains(get_preset("conj-1"), stats, McmcConfig(chains=3), SeedSpec(3))


def test_data_beyond_float_range_has_no_finite_start():
    # 10^309 ones: S1 * ln(lambda) overflows at every point, so there is no mode
    stats = SufficientStats(n=10**309, s1=10**309, s2=0.0)
    with pytest.raises(AllDivergentError, match="^found no finite posterior mode"):
        run_chains(Jeffreys(), stats, McmcConfig(chains=3), SeedSpec(0))
