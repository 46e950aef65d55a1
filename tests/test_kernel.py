"""Property tests for the one-series log kernel, its grid sizing, its batched rows and the
sampler's target."""

import math
from types import SimpleNamespace

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
from cmpbayes.core import MAX_TERMS, _series, log_normalizer_at, moment_sums_at, series_rows
from cmpbayes.errors import NonpositiveDeterminantError
from cmpbayes.mcmc import _MAX_INIT_TRIES, NU_FLOOR, _make_target, _run_chain

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
        # the weights exp(t), less the largest term where one passes 600
        m = float(t.max())
        c = m if m > 600.0 else 0.0
        log_z = c + math.log(float(np.exp(t - c).sum()))
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
@example(log_lam=1.0, nu=1.0)  # ln Z(e, 1) = 2.718281828459045, the double nearest e
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
@example(points=[(math.log(0.9), 0.0), (1.0, 1.0)], moments=True)  # geometric tail: doubles
@example(points=[(2.99, 0.45), (3.96, 1.07)], moments=False)  # 1111 terms beside 101
# 101 terms that fail the tail test re-enter at 202, beside a row sized to 202
@example(points=[(math.log(4.7), 0.4), (math.log(20.0), 0.75)], moments=True)
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


# series_rows' bits at points of every kind, frozen from the routine as it was before
# rows were sized into column lists: (ln lambda, nu) -> float.hex of ln Z, and of the
# five moment sums and ln Z; None where the row cannot be summed. Each row is both
# plain and with moments, in one batch and alone.
FROZEN_ROWS = {
    (1.0, 1.0): (  # base: 101 terms
        "0x1.5bf0a8b14576ap+1",
        ["0x1.5bf0a8b145768p+1", "0x1.436f4ff2f84b0p+3", "0x1.e091817f1a4bep+0",
         "0x1.f1fbbf7925a9bp+2", "0x1.0bf884a5bbbb5p+3"]),
    (math.log(0.5), 0.5): (
        "0x1.1ccddbf31a5aap-1",
        ["0x1.3bfb63a2486d2p-1", "0x1.211db1a1574d3p+0", "0x1.40cb06ff5fedcp-3",
         "0x1.19447e62fe434p-2", "0x1.cad55189244afp-2"]),
    (-2.0, 3.0): (
        "0x1.0818519cb688dp-3",
        ["0x1.f7e0c8d87cf19p-4", "0x1.044e7b9951f39p-3", "0x1.726e05fd05c78p-10",
         "0x1.060309a1c6d40p-10", "0x1.74d10c705b171p-9"]),
    (math.log(20.0), 0.75): (  # sized: mode 54
        "0x1.4cb59b5c8cbbap+5",
        ["0x1.b3a5220eec46ep+5", "0x1.7bb994d7a933cp+11", "0x1.4d9c1b804118dp+7",
         "0x1.c4eaf0e157e63p+14", "0x1.24ebd9ab22f7cp+13"]),
    (math.log(30.0), 0.7): (  # sized: mode 129, 303 terms
        "0x1.6d958f2054b46p+6",
        ["0x1.022e942772253p+7", "0x1.07425a47de168p+14", "0x1.f66b5fd374733p+8",
         "0x1.f58760e51e1cap+17", "0x1.00d964840fc7dp+16"]),
    (2.5, math.exp(-1.0)): (  # sized: mode 894
        "0x1.4c1cc952824e0p+8",
        ["0x1.bf6dded86bff7p+9", "0x1.8830342c4a613p+19", "0x1.448dea3b44cefp+12",
         "0x1.9d2e214447de0p+24", "0x1.1ca1a45046c9ep+22"]),
    (50.0 * math.log(0.99 * MAX_TERMS), 50.0): (  # sized near the cap
        "0x1.e321e6fb92dcdp+18",
        ["0x1.355c1478acaeap+13", "0x1.75d79c0a093d2p+26", "0x1.3d1fe46ae5eb5p+16",
         "0x1.88d84121a2ee5p+32", "0x1.7f39c8745b777p+29"]),
    (math.log(4.7), 0.4): (  # 101 terms fail the tail test: doubled to 202
        "0x1.55304e2e294e5p+4",
        ["0x1.852894b699e7dp+5", "0x1.36c0f6aae053cp+11", "0x1.20d16aa997b16p+7",
         "0x1.62457c8125099p+14", "0x1.d430f2f8dfde6p+12"]),
    (math.log(0.9), 0.0): (  # geometric tail: doubled twice
        "0x1.26bb1bbb55516p+1",
        ["0x1.1ffffffffffffp+3", "0x1.55fffffffffffp+7", "0x1.0c82cc05aae31p+4",
         "0x1.dc30a480c77b0p+9", "0x1.880180a377f54p+8"]),
    (math.log(0.999), 0.0): None,  # doubled to MAX_TERMS and still unconverged
    (math.log(2.0), 1e-3): None,  # term ratio >= 1 at the cap: refused before summing
    (0.5 * math.log(MAX_TERMS - 1) + 1e-9, 0.5): None,  # ratio just above 1 at the cap
}


# The rows with ln lambda > 0 whose largest term is at most 600, re-frozen when their
# weights became exp(t) unshifted: ln Z moved by at most 1 ulp, and each moment sum by
# at most 8.7e-16 relative. The other rows keep the pins above bit for bit.
REFROZEN_ROWS = {
    (1.0, 1.0): (
        "0x1.5bf0a8b145769p+1",
        ["0x1.5bf0a8b14576ap+1", "0x1.436f4ff2f84b0p+3", "0x1.e091817f1a4c0p+0",
         "0x1.f1fbbf7925a9fp+2", "0x1.0bf884a5bbbb6p+3"]),
    (math.log(20.0), 0.75): (
        "0x1.4cb59b5c8cbbap+5",
        ["0x1.b3a5220eec472p+5", "0x1.7bb994d7a933ep+11", "0x1.4d9c1b804118dp+7",
         "0x1.c4eaf0e157e62p+14", "0x1.24ebd9ab22f7cp+13"]),
    (math.log(30.0), 0.7): (
        "0x1.6d958f2054b46p+6",
        ["0x1.022e942772250p+7", "0x1.07425a47de167p+14", "0x1.f66b5fd374731p+8",
         "0x1.f58760e51e1cep+17", "0x1.00d964840fc7ep+16"]),
    (2.5, math.exp(-1.0)): (
        "0x1.4c1cc952824e0p+8",
        ["0x1.bf6dded86bff2p+9", "0x1.8830342c4a60dp+19", "0x1.448dea3b44cefp+12",
         "0x1.9d2e214447de1p+24", "0x1.1ca1a45046c9cp+22"]),
    (math.log(4.7), 0.4): (
        "0x1.55304e2e294e5p+4",
        ["0x1.852894b699e7cp+5", "0x1.36c0f6aae053fp+11", "0x1.20d16aa997b17p+7",
         "0x1.62457c812509dp+14", "0x1.d430f2f8dfde6p+12"]),
}
PINNED_ROWS = {**FROZEN_ROWS, **REFROZEN_ROWS}


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


def test_rows_summed_as_before_kept_their_pins():
    # a row at ln lambda <= 0, whose largest term is t_0 = 0, or one shifted by its
    # largest term sums exp(t - c) with the same c as before the weights went
    # unshifted, so it keeps its old bits; only the other rows were re-frozen
    kept = 0
    for point, frozen in FROZEN_ROWS.items():
        if frozen is None:
            continue
        log_lam, nu = point
        if log_lam <= 0.0 or core._shift(log_lam, nu) != 0.0:
            kept += 1
            assert point not in REFROZEN_ROWS
            assert series_rows([point], POLICY)[0] == float.fromhex(frozen[0])
            assert series_rows([point], POLICY, moments=True)[0][0] == [
                float.fromhex(x) for x in frozen[1]]
        else:
            moved = float.fromhex(REFROZEN_ROWS[point][0]) - float.fromhex(frozen[0])
            assert abs(moved) <= math.ulp(float.fromhex(frozen[0]))
    assert kept == 4


# ln Z at each summable row of FROZEN_ROWS to 50 digits, from an independent sum (mpmath
# at 70 digits: j*ln lambda - nu*loggamma(j + 1) summed by log-sum-exp over j until the
# terms fall e^-230 below the largest), at the float (ln lambda, nu) of the row.
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
    assert set(LNZ_50_DIGITS) == {p for p, frozen in FROZEN_ROWS.items() if frozen is not None}
    for point, digits in LNZ_50_DIGITS.items():
        ref = float(digits)
        off = abs(float.fromhex(PINNED_ROWS[point][0]) - ref) / math.ulp(ref)
        if point == (-2.0, 3.0):
            # ln Z = 0.129 is the log of a sum near 1.14, whose last bit is 7 ulp of ln Z
            assert off <= 7
        elif point == (50.0 * math.log(0.99 * MAX_TERMS), 50.0):
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
    if log_lam <= 0.0:
        assert largest == 0.0
    else:
        assert largest <= nu * math.exp(log_lam / nu)
        shift = core._shift(log_lam, nu)
        assert shift == (largest if nu * math.exp(log_lam / nu) > core._MAX_UNSHIFTED else 0.0)


def scalar_target(spec, u, v):
    """log_posterior + u + v at one point, or -inf where the sampler rejects it."""
    if v < math.log(NU_FLOOR):
        return -math.inf
    try:
        lp = log_posterior(spec, STATS, CmpParams(math.exp(u), math.exp(v)), POLICY)
    except (TruncationError, NonpositiveDeterminantError, OverflowError, InvalidParamsError):
        return -math.inf
    return lp + u + v if math.isfinite(lp) else -math.inf


def assert_is_scalar_target(value, spec, u, v):
    """value is scalar_target within 1e-12 relative, and -inf exactly where that is."""
    want = scalar_target(spec, u, v)
    if want == -math.inf:
        assert value == -math.inf
    else:
        assert value == pytest.approx(want, rel=1e-12)


ORDINARY = st.tuples(st.floats(-2.0, 3.5), st.floats(-1.0, 1.5))
REJECTED = st.sampled_from([
    (1.0, math.log(NU_FLOOR) - 1e-9),  # nu below the floor
    (800.0, 0.0),  # lambda = e^u overflows
    (-800.0, 0.0),  # lambda = e^u underflows to 0
    (math.log(2.0), math.log(1e-3)),  # TruncationError
    (0.0, math.log(1e8)),  # zero Jeffreys determinant
])


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.one_of(ORDINARY, REJECTED), min_size=1, max_size=6),
       spec=st.sampled_from(SPECS))
# mode near 894, where the determinant cancels terms 2e10 times its value
@example(points=[(2.5, -1.0), (1.0, 0.0)], spec=Jeffreys())
# largest-term bound just under and just over 600, lambda = e^+-800 at nu = 1e8, and the
# near-cap row
@example(points=[(20.0 * math.log(30.0) - 1e-9, math.log(20.0)),
                 (20.0 * math.log(30.0) + 1e-9, math.log(20.0))], spec=Jeffreys())
@example(points=[(800.0, math.log(1e8)), (-800.0, math.log(1e8)), (1.0, 0.0)], spec=SPECS[0])
@example(points=[(50.0 * math.log(0.99 * MAX_TERMS), math.log(50.0)), (1.0, 0.0)], spec=SPECS[0])
def test_batch_equals_row(points, spec):
    target = _make_target(spec, STATS, POLICY)
    values = target(points)
    for (u, v), value in zip(points, values):
        assert_is_scalar_target(value, spec, u, v)
    # and each value is that point's own target, bit for bit
    assert values == [target([point])[0] for point in points]


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-2.0, 3.5), v=st.floats(-1.0, 1.5), spec=st.sampled_from(SPECS))
def test_target_is_log_posterior_plus_jacobian(u, v, spec):
    value, = _make_target(spec, STATS, POLICY)([(u, v)])
    assert_is_scalar_target(value, spec, u, v)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.1, 30.0), v=st.floats(-1.0, 1.5), spec=st.sampled_from(SPECS))
@example(lam=30.0, v=math.log(0.7), spec=Jeffreys())  # sized to 303 terms
@example(lam=4.7, v=math.log(0.4), spec=SPECS[0])  # 101 terms fail the tail test: 202
@example(lam=4.7, v=math.log(0.4), spec=Jeffreys())
def test_target_is_log_posterior_bit_for_bit(lam, v, spec):
    # the sampler and log_posterior run one formula on one row of one
    # summation routine; u = ln(lambda) is the formula's ln lambda in both,
    # and nu = e^v is the sampler's nu
    u, nu = math.log(lam), math.exp(v)
    value, = _make_target(spec, STATS, POLICY)([(u, v)])
    try:
        want = log_posterior(spec, STATS, CmpParams(lam, nu), POLICY) + u + v
    except (TruncationError, NonpositiveDeterminantError):
        want = -math.inf
    assert value == want


@pytest.mark.parametrize("spec", SPECS, ids=["conj", "flat", "jeffreys"])
def test_target_rejections(spec):
    target = _make_target(spec, STATS, POLICY)
    values = target([
        (1.0, 0.0),
        (1.0, math.log(NU_FLOOR) - 1e-9),  # nu below the floor
        (math.log(2.0), math.log(1e-3)),  # TruncationError
        (800.0, 5.0),  # lambda = e^u overflows
        (-800.0, 0.0),  # lambda = e^u underflows to 0
    ])
    assert math.isfinite(values[0])
    assert values[1:] == [-math.inf] * 4
    # the rejected rows leave the finite one as it is alone
    assert values[0] == target([(1.0, 0.0)])[0]


def test_target_rejects_nonpositive_jeffreys_determinant():
    # nu = 1e8 is the Bernoulli limit: ln X! is 0 on the support, so det = 0
    target = _make_target(Jeffreys(), STATS, POLICY)
    det_zero, ordinary = target([(0.0, math.log(1e8)), (1.0, 0.0)])
    assert det_zero == -math.inf
    assert math.isfinite(ordinary)


def test_target_rejects_non_finite_value():
    spec = Conjugate(ConjugateHyper(1e308, 1.0, 1.0))
    target = _make_target(spec, SufficientStats.empty(), POLICY)
    assert target([(2.0, 0.0)]) == [-math.inf]


class RecordingGenerator:
    """A numpy Generator that records which method each draw came from."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)
        self.calls = []
        self.sizes = []  # the size argument of each normal draw
        self.bit_generator = SimpleNamespace(random_raw=self._random_raw)

    def standard_normal(self, size=None, out=None):
        self.calls.append("normal")
        self.sizes.append(size if out is None else out.shape)
        return self._g.standard_normal(size, out=out)

    def _random_raw(self):
        # the chain forms each uniform from 64 raw bits
        self.calls.append("uniform")
        return self._g.bit_generator.random_raw()


def test_raw_uniform_is_generator_random():
    # a chain's uniform, (raw >> 11) * 2^-53, is the double Generator.random()
    # gives from the same stream, interleaved with pairs of normals as in a chain
    g, h = make_generator(5, 1, 0), make_generator(5, 1, 0)
    z, w = np.empty(2), np.empty(2)
    for _ in range(100_000):
        g.standard_normal(out=z)
        h.standard_normal(out=w)
        assert (h.bit_generator.random_raw() >> 11) * mcmc._INV_2_53 == g.random()
    assert np.array_equal(z, w)


def test_rejected_proposal_counts_as_divergence(monkeypatch):
    # every proposal after the start is non-finite: the chain stays at the
    # start, each kept proposal counts as a divergence and no uniform is drawn
    g = RecordingGenerator(0)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: g)
    config = McmcConfig(chains=2, warmup=150, keep=100)
    chain = _run_chain(2.0, config, SeedSpec(0), 0)
    u, v = next(chain)
    chain.send(-3.0)
    proposals = 1
    with pytest.raises(StopIteration) as done:
        while True:
            chain.send(-math.inf)
            proposals += 1
    lam, nu, accept_rate, divergent, _, _ = done.value.value
    assert proposals == 250
    assert (lam == math.exp(u)).all() and (nu == math.exp(v)).all()
    assert (accept_rate, divergent) == (0.0, 100)
    # the start's two scalar normals, then one pair per step
    assert g.calls == ["normal"] * (2 + 250)


def test_draw_order_in_both_phases(monkeypatch):
    # a scripted mix of finite and -inf targets through warmup and sampling:
    # the start draws two scalar normals, then every step draws one pair of
    # normals, and a uniform only when its proposal is finite
    g = RecordingGenerator(1)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: g)
    config = McmcConfig(chains=2, warmup=5, keep=100)
    chain = _run_chain(2.0, config, SeedSpec(0), 0)
    next(chain)
    finite = [step % 3 != 1 and step % 7 != 4 for step in range(105)]
    expected = ["normal", "normal"]
    with pytest.raises(StopIteration) as done:
        chain.send(-2.0)  # the start
        for step, ok in enumerate(finite):
            expected += ["normal"] + ["uniform"] * ok
            chain.send(-2.0 - 0.01 * step if ok else -math.inf)
    assert step == len(finite) - 1
    assert g.calls == expected
    assert g.sizes == [None] * 2 + [(2,)] * len(finite)
    # the kept steps' -inf targets are the divergences
    assert done.value.value[3] == finite[config.warmup:].count(False)


def test_reported_proposal_is_the_sampling_kernel(monkeypatch):
    # a smooth target through warmup (300 steps: the Cholesky factor is
    # refactored once), then -inf for every kept proposal, so the state stays
    # put and each kept proposal is the state plus step_size * L z
    g = RecordingGenerator(2)
    monkeypatch.setattr(mcmc, "make_generator", lambda *key: g)
    config = McmcConfig(chains=2, warmup=300, keep=100)
    chain = _run_chain(2.0, config, SeedSpec(0), 0)
    point = next(chain)
    proposals = []
    with pytest.raises(StopIteration) as done:
        for step in range(1 + config.warmup + config.keep):
            if step > config.warmup:
                proposals.append(point)
            u, v = point
            point = chain.send(-(u - 0.7) ** 2 - 4.0 * (v - 0.3 * u) ** 2
                               if step <= config.warmup else -math.inf)
    lam, nu, _, divergent, step_size, (c00, c10, c11) = done.value.value
    assert divergent == config.keep
    assert c10 != 0.0 and step_size > 0.0 and c00 > 0.0 and c11 > 0.0
    # replay the recorded draws to read the normals of the kept steps
    replay = np.random.default_rng(2)
    sizes = iter(g.sizes)
    values = [replay.standard_normal(next(sizes)) if call == "normal" else replay.random()
              for call in g.calls]
    pairs = [z for z in values if np.shape(z) == (2,)][-config.keep:]
    u, v = math.log(lam[0]), math.log(nu[0])
    for (prop_u, prop_v), (z0, z1) in zip(proposals, pairs):
        assert prop_u - u == pytest.approx(step_size * c00 * z0, abs=1e-12)
        assert prop_v - v == pytest.approx(step_size * (c10 * z0 + c11 * z1), abs=1e-12)


@pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
def test_one_series_per_target_evaluation(monkeypatch, prior):
    # one batched series per round that has a row at or above the floor; rows
    # below it never enter the batch, a row that fails its tail test re-enters
    # the same call at double length, each length of a round is summed once,
    # shortest first, and no one-point series runs while sampling
    floor = math.log(NU_FLOOR)
    counts = {"rounds": 0, "batches": 0, "doubled": 0}
    targets, expected_batch, grids = [], [], []
    make_target, rows, series, tables = (
        mcmc._make_target, mcmc.series_rows, core._series, core._tables)

    def counted_make_target(*args):
        target = make_target(*args)

        def counted_target(points):
            above = [(u, math.exp(v)) for u, v in points if v >= floor]
            counts["rounds"] += bool(above)
            expected_batch[:] = above
            return target(points)

        targets.append(counted_target)
        return counted_target

    def ladder(log_lam, nu, policy):
        """The grid lengths a row is summed at: its first, doubled to its one-point series' last."""
        try:
            lengths = [core._grid_length(log_lam, nu, policy)]
        except TruncationError:
            return []
        try:
            last = series(log_lam, nu, policy)[0].size
        except TruncationError:
            last = MAX_TERMS
        while lengths[-1] < last:
            lengths.append(min(2 * lengths[-1], MAX_TERMS))
        return lengths

    def counted_rows(points, policy, moments):
        counts["batches"] += 1
        assert points == expected_batch
        ladders = [ladder(*point, policy) for point in points]
        counts["doubled"] += sum(len(lengths) > 1 for lengths in ladders)
        grids.clear()
        out = rows(points, policy, moments)
        assert grids == sorted({k for lengths in ladders for k in lengths})
        return out

    monkeypatch.setattr(mcmc, "_make_target", counted_make_target)
    monkeypatch.setattr(mcmc, "series_rows", counted_rows)
    monkeypatch.setattr(core, "_tables", lambda k: grids.append(k) or tables(k))
    monkeypatch.setattr(core, "_series", lambda *args: pytest.fail("a one-point series ran"))
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    run_chains(get_preset(prior), stats, McmcConfig(chains=2, warmup=500, keep=300), SeedSpec(3))
    assert counts["rounds"] >= 800
    assert counts["batches"] == counts["rounds"]
    assert counts["doubled"] > 0
    # a round whose every row is below the floor sums no series
    before = dict(counts)
    assert targets[0]([(1.0, floor - 1.0), (0.5, floor - 1e-9)]) == [-math.inf] * 2
    assert counts == before


def test_chain_without_finite_start_raises(monkeypatch):
    # chain 1 is refused every start; chains 0 and 2 start at once
    rounds = []
    make_target = mcmc._make_target

    def refuse_chain_1(*args):
        target = make_target(*args)

        def refusing(points):
            rounds.append(len(points))
            values = target(points)
            values[1] = -math.inf
            return values

        return refusing

    monkeypatch.setattr(mcmc, "_make_target", refuse_chain_1)
    stats = sufficient_stats(bundled_dataset("crab-satellites").counts)
    with pytest.raises(AllDivergentError,
                       match=f"^chain 1: no finite starting point in {_MAX_INIT_TRIES} attempts$"):
        run_chains(get_preset("conj-1"), stats, McmcConfig(chains=3), SeedSpec(3))
    # the lockstep rounds stop with the failing chain
    assert rounds == [3] * _MAX_INIT_TRIES


def test_data_beyond_float_range_has_no_finite_start():
    # 10^309 ones: S1 * ln(lambda) overflows at every point, so no chain starts
    stats = SufficientStats(n=10**309, s1=10**309, s2=0.0)
    with pytest.raises(AllDivergentError, match="^chain 0: no finite starting point"):
        run_chains(Jeffreys(), stats, McmcConfig(chains=3), SeedSpec(0))
