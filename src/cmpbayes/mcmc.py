"""Posterior sampling by independence Metropolis-Hastings from a Laplace fit, with diagnostics.

Chains move on (u, nu) = (ln lambda, nu), the coordinates of the posterior's
log kernel (posterior.log_kernel): its rows are the density of (u, nu), the
density in lambda (log_posterior) plus the Jacobian u, with one series call
per batch of points, and with derivatives they give each row's gradient and
Hessian too. This module knows only the sampler's support (_inside), the
mode search and the chains: run_chains builds the kernel's rows once per fit
and hands them to the chains' target (_make_target) and to the mode search
(_laplace).

A Newton search finds the mode on nu >= NU_FLOOR with one one-row series call
per point. It starts where the asymptotic CMP moments solve the mode's
equations E X = a/c, E ln X! = b/c (_starts), and where that search fails,
once more from (ln max(xbar, 0.5), 1). Each step is Newton's, with the
Hessian's eigenvalues (its closed-form 2 x 2 eigendecomposition, _eigen2) made
negative so that it ascends, and stops on the floor where it would cross it; on
the floor, where the target still rises toward lower nu (crab-satellites), the
step is Newton's in u alone, g_u / |H_uu|, so the mode is the floor's best point.
A step is halved until the target rises, at _TRIES lengths at most, and taken
whole below a Newton decrement g'(-H)^-1 g of _MODE_TOL, where the target's
rounding hides its rise. The mode is where the decrement falls to _NEWTON_TOL
(Draws.mode_search). Its precision is -H; on the floor its nu entry adds
g_nu^2, the curvature of an exponential falling from the floor at the
gradient's rate (all-zero counts fall so, almost without curvature). Where
every search ends above _NEWTON_TOL, or at a precision that is not positive
definite, the fit is refused with ModeNotFoundError before any draw.

The proposal is a bivariate t with _DF degrees of freedom, centred on the
mode, with scale matrix _SCALE^2 times the Laplace covariance, the inverse
precision (Tierney 1994; Rue, Martino & Chopin 2009). Proposals do not depend on a chain's
state, so each chain draws them all first from its own Philox stream, as three
uniforms per step in one (3, steps) array: every step's radial uniform U_1, then
every step's angle U_2, then every step's accept uniform U_3. A step's point is
the t's radial construction (_proposals): the standardized |x|^2 / 2 is
F(2, _DF), whose survival function at rho^2 / 2 is V = (1 + rho^2 / _DF)^(-_DF / 2),
so V = 1 - U_1 gives rho^2 = _DF expm1(-(2 / _DF) ln V); the angle is 2 pi U_2,
and the point is the mode plus L rho (cos, sin), L the scale's Cholesky factor.
The log density less its constant, -(_DF + 2) / 2 log1p(rho^2 / _DF), is then
((_DF + 2) / _DF) ln V, 0 at the mode. Once every chain has drawn, the
fit's proposals are evaluated chain-major, _CHUNK rows per target call, so
that a default fit's 4 x 2 200 proposals are one call (whose rows
core.series_arrays sums in grids of at most core._MAX_CELLS cells). Then each
chain's float-only accept scan runs: a chain starts at the mode, and proposal
i replaces the state when ln U_i < r_i - r_state, r = target - ln(proposal
density). A rejected proposal's r is -inf, which never passes, so the scan
visits only the finite ratios. The scans mark their accepted steps in one
(chains, steps) state array; the draws, acceptance rates and rejection counts
are whole-fit array operations on it and on the rows' reasons. A row's value
depends only on its own point, so a chain's draws depend neither on the two
bounds nor on which chains share its calls. Warmup steps are drawn and
discarded; keep steps are kept.

Proposals the target rejects count per chain by reason (priors.REJECTIONS),
over the warmup steps and over the kept steps: outside_support (nu below
NU_FLOOR, or e^u out of float range) is where the posterior is 0, and only
the kept numerical three (truncation, jeffreys_det, overflow) count as
divergences. The Pareto k-hat of the fit's importance ratios target /
proposal (Vehtari et al. 2024) says whether the proposal covers the
posterior's tails: above 0.7 it does not.

An independence chain is uniformly ergodic exactly when w* = sup pi/q, the
largest importance weight over its mean, is finite, and then from any start
||P^n - pi||_TV <= (1 - 1/w*)^n (Mengersen & Tweedie 1996, Ann. Statist.
24(1)). A chain started at its largest-weight state accepts each step with
probability 1/w*, and the proposal it first accepts is a draw from pi, so it
couples with a stationary chain at its first acceptance (Corcoran & Tweedie
2002, J. Stat. Plan. Inference 104): after n steps it is stationary but for
probability (1 - 1/w*)^n, the same number by a second argument. Every chain
starts at the mode. Draws.weight_sup is the sample estimate of w*, the
largest ratio over the mean ratio across the fit's proposals and the mode, a
lower estimate of the supremum. Draws.start_is_heaviest is false when a
proposal's ratio exceeds the mode's: the ratio then rises away from the mode,
the proposal's tails are lighter than the posterior's somewhere, weight_sup
may be far below w*, and the bound it gives is too optimistic. On the bundled
datasets and the paper's study grid the estimate is 2.0-4.7 and the mode
always the heaviest, so at the default warmup of 200 steps the bound is below
1e-20.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln, polygamma

from .core import TruncationPolicy, DEFAULT_POLICY
from .errors import AllDivergentError, InvalidParamsError, ModeNotFoundError, ZeroVarianceError
from .posterior import SufficientStats, check_propriety, conjugate_form, log_kernel
from .posterior import log_posterior, updated_hyper  # noqa: F401  (names bench/spans.py patches)
from .posterior import flat_posterior_propriety  # noqa: F401  (a name bench/spans.py patches)
from .priors import OUTSIDE_SUPPORT, REJECTIONS, PriorSpec
from .priors import conjugate_propriety  # noqa: F401  (a name bench/spans.py patches)
from .rng import SeedSpec, make_generator

# nu is floored inside the sampler: the truncated series degrades at the
# geometric boundary nu = 0.
NU_FLOOR = 1e-4
_DF = 5  # degrees of freedom of the t proposal
# how a chain's stream becomes its proposals and accept draws (_proposals); a study's progress
# records carry it, so a resume refuses records drawn under another scheme
DRAW_SCHEME = "t5-radial-3u"
# the shape of fit_record's dict, carried by a study's progress records in the same way:
# bump it with fit_record's keys, so that a resume refuses records of another shape
RECORD_VERSION = 2
# a fit warns when more than this share of its kept proposals were divergent
DIVERGENCE_WARN_FRACTION = 0.01
_SCALE = 1.5  # the proposal's scale over the Laplace fit's
_NEWTON_STEPS = 100
_NEWTON_TOL = 1e-20  # the Newton decrement at which the search has found the mode
_MODE_TOL = 1e-8  # a step of this decrement is taken whole: its rise is lost in f's rounding
_TRIES = 34  # a line search tries t = 1, 1/2, ..., 2^-33 (down to 1e-10) along a Newton step
_NUMERICAL = ("truncation", "jeffreys_det", "overflow")  # the rejections that are divergences
# the fit's proposals per target call, chain-major, so that one call may span chains: a
# default fit's 4 x 2 200 are one call, and a longer fit's temporaries stay bounded
_CHUNK = 8800
_QUANTILES = np.array([0.025, 0.5, 0.975])  # summarize's: the 95% interval and the median


@dataclass(frozen=True)
class McmcConfig:
    """Chain count and lengths; defaults give 4 x 2000 retained draws after 200 warmup steps."""

    chains: int = 4
    warmup: int = 200
    keep: int = 2000

    def __post_init__(self):
        if self.chains < 2:
            raise InvalidParamsError("at least 2 chains are required (for R-hat)")
        if self.keep < 100:
            raise InvalidParamsError("keep must be >= 100")
        if self.warmup < 1:
            raise InvalidParamsError("warmup must be >= 1")


@dataclass(frozen=True)
class ModeSearch:
    """How the Newton search for the proposal's centre ended."""

    iterations: int  # Newton steps taken, from the moment-matched start and any retry (_starts)
    points: int  # target points evaluated, one series row each, the retry's included
    decrement: float  # the Newton decrement g'(-H)^-1 g at the mode
    on_floor: bool  # the mode is on nu = NU_FLOOR, where the target still rises toward lower nu


@dataclass(frozen=True)
class Draws:
    """One fit's retained draws on the natural scale, (chains x keep), and its diagnostics.

    run_chains makes every Draws; fit_record reports the diagnostics from here.
    """

    lam: np.ndarray
    nu: np.ndarray
    accept_rate: np.ndarray  # per chain, post-warmup
    # per chain, post-warmup proposals rejected for each reason of priors.REJECTIONS
    rejections: dict[str, np.ndarray]
    warmup_rejections: dict[str, np.ndarray]  # the same counts over the warmup proposals
    pareto_k: float  # of the importance ratios of all the fit's proposals
    # the proposal: a t whose centre is the mode (ln lambda, nu), and the lower
    # Cholesky factor L = [[c00, 0], [c10, c11]] of its scale matrix as (c00, c10, c11)
    proposal_centre: np.ndarray
    proposal_cholesky: np.ndarray
    mode_search: ModeSearch  # how the search for the centre ended
    weight_sup: float  # the largest importance ratio over the mean, the mode's included: >= 1
    start_is_heaviest: bool  # no proposal's ratio exceeds the mode's; if one does, weight_sup
    # may be far below sup pi/q (the proposal's tails are too light somewhere)

    @property
    def divergences(self) -> np.ndarray:
        """Per chain, the post-warmup proposals rejected for a numerical reason."""
        return sum(self.rejections[reason] for reason in _NUMERICAL)

    @property
    def n_kept(self) -> int:
        return self.lam.shape[0] * self.lam.shape[1]

    def to_csv(self, fh) -> None:
        """Write draws as CSV with columns chain,iter,lambda,nu."""
        fh.write("chain,iter,lambda,nu\n")
        for c in range(self.lam.shape[0]):
            for i in range(self.lam.shape[1]):
                fh.write(f"{c},{i},{float(self.lam[c, i])!r},{float(self.nu[c, i])!r}\n")


@dataclass(frozen=True)
class ParamSummary:
    median: float
    cri_low: float
    cri_high: float
    rhat: float


@dataclass(frozen=True)
class PosteriorSummary:
    lam: ParamSummary
    nu: ParamSummary
    n_kept: int


def _inside(u: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Whether each point (u, nu) is in the support: nu >= NU_FLOOR and e^u in float range."""
    with np.errstate(over="ignore", under="ignore"):
        lam = np.exp(u)
    return (nu >= NU_FLOOR) & (lam > 0.0) & (lam < math.inf)


def _make_target(rows):
    """The log target at arrays of (u, nu), and why each -inf row is rejected.

    Returns (values, reasons): the posterior's log_kernel rows' values, and a
    REJECTIONS code per row (0 where finite). Points outside the support
    (_inside) are outside_support and never reach the series.
    """

    def target(u: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.full(u.size, -math.inf)
        reasons = np.full(u.size, OUTSIDE_SUPPORT, dtype=np.int8)
        inside = np.flatnonzero(_inside(u, nu))
        if inside.size:
            values[inside], reasons[inside], _ = rows(u[inside], nu[inside])
        return values, reasons

    return target


def _eigen2(p: float, q: float, r: float) -> tuple[float, float, float, float]:
    """The eigenvalues of the symmetric [[p, q], [q, r]] and the first one's eigenvector.

    Returns (l1, l2, c, s): l1 >= l2, l1's unit eigenvector is (c, s) = (cos t, sin t)
    at the Jacobi angle t = atan2(2q, p - r) / 2, and l2's is (-s, c).
    """
    angle = 0.5 * math.atan2(2.0 * q, p - r)
    mean, radius = 0.5 * (p + r), math.hypot(0.5 * (p - r), q)
    return mean + radius, mean - radius, math.cos(angle), math.sin(angle)


def _starts(spec, stats) -> list[tuple[float, float]]:
    """Where the mode search starts: the moment match of (a, b, c), then (ln max(xbar, 0.5), 1).

    The mode solves E X = m = a/c and E ln X! = b/c. With the asymptotic mean
    mu - (nu - 1)/(2 nu) and variance mu/nu, mu = lambda^(1/nu) (Gaunt et al. 2019),
    and E ln X! ~ ln Gamma(m + 1) + psi'(m + 1) V/2, the variance is V =
    2 (b/c - ln Gamma(m + 1)) / psi'(m + 1), mu is the larger root of
    mu^2 - (m + 1/2) mu + V/2 and nu = mu / V. Past the roots (over-dispersion beyond
    any nu) the start is the floor's geometric match, lambda = m / (1 + m).
    """
    fallback = (math.log(max(stats.xbar, 0.5)), 1.0)
    a, b, c = conjugate_form(spec, stats)
    m = a / c if c > 0.0 else 0.0
    if not 0.0 < m < math.inf:
        return [fallback]
    variance = 2.0 * (b / c - float(gammaln(m + 1.0))) / float(polygamma(1, m + 1.0))
    if not variance > 0.0:
        return [fallback]
    discriminant = (m + 0.5) ** 2 - 2.0 * variance
    if discriminant < 0.0:
        return [(math.log(m / (1.0 + m)), NU_FLOOR), fallback]
    mu = 0.5 * (m + 0.5 + math.sqrt(discriminant))
    nu = mu / variance
    return [(nu * math.log(mu), nu), fallback]


def _laplace(spec, stats, rows) -> tuple[np.ndarray, float, np.ndarray, ModeSearch]:
    """The target's mode (u, nu), its value and precision there, and how the search ended.

    Newton's method, one series row per point it visits (the posterior's log_kernel
    rows, with derivatives), from each of _starts in turn until a search ends at a
    decrement of at most _NEWTON_TOL with a positive definite precision. Raises
    ModeNotFoundError where none does.
    """

    def evaluate(x):
        """(value, (gradient, Hessian)) at x: -inf off the support, None where not finite."""
        if not _inside(x[0], x[1]):
            return -math.inf, None
        (value,), _, ((grad,), (hess,)) = rows(x[:1], x[1:], derivatives=True)
        value = float(value)
        if not (math.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            return value, None
        return value, (grad, hess)

    iterations = points = 0
    for start in _starts(spec, stats):
        x = np.array(start)
        f, derivatives = evaluate(x)
        points += 1
        decrement, steps = math.inf, 0
        while derivatives is not None:
            grad, hess = derivatives
            (h00, h01), (_, h11) = hess.tolist()
            l1, l2, c, s = _eigen2(h00, h01, h11)
            # Newton's step with the Hessian's eigenvalues made negative, so it ascends;
            # in u alone where the target falls through the nu floor
            least = 1e-12 * max(abs(l1), abs(l2))
            on_floor = x[1] <= NU_FLOOR and grad[1] <= 0.0
            if on_floor:
                step = np.array([grad[0] / max(abs(h00), least), 0.0])
            else:
                g0, g1 = grad.tolist()
                w1 = (c * g0 + s * g1) / max(abs(l1), least)
                w2 = (c * g1 - s * g0) / max(abs(l2), least)
                step = np.array([c * w1 - s * w2, s * w1 + c * w2])
            decrement = float(grad @ step)
            if decrement <= _NEWTON_TOL or steps == _NEWTON_STEPS:
                break
            t = 1.0
            for _ in range(_TRIES):
                trial = x + t * step
                trial[1] = max(trial[1], NU_FLOOR)  # a step past the floor stops on it
                f_trial, found = evaluate(trial)
                points += 1
                if found is not None and (f_trial > f or decrement <= _MODE_TOL):
                    break
                t *= 0.5
            else:
                break  # the target rises no further along the step
            x, f, derivatives = trial, f_trial, found
            steps += 1
        iterations += steps
        if derivatives is not None and decrement <= _NEWTON_TOL:
            precision = -hess
            if on_floor:
                # on the floor the posterior falls at rate |g_nu|, as an exponential of
                # variance 1 / g_nu^2 does where its curvature is small
                precision[1, 1] = max(precision[1, 1], 0.0) + grad[1] ** 2
            (p00, p01), (_, p11) = precision.tolist()
            if _eigen2(p00, p01, p11)[1] > 0.0:
                return x, f, precision, ModeSearch(iterations, points, decrement, bool(on_floor))
    raise ModeNotFoundError(
        "found no finite posterior mode to centre the proposal on (the Newton search "
        f"ended at ln lambda = {x[0]:.17g}, nu = {x[1]:.17g}, with target {f!r})")


def pareto_khat(log_ratios: np.ndarray) -> float:
    """The Pareto k-hat of importance ratios, from their logs (PSIS; Vehtari et al. 2024).

    The generalized Pareto shape fitted (Zhang & Stephens 2009, with PSIS's
    weak prior toward 0.5) to the excesses of the largest
    ceil(min(S / 5, 3 sqrt(S))) of S ratios over the next one. Below 0.5 the
    ratios have finite variance; above 0.7 their tail is too heavy for the
    draws to be trusted. -inf where the ratios have no tail (all equal).
    """
    s = log_ratios.size
    m = math.ceil(min(0.2 * s, 3.0 * math.sqrt(s)))
    if m < 5:
        return math.nan
    x = np.sort(np.partition(log_ratios, s - m - 1)[s - m - 1:])  # the largest m + 1, in order
    if not math.isfinite(x[-1]):
        return math.nan
    with np.errstate(all="ignore"):
        y = np.exp(x[1:] - x[-1]) - math.exp(x[0] - x[-1])
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


def _proposals(generator, steps: int, centre: np.ndarray, chol: tuple[float, float, float]):
    """One chain's proposals (u, nu), their log t densities less a constant, and ln U per step.

    From three uniforms per step, by the t's radial construction (see the module docstring);
    V = 1 - U_1 lies in (0, 1], so ln V is finite.
    """
    radial, turn, uniform = generator.random((3, steps))
    log_v = np.log(1.0 - radial)
    radius = np.sqrt(_DF * np.expm1((-2.0 / _DF) * log_v))
    angle = (2.0 * math.pi) * turn
    z0, z1 = radius * np.cos(angle), radius * np.sin(angle)
    c00, c10, c11 = chol
    u = centre[0] + c00 * z0
    nu = centre[1] + (c10 * z0 + c11 * z1)
    log_q = ((_DF + 2) / _DF) * log_v
    with np.errstate(divide="ignore"):  # U = 0, once in 2^53 draws, never accepts
        log_u = np.log(uniform)
    return u, nu, log_q, log_u


def _scan(steps: list, log_ratios: list, log_u: list, current: float) -> list:
    """An independence chain's accept scan over the given steps, in order.

    Returns the steps it accepts; current is the log ratio of the state before
    the first step.
    """
    accepted = []
    accept = accepted.append
    for i, r, lu in zip(steps, log_ratios, log_u):
        if lu < r - current:
            current = r
            accept(i)
    return accepted


def run_chains(
    spec: PriorSpec,
    stats: SufficientStats,
    config: McmcConfig = McmcConfig(),
    seed: SeedSpec = SeedSpec(0),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> Draws:
    """Run config.chains independence Metropolis chains from the posterior's Laplace fit.

    Per-chain streams derive from (seed.master_seed, seed.stream_id, chain
    index), so results do not depend on execution order and repeat runs are
    bit-identical. Raises ImproperPosteriorError before sampling when the
    posterior is decidably improper (posterior.check_propriety), ModeNotFoundError
    when the mode search finds no finite mode, and AllDivergentError if every
    post-warmup proposal in every chain was rejected.
    """
    check_propriety(spec, stats)
    kernel = log_kernel(spec, stats, policy)
    target = _make_target(kernel)
    centre, top, precision, search = _laplace(spec, stats, kernel)
    (c00, _), (c10, c11) = np.linalg.cholesky(_SCALE ** 2 * np.linalg.inv(precision)).tolist()
    chains, steps, warmup = config.chains, config.warmup + config.keep, config.warmup
    u, nu, log_q, log_u = np.empty((4, chains, steps))
    for c in range(chains):
        g = make_generator(seed.master_seed, seed.stream_id, c)
        u[c], nu[c], log_q[c], log_u[c] = _proposals(g, steps, centre, (c00, c10, c11))
    # chain-major target calls of up to _CHUNK rows, one of which may span chains
    values, reasons = np.empty((chains, steps)), np.empty((chains, steps), dtype=np.int8)
    for first in range(0, chains * steps, _CHUNK):
        rows = slice(first, first + _CHUNK)
        values.reshape(-1)[rows], reasons.reshape(-1)[rows] = target(u.reshape(-1)[rows],
                                                                     nu.reshape(-1)[rows])
    warm, kept = reasons[:, :warmup], reasons[:, warmup:]
    if kept.all():
        raise AllDivergentError("every post-warmup proposal in every chain was rejected")
    log_ratios = values - log_q
    # the state after each step: the last accepted proposal, or the mode (-1)
    state = np.full((chains, steps), -1)
    for c in range(chains):
        # ln U < -inf - current never holds, so only the finite ratios are scanned
        finite = np.flatnonzero(values[c] > -math.inf)
        accepted = np.array(_scan(finite.tolist(), log_ratios[c, finite].tolist(),
                                  log_u[c, finite].tolist(), top), dtype=np.intp)
        state[c, accepted] = accepted
    state = np.maximum.accumulate(state, axis=1)[:, warmup:]
    # each kept state's position in the flattened (chains, steps) arrays; np.where masks the mode's
    at = state + np.arange(0, chains * steps, steps)[:, None]
    lam = np.exp(np.where(state < 0, centre[0], u.take(at)))
    nus = np.where(state < 0, centre[1], nu.take(at))
    log_ratios = log_ratios.reshape(-1)
    heaviest = float(log_ratios.max())
    # the largest ratio over the mean, the mode's (log ratio top: its log q is 0) included
    shift = max(heaviest, top)
    weight_sup = (log_ratios.size + 1) / (float(np.exp(log_ratios - shift).sum())
                                          + math.exp(top - shift))
    return Draws(lam=lam, nu=nus,
                 accept_rate=(state == np.arange(warmup, steps)).sum(axis=1) / config.keep,
                 rejections={r: (kept == code).sum(axis=1)
                             for code, r in enumerate(REJECTIONS, 1)},
                 warmup_rejections={r: (warm == code).sum(axis=1)
                                    for code, r in enumerate(REJECTIONS, 1)},
                 pareto_k=pareto_khat(log_ratios), proposal_centre=centre,
                 proposal_cholesky=np.array([c00, c10, c11]), mode_search=search,
                 weight_sup=weight_sup, start_is_heaviest=heaviest <= top)


def _split_rhat_matrix(x: np.ndarray) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is split in half; with m draws per half, W the mean
    within-half variance and B the between-half variance of the means
    (times m), R-hat = sqrt(((m-1)/m * W + B/m) / W).
    """
    n_chains, n_iter = x.shape
    if n_chains < 2:
        raise InvalidParamsError("R-hat needs at least 2 chains")
    if n_iter < 100:
        raise InvalidParamsError("R-hat needs at least 100 iterations per chain")
    m = n_iter // 2
    halves = np.concatenate([x[:, :m], x[:, m : 2 * m]], axis=0)
    w = float(halves.var(axis=1, ddof=1).mean())
    if w <= 0.0 or not math.isfinite(w):
        raise ZeroVarianceError("within-chain variance is zero; R-hat undefined")
    b = m * float(halves.mean(axis=1).var(ddof=1))
    var_plus = (m - 1) / m * w + b / m
    return float(math.sqrt(var_plus / w))


def split_rhat(draws: Draws, param: str) -> float:
    """R-hat for 'lambda' or 'nu' over the retained draws."""
    if param not in ("lambda", "nu"):
        raise KeyError(f"unknown parameter {param!r}; use 'lambda' or 'nu'")
    return _split_rhat_matrix(draws.lam if param == "lambda" else draws.nu)


def summarize(draws: Draws) -> PosteriorSummary:
    """Pooled medians, equal-tailed 95% intervals, and per-parameter R-hat.

    Quantiles are np.quantile's linear ones, in its arithmetic, from one sort
    of the pooled draws: at the virtual index (n - 1) q, between the sorted
    draws a and b at its floor and the next index (at most n - 1), with gamma
    the index less its floor and d = b - a, the value is a + d gamma, or
    b - d (1 - gamma) where gamma >= 0.5.
    """
    pooled = np.sort(np.stack((draws.lam, draws.nu)).reshape(2, -1), axis=1)
    n = pooled.shape[1]
    index = (n - 1) * _QUANTILES
    low = np.floor(index)
    gamma = index - low
    low = low.astype(np.intp)
    a, b = pooled[:, low], pooled[:, np.minimum(low + 1, n - 1)]
    d = b - a
    quantiles = np.where(gamma >= 0.5, b - d * (1.0 - gamma), a + d * gamma).tolist()
    lam, nu = (ParamSummary(median=med, cri_low=lo, cri_high=hi, rhat=_split_rhat_matrix(x))
               for (lo, med, hi), x in zip(quantiles, (draws.lam, draws.nu)))
    return PosteriorSummary(lam=lam, nu=nu, n_kept=draws.n_kept)


def fit_record(draws: Draws, summary: PosteriorSummary, warmup: int) -> dict:
    """A fit's results and diagnostics as plain JSON types: the `fit` report less its input.

    cli.FitReport adds the keys that name the input (dataset, n, prior, config,
    truncation, seed), and a study's progress record its key and made_by.
    divergence_warning says more than DIVERGENCE_WARN_FRACTION of the kept
    proposals were divergent (a proposal outside the support is no divergence),
    and warmup_tv_bound is (1 - 1/weight_sup)^warmup, the estimate of the
    total-variation distance from the posterior left after the warmup.
    """
    divergences = draws.divergences
    return {
        "lambda": asdict(summary.lam),
        "nu": asdict(summary.nu),
        "n_kept": summary.n_kept,
        "accept_rate": draws.accept_rate.tolist(),
        "divergences": divergences.tolist(),
        "divergence_warning":
            int(divergences.sum()) / max(1, summary.n_kept) > DIVERGENCE_WARN_FRACTION,
        "rejections": {reason: counts.tolist() for reason, counts in draws.rejections.items()},
        "warmup_rejections": {reason: counts.tolist()
                              for reason, counts in draws.warmup_rejections.items()},
        "pareto_k": draws.pareto_k,
        "proposal_centre": draws.proposal_centre.tolist(),
        "proposal_cholesky": draws.proposal_cholesky.tolist(),
        "mode_search": asdict(draws.mode_search),
        "weight_sup": draws.weight_sup,
        "start_is_heaviest": draws.start_is_heaviest,
        "warmup_tv_bound": (1.0 - 1.0 / draws.weight_sup) ** warmup,
    }
