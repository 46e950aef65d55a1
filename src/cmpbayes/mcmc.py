"""Posterior sampling via adaptive random-walk Metropolis, with diagnostics.

Chains move on (u, v) = (ln lambda, ln nu) so proposals never leave the
domain; the Jacobian contributes u + v to the target. Each chain is one
coroutine running warmup + keep Metropolis steps with its whole state in
Python floats: (u, v) and its log target, the log step size, the proposal's
lower Cholesky factor and the running (Welford) means and cross-products of
the warmup draws. During warmup only, a Robbins-Monro update steers the global
step size toward 30% acceptance (its gains (i + 1)^-0.6 are computed once per
warmup length and shared by the chains), and every 100 iterations
np.linalg.cholesky refactors the proposal's 2x2 covariance shape from the
running covariance.
The full covariance matters here: CMP posteriors can put correlation near
0.99 between ln lambda and ln nu at large n, where a diagonal proposal mixes
too slowly to pass R-hat checks. Adaptation freezes at the end of warmup:
the sampling phase is a loop of its own that holds the step size and the
Cholesky factor fixed, so the retained draws come from a fixed-kernel Markov
chain, and Draws reports that kernel per chain. Both phases draw one pair of
normals per step and a uniform only for a finite proposal. These tuning
values are module constants, not config: McmcConfig holds only the chain
count and lengths.

A chain yields each start attempt and proposal (u, v) and is sent back its
log target. run_chains advances a fit's chains in lockstep rounds, carrying
the live chains' pending points as one flat list: each round evaluates them
in one batched call, which sums the round's ln Z series with one
core.series_rows call (one (rows, K) grid per grid length, a row that fails
its tail test re-entering that call at double length) and evaluates the
posterior's log kernel (posterior.kernel_series) over the round's rows in one
call; the target keeps each row's (u, v) beside it and adds only the
Jacobian. Each chain keeps its own generator, and series_rows gives each row
exactly its one-point value, so a chain's draws do not depend on the chains
sharing its rounds. Points whose target is non-finite (nu below NU_FLOOR,
lambda = e^u out of float range, series truncation cap, nonpositive Jeffreys
determinant, overflow) never reach the grid or are -inf from the kernel, and
count as divergences when proposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import TruncationPolicy, DEFAULT_POLICY, series_rows
from .errors import (
    AllDivergentError,
    ImproperPosteriorError,
    InvalidParamsError,
    ZeroVarianceError,
)
from .posterior import SufficientStats, flat_posterior_propriety, kernel_series, updated_hyper
from .posterior import log_posterior  # noqa: F401  (a name bench/spans.py patches)
from .priors import Conjugate, Flat, PriorSpec, conjugate_propriety
from .rng import SeedSpec, make_generator

# nu is floored inside the sampler: the truncated series degrades at the
# geometric boundary nu = 0.
NU_FLOOR = 1e-4
_LOG_NU_FLOOR = math.log(NU_FLOOR)
_TARGET_ACCEPT = 0.30
_INIT_JITTER = 0.5  # sd of the random start around (ln max(xbar, 0.5), 0)
_INIT_PROPOSAL_SD = 0.5
_MAX_INIT_TRIES = 100
_COV_UPDATE_EVERY = 100
_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class McmcConfig:
    """Chain count and lengths; defaults give 4 x 2000 retained draws after warmup."""

    chains: int = 4
    warmup: int = 2000
    keep: int = 2000

    def __post_init__(self):
        if self.chains < 2:
            raise InvalidParamsError("at least 2 chains are required (for R-hat)")
        if self.keep < 100:
            raise InvalidParamsError("keep must be >= 100")
        if self.warmup < 1:
            raise InvalidParamsError("warmup must be >= 1")


@dataclass(frozen=True)
class Draws:
    """Retained posterior draws on the natural scale, (chains x keep)."""

    lam: np.ndarray
    nu: np.ndarray
    accept_rate: np.ndarray  # per chain, post-warmup
    divergences: np.ndarray  # per chain, post-warmup proposals with non-finite target
    # per chain, the sampling phase's fixed proposal: step size s and the lower
    # Cholesky factor L = [[c00, 0], [c10, c11]] of its shape (rows of
    # (c00, c10, c11)), so a proposal is (u, v) + s * L z with z standard normal
    step_size: Optional[np.ndarray] = None
    proposal_cholesky: Optional[np.ndarray] = None

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


def _check_propriety(spec: PriorSpec, stats: SufficientStats) -> None:
    if isinstance(spec, Flat):
        if not flat_posterior_propriety(stats):
            raise ImproperPosteriorError(
                "flat-prior posterior is improper for this data "
                "(needs some count > 1 and mean ln(x!) above the floor bound)"
            )
    elif isinstance(spec, Conjugate):
        if not conjugate_propriety(updated_hyper(spec.hyper, stats)):
            raise ImproperPosteriorError(
                "conjugate posterior hyperparameters fail the propriety condition"
            )
    # Jeffreys propriety is not decidable here; divergence counts are the canary.


def _make_target(spec, stats, policy):
    """The log target of a list of (u, v) points, one ln Z grid for all of them."""
    kernel, moments = kernel_series(spec, stats)
    exp, isfinite, inf = math.exp, math.isfinite, math.inf

    def target(points: list[tuple[float, float]]) -> list[float]:
        values = [-inf] * len(points)
        kept, batch = [], []  # the index of each point that reaches the grid, and its row
        for i, (u, v) in enumerate(points):
            if v >= _LOG_NU_FLOOR:
                try:
                    if exp(u) != 0.0:  # lambda must be a positive float
                        batch.append((u, exp(v)))
                        kept.append(i)
                except OverflowError:
                    pass
        if not batch:
            return values
        for i, lp in zip(kept, kernel(batch, series_rows(batch, policy, moments))):
            if isfinite(lp):
                u, v = points[i]
                values[i] = lp + u + v
        return values

    return target


@lru_cache(maxsize=4)
def _gains(warmup: int) -> tuple[float, ...]:
    """The Robbins-Monro gains (i + 1)^-0.6 of warmup steps 0 .. warmup - 1, shared by chains."""
    return tuple((i + 1) ** -0.6 for i in range(warmup))


def _run_chain(xbar, config, seed, chain_idx):
    """One chain as a coroutine: yields each point (u, v), is sent its log target.

    Returns (lam, nu, accept_rate, divergences, step_size, (c00, c10, c11))
    through StopIteration: the last two are the proposal the sampling phase
    held fixed.
    """
    g = make_generator(seed.master_seed, seed.stream_id, chain_idx)
    base_u = math.log(max(xbar, 0.5))

    for _ in range(_MAX_INIT_TRIES):
        u = base_u + _INIT_JITTER * g.standard_normal()
        v = max(_INIT_JITTER * g.standard_normal(), _LOG_NU_FLOOR)
        cur_lp = yield u, v
        if math.isfinite(cur_lp):
            break
    else:
        raise AllDivergentError(
            f"chain {chain_idx}: no finite starting point in {_MAX_INIT_TRIES} attempts"
        )

    # The whole chain state is Python floats: a 2-vector through numpy costs
    # more per step than the arithmetic it does. A uniform is the double
    # g.random() gives, (raw >> 11) * 2^-53 of the next 64 raw bits, formed here
    # at lower call cost.
    normal, raw = g.standard_normal, g.bit_generator.random_raw
    z = np.empty(2)  # each step's pair of normals, drawn in place
    exp, log, isfinite = math.exp, math.log, math.isfinite
    warmup = config.warmup
    log_scale = math.log(_INIT_PROPOSAL_SD)
    c00, c10, c11 = 1.0, 0.0, 1.0  # lower Cholesky factor of the proposal shape
    # Welford running means and cross-products; np.linalg.cholesky reads only
    # the lower triangle, so the upper cross-product is not kept
    mean_u = mean_v = 0.0
    m_uu = m_vu = m_vv = 0.0
    count = 0
    reset_at = warmup // 4
    last_update = warmup - _COV_UPDATE_EVERY

    for i, gain in enumerate(_gains(warmup)):
        scale = exp(log_scale)
        normal(out=z)
        z0, z1 = z.tolist()
        prop_u = u + scale * (c00 * z0)
        prop_v = v + scale * (c10 * z0 + c11 * z1)
        lp = yield prop_u, prop_v
        if isfinite(lp):
            log_ratio = lp - cur_lp
            accept_prob = 1.0 if log_ratio >= 0.0 else exp(log_ratio)
            if log((raw() >> 11) * _INV_2_53) < log_ratio:
                u, v, cur_lp = prop_u, prop_v, lp
        else:  # divergent: the state stays and no uniform is drawn
            accept_prob = 0.0
        log_scale += gain * (accept_prob - _TARGET_ACCEPT)
        if i == reset_at:
            mean_u = mean_v = m_uu = m_vu = m_vv = 0.0
            count = 0
        count += 1
        du = u - mean_u
        dv = v - mean_v
        mean_u += du / count
        mean_v += dv / count
        eu = u - mean_u
        m_uu += du * eu
        m_vu += dv * eu
        m_vv += dv * (v - mean_v)
        if count >= _COV_UPDATE_EVERY and (i + 1) % _COV_UPDATE_EVERY == 0 and i < last_update:
            n1 = count - 1
            cov = np.array([[m_uu / n1 + 1e-9, 0.0], [m_vu / n1, m_vv / n1 + 1e-9]])
            (n00, _), (n10, n11) = np.linalg.cholesky(cov).tolist()
            # keep the proposal determinant fixed so acceptance stays settled
            log_scale += ((log(c00) + log(c11)) - (log(n00) + log(n11))) / 2.0
            c00, c10, c11 = n00, n10, n11

    # Sampling: adaptation is frozen, so the kernel is fixed; record each draw.
    scale = exp(log_scale)
    lam, nu = [], []
    accepted = divergent = 0
    for _ in range(config.keep):
        normal(out=z)
        z0, z1 = z.tolist()
        prop_u = u + scale * (c00 * z0)
        prop_v = v + scale * (c10 * z0 + c11 * z1)
        lp = yield prop_u, prop_v
        if isfinite(lp):
            if log((raw() >> 11) * _INV_2_53) < lp - cur_lp:
                u, v, cur_lp = prop_u, prop_v, lp
                accepted += 1
        else:
            divergent += 1
        lam.append(exp(u))
        nu.append(exp(v))
    return np.array(lam), np.array(nu), accepted / config.keep, divergent, scale, (c00, c10, c11)


def _lockstep(target, chains):
    """Drive chain coroutines in rounds of one target call; their results, in order.

    A chain that finishes leaves the rounds; an error raised by a chain ends
    them all.
    """
    results = [None] * len(chains)
    live = list(enumerate(chains))
    points = [next(chain) for chain in chains]  # each live chain's pending point, in order
    while live:
        values = target(points)
        still, points = [], []
        for (c, chain), value in zip(live, values):
            try:
                points.append(chain.send(value))
            except StopIteration as stop:
                results[c] = stop.value
            else:
                still.append((c, chain))
        live = still
    return results


def run_chains(
    spec: PriorSpec,
    stats: SufficientStats,
    config: McmcConfig = McmcConfig(),
    seed: SeedSpec = SeedSpec(0),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> Draws:
    """Run config.chains independent adaptive Metropolis chains, in lockstep.

    Per-chain streams derive from (seed.master_seed, seed.stream_id, chain
    index), so results do not depend on execution order and repeat runs are
    bit-identical. Raises ImproperPosteriorError before sampling when the
    posterior is decidably improper, and AllDivergentError if every
    post-warmup proposal in every chain was divergent.
    """
    _check_propriety(spec, stats)
    target = _make_target(spec, stats, policy)

    chains = [_run_chain(stats.xbar, config, seed, c) for c in range(config.chains)]
    results = _lockstep(target, chains)
    lam, nu, accept_rate, divergences, step_size, cholesky = (
        np.array(column) for column in zip(*results))
    if bool((divergences >= config.keep).all()):
        raise AllDivergentError("every post-warmup proposal in every chain was divergent")
    return Draws(lam=lam, nu=nu, accept_rate=accept_rate, divergences=divergences,
                 step_size=step_size, proposal_cholesky=cholesky)


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

    Quantiles use numpy's linear-interpolation definition (position
    (n-1)*q on the sorted pooled draws).
    """
    out = {}
    for name in ("lam", "nu"):
        x = getattr(draws, name)
        pooled = x.ravel()
        lo, med, hi = np.quantile(pooled, [0.025, 0.5, 0.975])
        out[name] = ParamSummary(
            median=float(med),
            cri_low=float(lo),
            cri_high=float(hi),
            rhat=_split_rhat_matrix(x),
        )
    return PosteriorSummary(lam=out["lam"], nu=out["nu"], n_kept=draws.n_kept)
