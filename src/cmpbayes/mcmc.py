"""Posterior sampling via adaptive random-walk Metropolis, with diagnostics.

Chains move on (u, v) = (ln lambda, ln nu) so proposals never leave the
domain; the Jacobian contributes u + v to the target. Each chain adapts a
Gaussian proposal during warmup only: a Robbins-Monro update steers the
global step size toward target_accept, and the proposal's 2x2 covariance
shape is re-estimated every 100 iterations from the running (Welford)
covariance of the warmup draws. The full covariance matters here: CMP
posteriors can put correlation near 0.99 between ln lambda and ln nu at
large n, where a diagonal proposal mixes too slowly to pass R-hat checks.
Adaptation freezes at the end of warmup, so the retained draws come from a
fixed-kernel Markov chain.

The target is posterior.log_kernel plus the Jacobian, one ln Z series per
step. Proposals whose target is non-finite (nu below the sampler floor,
lambda = e^u out of float range, series truncation cap, nonpositive Jeffreys
determinant) are rejected and counted as divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TruncationPolicy, DEFAULT_POLICY
from .errors import (
    AllDivergentError,
    ImproperPosteriorError,
    InvalidParamsError,
    NonpositiveDeterminantError,
    TruncationError,
    ZeroVarianceError,
)
from .posterior import SufficientStats, flat_posterior_propriety, log_kernel, updated_hyper
from .posterior import log_posterior  # noqa: F401  (a name bench/spans.py patches)
from .priors import Conjugate, Flat, PriorSpec, conjugate_propriety
from .rng import SeedSpec, make_generator

_COV_UPDATE_EVERY = 100
_INIT_PROPOSAL_SD = 0.5
_MAX_INIT_TRIES = 100


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; defaults give 4 x 2000 retained draws after warmup."""

    chains: int = 4
    warmup: int = 2000
    keep: int = 2000
    target_accept: float = 0.30
    init_jitter: float = 0.5
    nu_floor: float = 1e-4

    def __post_init__(self):
        if self.chains < 2:
            raise InvalidParamsError("at least 2 chains are required (for R-hat)")
        if self.keep < 100:
            raise InvalidParamsError("keep must be >= 100")
        if self.warmup < 1:
            raise InvalidParamsError("warmup must be >= 1")
        if not (0.0 < self.target_accept < 1.0):
            raise InvalidParamsError("target_accept must lie in (0, 1)")
        if self.init_jitter <= 0.0:
            raise InvalidParamsError("init_jitter must be positive")
        if self.nu_floor <= 0.0:
            raise InvalidParamsError("nu_floor must be positive")


@dataclass(frozen=True)
class Draws:
    """Retained posterior draws on the natural scale, (chains x keep)."""

    lam: np.ndarray
    nu: np.ndarray
    accept_rate: np.ndarray  # per chain, post-warmup
    divergences: np.ndarray  # per chain, post-warmup proposals with non-finite target
    nu_floor: float

    @property
    def n_chains(self) -> int:
        return self.lam.shape[0]

    @property
    def n_kept(self) -> int:
        return self.lam.shape[0] * self.lam.shape[1]

    @property
    def divergence_fraction(self) -> float:
        return float(self.divergences.sum()) / max(1, self.n_kept)

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


def _make_target(spec, stats, policy, log_floor):
    kernel = log_kernel(spec, stats, policy)

    def target(u: float, v: float) -> float:
        if v < log_floor:
            return -math.inf
        try:
            if math.exp(u) == 0.0:  # lambda must be a positive float
                return -math.inf
            lp = kernel(u, math.exp(v))
        except (TruncationError, NonpositiveDeterminantError, OverflowError):
            return -math.inf
        if not math.isfinite(lp):
            return -math.inf
        return lp + u + v

    return target


def _logdet_chol(chol: np.ndarray) -> float:
    return math.log(chol[0, 0]) + math.log(chol[1, 1])


def _mh_step(g, target, x, cur_lp, scale, chol):
    """One Metropolis step. Returns (x, lp, accept_prob, accepted, divergent)."""
    prop = x + scale * (chol @ g.standard_normal(2))
    lp = target(prop[0], prop[1])
    if not math.isfinite(lp):
        return x, cur_lp, 0.0, False, True
    log_ratio = lp - cur_lp
    accept_prob = math.exp(min(0.0, log_ratio))
    if math.log(g.random()) < log_ratio:
        return prop, lp, accept_prob, True, False
    return x, cur_lp, accept_prob, False, False


def _run_chain(target, xbar, config, seed, chain_idx):
    g = make_generator(seed.master_seed, seed.stream_id, chain_idx)
    log_floor = math.log(config.nu_floor)
    base_u = math.log(max(xbar, 0.5))

    for _ in range(_MAX_INIT_TRIES):
        u = base_u + config.init_jitter * g.standard_normal()
        v = max(config.init_jitter * g.standard_normal(), log_floor)
        cur_lp = target(u, v)
        if math.isfinite(cur_lp):
            break
    else:
        raise AllDivergentError(
            f"chain {chain_idx}: no finite starting point in {_MAX_INIT_TRIES} attempts"
        )

    x = np.array([u, v])
    log_scale = math.log(_INIT_PROPOSAL_SD)
    chol = np.eye(2)
    mean = np.zeros(2)
    m2 = np.zeros((2, 2))
    count = 0
    reset_at = config.warmup // 4
    last_update = config.warmup - _COV_UPDATE_EVERY

    for i in range(config.warmup):
        x, cur_lp, accept_prob, _, _ = _mh_step(
            g, target, x, cur_lp, math.exp(log_scale), chol
        )
        log_scale += (i + 1) ** -0.6 * (accept_prob - config.target_accept)
        if i == reset_at:
            mean[:] = 0.0
            m2[:] = 0.0
            count = 0
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += np.outer(delta, x - mean)
        if count >= _COV_UPDATE_EVERY and (i + 1) % _COV_UPDATE_EVERY == 0 and i < last_update:
            cov = m2 / (count - 1) + 1e-9 * np.eye(2)
            new_chol = np.linalg.cholesky(cov)
            # keep the proposal determinant fixed so acceptance stays settled
            log_scale += (_logdet_chol(chol) - _logdet_chol(new_chol)) / 2.0
            chol = new_chol

    scale = math.exp(log_scale)
    lam = np.empty(config.keep)
    nu = np.empty(config.keep)
    accepted = 0
    divergent = 0
    for k in range(config.keep):
        x, cur_lp, _, acc, div = _mh_step(g, target, x, cur_lp, scale, chol)
        accepted += acc
        divergent += div
        lam[k] = math.exp(x[0])
        nu[k] = math.exp(x[1])
    return lam, nu, accepted / config.keep, divergent


def run_chains(
    spec: PriorSpec,
    stats: SufficientStats,
    config: McmcConfig = McmcConfig(),
    seed: SeedSpec = SeedSpec(0),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> Draws:
    """Run config.chains independent adaptive Metropolis chains.

    Per-chain streams derive from (seed.master_seed, seed.stream_id, chain
    index), so results do not depend on execution order and repeat runs are
    bit-identical. Raises ImproperPosteriorError before sampling when the
    posterior is decidably improper, and AllDivergentError if every
    post-warmup proposal in every chain was divergent.
    """
    _check_propriety(spec, stats)
    target = _make_target(spec, stats, policy, math.log(config.nu_floor))

    lam = np.empty((config.chains, config.keep))
    nu = np.empty((config.chains, config.keep))
    accept_rate = np.empty(config.chains)
    divergences = np.empty(config.chains, dtype=np.int64)
    for c in range(config.chains):
        lam[c], nu[c], accept_rate[c], divergences[c] = _run_chain(
            target, stats.xbar, config, seed, c
        )

    if bool((divergences >= config.keep).all()):
        raise AllDivergentError("every post-warmup proposal in every chain was divergent")
    return Draws(
        lam=lam,
        nu=nu,
        accept_rate=accept_rate,
        divergences=divergences,
        nu_floor=config.nu_floor,
    )


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
