"""The sampler against a quadrature reference posterior (test-only).

A posterior in two parameters can be integrated on a grid (the idea behind INLA:
Rue, Martino & Chopin 2009). Each reference here is the posterior density in
(ln lambda, nu): its log kernel plus the Jacobian ln lambda, on the sampler's
support nu >= NU_FLOOR, assembled here from posterior.kernel_series rather than by
the sampler. It is integrated on 161 x 161 grids laid on the Laplace fit that the
sampler's mode search finds. For each parameter, the grid's rows run along it over
+-HALF_WIDTH standard deviations of the fit, and each row's points run along the
other parameter over +-HALF_WIDTH conditional standard deviations about the fit's
conditional mean: the fit's box sheared to its axes, so that ridged posteriors
(corr(ln lambda, nu) near 1 at n = 2000) fit in it. Both are cut at the nu floor.
Nested trapezoid rules give the parameter's marginal density at each row and its
cumulative distribution, and so its median and 95% interval ends. Each MCMC
quantile must lie within BOUND Monte Carlo standard errors of it, the standard
error estimated from the spread of the per-chain quantiles, as criterion 5 does
for medians.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cmpbayes import McmcConfig, SeedSpec, bundled_dataset, get_preset, mcmc, run_chains
from cmpbayes import sufficient_stats
from cmpbayes.core import DEFAULT_POLICY, series_arrays
from cmpbayes.mcmc import NU_FLOOR
from cmpbayes.posterior import kernel_series

GRID = 161
HALF_WIDTH = 8.0
QUANTILES = (0.025, 0.5, 0.975)  # the fit's median and 95% interval ends
# 16 chains give the standard error of a quantile 15 degrees of freedom; 5 of them
# leave each of the 126 comparisons below a 2e-4 chance of failing a correct sampler
CHAINS = 16
BOUND = 5.0
PRIORS = ("conj-1", "flat", "jeffreys")
DATASETS = ("textile-faults", "slovak-poem", "crab-satellites", "hungarian-words")


def long_series_counts(seed):
    """The benchmark's long-series counts: n = 2000 from CMP(30, 0.7)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.long_series_counts(seed)


def marginal_quantiles(log_density, mode, cov, axis):
    """QUANTILES of parameter axis (0: ln lambda, 1: nu) by quadrature, and the edge weight.

    The edge weight is the largest density on the grid's edges that the nu floor
    does not cut, relative to the grid's largest: how much mass the box leaves out.
    """
    other = 1 - axis
    floor = (-math.inf, NU_FLOOR)
    sd = math.sqrt(cov[axis, axis])
    slope = cov[axis, other] / cov[axis, axis]
    sd_other = math.sqrt(cov[other, other] - slope * cov[axis, other])
    x = np.linspace(max(mode[axis] - HALF_WIDTH * sd, floor[axis]),
                    mode[axis] + HALF_WIDTH * sd, GRID)
    centre = mode[other] + slope * (x - mode[axis])
    low = np.maximum(centre - HALF_WIDTH * sd_other, floor[other])
    high = np.maximum(centre + HALF_WIDTH * sd_other, low)
    y = low[:, None] + (high - low)[:, None] * np.linspace(0.0, 1.0, GRID)
    points = [np.broadcast_to(x[:, None], y.shape).ravel(), y.ravel()]
    values, _ = log_density(*(points if axis == 0 else points[::-1]))
    w = np.exp(values - values.max()).reshape(GRID, GRID)
    density = np.trapezoid(w, y, axis=1)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))))
    quantiles = np.interp(np.array(QUANTILES) * cdf[-1], cdf, x)
    edges = [w[-1], w[:, -1], w[low > floor[other], 0]]
    if x[0] > floor[axis]:
        edges.append(w[0])
    return quantiles, max(float(e.max(initial=0.0)) for e in edges)


def posterior_density(spec, stats):
    """The log posterior density in (ln lambda, nu) on nu >= NU_FLOOR, from its kernel.

    The posterior's log kernel plus the Jacobian ln lambda of lambda = e^u,
    assembled here rather than by the sampler's target.
    """
    kernel, moments = kernel_series(spec, stats)

    def log_density(u, nu):
        log_z = sums = None
        if moments is not None:
            log_z, sums, _ = series_arrays(u, nu, DEFAULT_POLICY, moments)
        values, _ = kernel(u, nu, log_z, sums)
        return np.where(nu >= NU_FLOOR, values + u, -np.inf), None

    return log_density


def quadrature(spec, stats):
    """QUANTILES of lambda and of nu by quadrature, and the larger edge weight."""
    target = mcmc._make_target(spec, stats, DEFAULT_POLICY)
    mode, _, precision = mcmc._laplace(target, spec, stats, DEFAULT_POLICY)
    cov = np.linalg.inv(precision)
    density = posterior_density(spec, stats)
    (u, edge_u), (nu, edge_nu) = (marginal_quantiles(density, mode, cov, axis) for axis in (0, 1))
    return np.exp(u), nu, max(edge_u, edge_nu)


def check_against_quadrature(spec, stats):
    lam, nu, edge = quadrature(spec, stats)
    assert edge < 1e-6
    draws = run_chains(spec, stats, McmcConfig(chains=CHAINS), SeedSpec(1))
    assert draws.pareto_k <= 0.7
    for name, reference in (("lam", lam), ("nu", nu)):
        x = getattr(draws, name)
        se = np.quantile(x, QUANTILES, axis=1).std(axis=1, ddof=1) / math.sqrt(CHAINS)
        gap = np.abs(np.quantile(x, QUANTILES) - reference)
        assert (gap <= BOUND * se).all(), (name, gap / se)


@pytest.mark.parametrize("prior", PRIORS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_bundled_fit_quantiles_match_quadrature(dataset, prior):
    stats = sufficient_stats(bundled_dataset(dataset).counts)
    check_against_quadrature(get_preset(prior), stats)


@pytest.mark.parametrize("prior", PRIORS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_series_quantiles_match_quadrature(seed, prior):
    check_against_quadrature(get_preset(prior), sufficient_stats(long_series_counts(seed)))
