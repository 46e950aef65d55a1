"""The sampler against a quadrature reference posterior (test-only).

A posterior in two parameters can be integrated on a grid (the idea behind INLA:
Rue, Martino & Chopin 2009). Each reference here is the posterior density in
(ln lambda, nu), its log kernel (posterior.log_kernel), on the CMP's parameter
space nu >= 0.
It is integrated on 161 x 161 grids laid on the Laplace fit that the
sampler's mode search finds. For each parameter, the grid's rows run along it over
+-HALF_WIDTH standard deviations of the fit, and each row's points run along the
other parameter over +-HALF_WIDTH conditional standard deviations about the fit's
conditional mean: the fit's box sheared to its axes, so that ridged posteriors
(corr(ln lambda, nu) near 1 at n = 2000) fit in it. Both are cut at nu = 0.
Nested trapezoid rules give the parameter's marginal density at each row and its
cumulative distribution, and so its median and 95% interval ends. Each MCMC
quantile must lie within BOUND Monte Carlo standard errors of it, the standard
error estimated from the spread of the per-chain quantiles, as criterion 5 does
for medians. The mode searches behind those fits are checked too: each sums one
series per point it visits and ends within MAX_NEWTON_STEPS steps.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cmpbayes import McmcConfig, SeedSpec, bundled_dataset, get_preset, mcmc, run_chains
from cmpbayes import sufficient_stats
from cmpbayes import posterior
from cmpbayes.core import DEFAULT_POLICY
from cmpbayes.posterior import log_kernel

GRID = 161
HALF_WIDTH = 8.0
QUANTILES = (0.025, 0.5, 0.975)  # the fit's median and 95% interval ends
# 16 chains give the standard error of a quantile 15 degrees of freedom; 5 of them
# leave each of the 126 comparisons below a 2e-4 chance of failing a correct sampler
CHAINS = 16
BOUND = 5.0
PRIORS = ("conj-1", "flat", "jeffreys")
DATASETS = ("textile-faults", "slovak-poem", "crab-satellites", "hungarian-words")
MAX_NEWTON_STEPS = 6


def long_series_counts(seed):
    """The benchmark's long-series counts: n = 2000 from CMP(30, 0.7)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.long_series_counts(seed)


def marginal_quantiles(log_density, mode, cov, axis):
    """QUANTILES of parameter axis (0: ln lambda, 1: nu) by quadrature, and the edge weight.

    The edge weight is the largest density on the grid's edges that nu = 0 does
    not cut, relative to the grid's largest: how much mass the box leaves out.
    """
    other = 1 - axis
    floor = (-math.inf, 0.0)
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
    values, _, _ = log_density(*(points if axis == 0 else points[::-1]))
    w = np.exp(values - values.max()).reshape(GRID, GRID)
    density = np.trapezoid(w, y, axis=1)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))))
    quantiles = np.interp(np.array(QUANTILES) * cdf[-1], cdf, x)
    edges = [w[-1], w[:, -1], w[low > floor[other], 0]]
    if x[0] > floor[axis]:
        edges.append(w[0])
    return quantiles, max(float(e.max(initial=0.0)) for e in edges)


def quadrature(spec, stats):
    """QUANTILES of lambda and of nu by quadrature, and the larger edge weight."""
    density = log_kernel(spec, stats, DEFAULT_POLICY)
    mode, _, precision, _ = mcmc._laplace(spec, stats, density)
    cov = np.linalg.inv(precision)
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


def fit_stats(counts):
    """A bundled dataset's, or long-series-<seed>'s, sufficient statistics."""
    if counts.startswith("long-series-"):
        return sufficient_stats(long_series_counts(int(counts.rsplit("-", 1)[1])))
    return sufficient_stats(bundled_dataset(counts).counts)


def laplace(prior, counts):
    """The mode search's (mode, value, precision, ModeSearch) for a preset on counts."""
    spec, stats = get_preset(prior), fit_stats(counts)
    return mcmc._laplace(spec, stats, log_kernel(spec, stats, DEFAULT_POLICY))


@pytest.mark.parametrize("prior", PRIORS)
@pytest.mark.parametrize("counts", [*DATASETS, "long-series-1", "long-series-2",
                                    "long-series-3"])
def test_mode_search_sums_one_series_per_point(monkeypatch, counts, prior):
    # each point the search visits (each row it asks the kernel for) costs one one-row
    # series call, with moments, which gives its value, gradient and Hessian (under
    # Jeffreys too: J's derivatives are central moments on that row's grid); no point is
    # visited twice, and ModeSearch.points counts them; and the search ends in a few
    # Newton steps at a decrement of at most 1e-20, crab-satellites' on the boundary
    # nu = 0, where the step in u is Newton's
    points, centres = [], []
    series = posterior.series_arrays

    def counted_series(log_lam, nu, policy, moments=False):
        assert moments and log_lam.size == 1
        centres.append((log_lam[0], nu[0]))
        return series(log_lam, nu, policy, moments)

    spec, stats = get_preset(prior), fit_stats(counts)
    rows = log_kernel(spec, stats, DEFAULT_POLICY)

    def counted_rows(u, nu, derivatives=False):
        points.append((u[0], nu[0]))
        return rows(u, nu, derivatives)

    monkeypatch.setattr(posterior, "series_arrays", counted_series)
    mode, _, _, search = mcmc._laplace(spec, stats, counted_rows)
    assert centres == points and len(set(points)) == len(points) == search.points
    assert tuple(mode) in points
    assert search.iterations <= MAX_NEWTON_STEPS
    assert search.decrement <= 1e-20
    assert search.on_boundary is (counts == "crab-satellites")


def test_fit_matrix_searches_visit_at_most_50_points():
    # the benchmark's fit matrix (the bundled datasets under conj-1, flat and jeffreys)
    # starts its 12 searches at the posterior's moment match: 43 points and 31 Newton
    # steps in all, where the start (ln max(xbar, 0.5), 1) took 107 points and 80 steps
    searches = [laplace(prior, dataset)[3] for dataset in DATASETS for prior in PRIORS]
    assert sum(search.points for search in searches) <= 50
    assert sum(search.iterations for search in searches) <= 40


@pytest.mark.parametrize("prior", ["conj-1", "flat"])
def test_crab_search_ends_at_its_geometric_start(prior):
    # crab-satellites is over-dispersed beyond any nu > 0, so the search starts on nu = 0
    # at the geometric law of mean m = a/c, lambda = m / (1 + m), where the u-gradient
    # a - c lambda / (1 - lambda) is 0: the start is the mode, with no Newton step
    search = laplace(prior, "crab-satellites")[3]
    assert (search.iterations, search.points, search.on_boundary) == (0, 1, True)
    assert search.decrement <= 1e-20


@pytest.mark.parametrize("prior", PRIORS)
def test_crab_mode_is_on_the_floor(prior):
    # the posterior still rises toward lower nu at the floor of the parameter space,
    # nu = 0, so the mode is the boundary's best point: the target's u-gradient is 0 there
    spec, stats = get_preset(prior), fit_stats("crab-satellites")
    rows = log_kernel(spec, stats, DEFAULT_POLICY)
    mode, _, _, search = mcmc._laplace(spec, stats, rows)
    _, _, ((grad,), _) = rows(mode[:1], mode[1:], derivatives=True)
    assert mode[1] == 0.0 and search.on_boundary
    assert abs(grad[0]) <= 1e-8 and grad[1] < 0.0


@pytest.mark.parametrize("dataset", ["crab-satellites", "textile-faults"])
def test_jeffreys_proposal_holds_still_under_an_ulp_of_the_series(monkeypatch, dataset):
    # moving every series result by an ulp (ln Z to the next float up, each moment sum
    # times 1 + 2^-52) moves the Jeffreys Laplace fit's Cholesky factor by less than
    # 1e-9 relative: J's derivatives are exact, so nothing amplifies the ulp (central
    # differences of J moved crab-satellites' factor 5.8e-4 and textile-faults' 6.5e-9)
    series = posterior.series_arrays

    def factor():
        _, _, precision, _ = laplace("jeffreys", dataset)
        return np.linalg.cholesky(np.linalg.inv(precision))

    def moved(log_lam, nu, policy, moments=False):
        log_z, sums, k = series(log_lam, nu, policy, moments)
        return np.nextafter(log_z, np.inf), sums * (1.0 + 2.0 ** -52), k

    before = factor()
    monkeypatch.setattr(posterior, "series_arrays", moved)
    assert np.abs(factor() - before).max() < 1e-9 * np.abs(before).max()
