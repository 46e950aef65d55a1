"""Bayesian inference for the Conway-Maxwell-Poisson count distribution.

Library layers, bottom up: core (normalizing series, moments, derivatives),
priors (conjugate / flat / Jeffreys, the propriety rule, the rejection reasons
and J's derivatives), posterior (sufficient statistics, the log kernel, the
likelihood and log posteriors, check_propriety), rng (reproducible CMP variates),
mcmc (independence Metropolis from a Laplace fit, with split R-hat), study (bias/MSE/coverage
harness), datasets + cli (bundled data and the command-line surface).
"""

from .core import (
    CmpParams,
    TruncationPolicy,
    log_normalizer,
    log_pmf,
    logz_hessian,
    moments,
    pmf_table,
)
from .datasets import bundled_dataset, load_dataset, resolve_dataset
from .errors import (
    AllDivergentError,
    CmpError,
    DatasetParseError,
    EmptyDataError,
    ImproperPosteriorError,
    InvalidParamsError,
    ModeNotFoundError,
    NonpositiveDeterminantError,
    TruncationError,
    ZeroVarianceError,
)
from .mcmc import (
    Draws,
    McmcConfig,
    run_chains,
    split_rhat,
    summarize,
)
from .posterior import (
    SufficientStats,
    flat_posterior_propriety,
    log_likelihood,
    log_posterior,
    log_prior_density,
    sufficient_stats,
    updated_hyper,
)
from .priors import (
    Conjugate,
    ConjugateHyper,
    Flat,
    Jeffreys,
    PRESET_NAMES,
    conjugate_propriety,
    get_preset,
    jeffreys_information_det,
    preset_priors,
    propriety_bound,
)
from .rng import SeedSpec, chi_square_gof, dispersion_ratio, make_generator, sample_cmp
from .study import (
    CellResult,
    StudyConfig,
    StudySetting,
    load_study_config,
    parse_tables,
    render_tables,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "AllDivergentError",
    "CellResult",
    "CmpError",
    "CmpParams",
    "Conjugate",
    "ConjugateHyper",
    "DatasetParseError",
    "Draws",
    "EmptyDataError",
    "Flat",
    "ImproperPosteriorError",
    "InvalidParamsError",
    "Jeffreys",
    "McmcConfig",
    "ModeNotFoundError",
    "NonpositiveDeterminantError",
    "PRESET_NAMES",
    "SeedSpec",
    "StudyConfig",
    "StudySetting",
    "SufficientStats",
    "TruncationError",
    "TruncationPolicy",
    "ZeroVarianceError",
    "bundled_dataset",
    "chi_square_gof",
    "conjugate_propriety",
    "dispersion_ratio",
    "flat_posterior_propriety",
    "get_preset",
    "jeffreys_information_det",
    "load_dataset",
    "load_study_config",
    "log_likelihood",
    "log_normalizer",
    "log_pmf",
    "log_posterior",
    "log_prior_density",
    "logz_hessian",
    "make_generator",
    "moments",
    "parse_tables",
    "pmf_table",
    "preset_priors",
    "propriety_bound",
    "render_tables",
    "resolve_dataset",
    "run_chains",
    "run_study",
    "sample_cmp",
    "split_rhat",
    "sufficient_stats",
    "summarize",
    "updated_hyper",
]
