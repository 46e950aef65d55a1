"""Command-line interface: fit, study, rand, check-prior, and pmf subcommands.

Every subcommand that consumes randomness takes --seed (and --stream), and a
run with the same arguments reproduces its output byte for byte. JSON is the
machine format; text output is meant for eyeballing. A fit's JSON report is
mcmc.fit_record's dict of its results and diagnostics, plus the keys that name
its input. A path that cannot be read or written exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import CmpParams, DEFAULT_POLICY, TruncationPolicy, _log_terms, log_normalizer, pmf_table
from .datasets import CountDataset, resolve_dataset
from .errors import CmpError, ImproperPosteriorError
from .mcmc import (DIVERGENCE_WARN_FRACTION, Draws, McmcConfig, PosteriorSummary, fit_record,
                   run_chains, summarize)
from .posterior import sufficient_stats
from .priors import (
    Conjugate,
    ConjugateHyper,
    PRESET_NAMES,
    PriorSpec,
    conjugate_propriety,
    get_preset,
    propriety_bound,
)
from .rng import SeedSpec, sample_cmp
from .study import (
    OVERRIDE_KEYS,
    StudyConfig,
    load_study_config,
    render_tables,
    run_study,
    with_overrides,
)


@dataclass(frozen=True)
class FitReport:
    """Everything needed to reproduce and read one fit; mcmc.fit_record reads its Draws."""

    dataset: str
    n: int
    prior: str
    summary: PosteriorSummary
    draws: Draws
    config: McmcConfig
    policy: TruncationPolicy
    seed: SeedSpec

    def to_dict(self) -> dict:
        inputs = {"dataset": self.dataset, "n": self.n, "prior": self.prior,
                  "config": asdict(self.config), "truncation": asdict(self.policy),
                  "seed": asdict(self.seed)}
        return inputs | fit_record(self.draws, self.summary, self.config.warmup)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        draws, fit = self.draws, self.to_dict()
        lines = [
            f"dataset: {self.dataset} (n = {self.n})",
            f"prior: {self.prior}",
            f"seed: master={self.seed.master_seed} stream={self.seed.stream_id}",
            f"{'parameter':<11}{'median':>9}  {'95% CrI':<22}{'Rhat':>7}",
        ]
        for name, ps in (("lambda", self.summary.lam), ("nu", self.summary.nu)):
            cri = f"({ps.cri_low:.3f}, {ps.cri_high:.3f})"
            lines.append(f"{name:<11}{ps.median:>9.3f}  {cri:<22}{ps.rhat:>7.3f}")
        lines.append(
            "acceptance per chain: " + " ".join(f"{a:.2f}" for a in draws.accept_rate)
        )
        for phase, counts_by_reason in (("", draws.rejections),
                                        ("warmup ", draws.warmup_rejections)):
            lines.append(f"rejected {phase}proposals: " + ", ".join(
                f"{reason} {counts.sum()}" for reason, counts in counts_by_reason.items()))
        search = draws.mode_search
        lines.append(f"mode search: {search.iterations} Newton steps, {search.points} points, "
                     f"decrement {search.decrement:.2g}"
                     + (", on the boundary nu = 0" if search.on_boundary else ""))
        lines.append(f"Pareto k-hat of the proposal: {draws.pareto_k:.2f}")
        lines.append(f"warmup TV bound estimate: {fit['warmup_tv_bound']:.2g} after "
                     f"{self.config.warmup} steps, weight sup {draws.weight_sup:.3g}"
                     + ("" if draws.start_is_heaviest else
                        "; a proposal outweighs the mode, so weight sup may be far below "
                        "sup pi/q and the bound estimate is not to be trusted"))
        lines.append(f"divergent proposals: {draws.divergences.sum()} / {self.summary.n_kept}")
        if fit["divergence_warning"]:
            lines.append(
                f"WARNING: more than {DIVERGENCE_WARN_FRACTION:.0%} of proposals were "
                "divergent; treat this posterior with suspicion"
            )
        return "\n".join(lines) + "\n"


def fit_command(
    dataset: CountDataset,
    prior_name: str,
    spec: PriorSpec,
    config: McmcConfig,
    seed: SeedSpec,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[FitReport, Draws]:
    """sufficient_stats -> run_chains -> summarize, packaged as a FitReport."""
    draws = run_chains(spec, sufficient_stats(dataset.counts), config, seed, policy)
    return FitReport(dataset.name, dataset.n, prior_name, summarize(draws), draws,
                     config, policy, seed), draws


def check_prior_text(a: float, b: float, c: float) -> tuple[str, bool]:
    """Verdict text plus the boolean verdict for hyperparameters (a, b, c)."""
    hyper = ConjugateHyper(a, b, c)
    lhs, rhs = propriety_bound(hyper)
    proper = conjugate_propriety(hyper)
    word = "proper" if proper else "improper"
    cmp_sym = ">" if proper else "<="
    text = (
        f"{word}: b/c = {lhs:.10g} {cmp_sym} {rhs:.10g} = "
        f"ln(floor(a/c)!) + (a/c - floor(a/c)) * ln(floor(a/c) + 1)\n"
    )
    return text, proper


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def config_from_args(args) -> StudyConfig:
    """Flags given, over the --config file or the defaults; every command merges here."""
    config = load_study_config(args.config) if getattr(args, "config", None) else StudyConfig()
    return with_overrides(config, {key: getattr(args, key) for key in OVERRIDE_KEYS
                                   if getattr(args, key, None) is not None})


def _add_common_mcmc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chains", type=int, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--keep", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trunc-terms", type=int, default=None,
                   help="shortest series grid, and the first of the lengths, each "
                        "2^(1/4) times the last, that grids are sized to (default 16)")
    p.add_argument("--tail-tol", type=float, default=None,
                   help="relative tail tolerance for the series (default 1e-10)")


def _cmd_fit(args) -> int:
    dataset = resolve_dataset(args.dataset)
    if args.a is not None or args.b is not None or args.c is not None:
        if None in (args.a, args.b, args.c):
            raise CmpError("--a, --b, and --c must be given together")
        prior_name = f"conj({args.a},{args.b},{args.c})"
        spec: PriorSpec = Conjugate(ConjugateHyper(args.a, args.b, args.c))
    else:
        prior_name = args.prior
        spec = get_preset(args.prior)
    config = config_from_args(args)
    report, draws = fit_command(dataset, prior_name, spec, config.mcmc,
                                SeedSpec(args.seed, args.stream), config.policy)
    if args.format == "json":
        _write_output(report.to_json(), args.out)
    else:
        _write_output(report.to_text(), args.out)
    if args.draws_csv:
        with open(args.draws_csv, "w") as fh:
            draws.to_csv(fh)
    return 0


def _cmd_study(args) -> int:
    results = run_study(config_from_args(args), progress_path=args.progress,
                        workers=args.workers)
    _write_output(render_tables(results, args.format), args.out)
    return 0


def _cmd_rand(args) -> int:
    params = CmpParams(args.lam, args.nu)
    draws = sample_cmp(params, args.count, SeedSpec(args.seed, args.stream),
                       config_from_args(args).policy)
    _write_output("".join(f"{int(x)}\n" for x in draws), args.out)
    return 0


def _cmd_check_prior(args) -> int:
    text, proper = check_prior_text(args.a, args.b, args.c)
    sys.stdout.write(text)
    return 0 if proper else 1


def _cmd_pmf(args) -> int:
    if args.max is not None and args.max < 0:
        raise CmpError(f"--max must be >= 0, got {args.max}")
    params = CmpParams(args.lam, args.nu)
    policy = config_from_args(args).policy
    if args.max is None:
        # default: stop once cumulative mass reaches 1 - 1e-9
        table = pmf_table(params, policy)
        upto = min(int(np.searchsorted(np.cumsum(table), 1.0 - 1e-9)) + 1, table.size)
    else:
        upto = args.max + 1
    # every row is pmf_table's formula, exp(t_x - ln Z), on and past the truncation grid
    log_p = _log_terms(math.log(params.lam), params.nu, np.arange(upto))
    rows = list(enumerate(np.exp(log_p - log_normalizer(params, policy)).tolist()))
    if args.format == "json":
        text = json.dumps(
            {"lambda": args.lam, "nu": args.nu,
             "pmf": [{"x": x, "p": p} for x, p in rows]},
            sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = "x,pmf\n" + "".join(f"{x},{p!r}\n" for x, p in rows)
    else:
        text = "".join(f"{x:>6}  {p:.10f}\n" for x, p in rows)
    _write_output(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmpbayes",
        description="Bayesian inference for CMP count data under six reference priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one dataset under one prior")
    p_fit.add_argument("dataset", help="bundled dataset name or path to a count file")
    p_fit.add_argument("--prior", choices=PRESET_NAMES, default="conj-1")
    p_fit.add_argument("--a", type=float, default=None,
                       help="custom conjugate hyperparameter a (with --b, --c)")
    p_fit.add_argument("--b", type=float, default=None)
    p_fit.add_argument("--c", type=float, default=None)
    _add_common_mcmc_flags(p_fit)
    p_fit.add_argument("--stream", type=int, default=0)
    _add_policy_flags(p_fit)
    p_fit.add_argument("--format", choices=("json", "text"), default="text")
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--draws-csv", default=None,
                       help="also dump raw draws as CSV (chain,iter,lambda,nu)")
    p_fit.set_defaults(func=_cmd_fit)

    p_study = sub.add_parser("study", help="bias/MSE/coverage simulation study")
    p_study.add_argument("--config", default=None, help="key-value config file")
    p_study.add_argument("--settings", default=None,
                         help="comma list of name:lambda:nu (default equi,over,under)")
    p_study.add_argument("--sizes", default=None, help="comma list (default 25,75,125)")
    p_study.add_argument("--replicates", type=int, default=None, help="default 100")
    p_study.add_argument("--priors", default=None,
                         help=f"comma list (default {','.join(PRESET_NAMES)})")
    _add_common_mcmc_flags(p_study)
    _add_policy_flags(p_study)
    p_study.add_argument("--workers", type=int, default=1)
    p_study.add_argument("--progress", default=None,
                         help="JSONL file of replicate records; enables resume")
    p_study.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(func=_cmd_study, seed=None)  # None keeps the --config seed

    p_rand = sub.add_parser("rand", help="draw CMP variates, one per line")
    p_rand.add_argument("--lam", type=float, required=True)
    p_rand.add_argument("--nu", type=float, required=True)
    p_rand.add_argument("--count", type=int, default=10)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--stream", type=int, default=0)
    _add_policy_flags(p_rand)
    p_rand.add_argument("--out", default=None)
    p_rand.set_defaults(func=_cmd_rand)

    p_check = sub.add_parser("check-prior",
                             help="conjugate-prior propriety verdict for (a, b, c)")
    p_check.add_argument("a", type=float)
    p_check.add_argument("b", type=float)
    p_check.add_argument("c", type=float)
    p_check.set_defaults(func=_cmd_check_prior)

    p_pmf = sub.add_parser("pmf", help="tabulate the probability mass function")
    p_pmf.add_argument("--lam", type=float, required=True)
    p_pmf.add_argument("--nu", type=float, required=True)
    p_pmf.add_argument("--max", type=int, default=None, help="largest x to print")
    _add_policy_flags(p_pmf)
    p_pmf.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_pmf.add_argument("--out", default=None)
    p_pmf.set_defaults(func=_cmd_pmf)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one plain line, in the style of the error lines."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except ImproperPosteriorError as exc:
            print(f"error: improper posterior: {exc}", file=sys.stderr)
            return 2
        except (CmpError, OSError, KeyError) as exc:
            # a KeyError's str() is its message in quotes
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
