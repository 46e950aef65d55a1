import contextlib
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cmpbayes import (
    CmpParams,
    ConjugateHyper,
    DatasetParseError,
    EmptyDataError,
    McmcConfig,
    SeedSpec,
    TruncationPolicy,
    bundled_dataset,
    conjugate_propriety,
    core,
    get_preset,
    load_dataset,
    log_pmf,
    resolve_dataset,
    sufficient_stats,
)
from cmpbayes import mcmc
from cmpbayes.cli import FitReport, fit_command, main
from cmpbayes.datasets import DATA_DIR_ENV, parse_counts
from cmpbayes.mcmc import Draws, ModeSearch, ParamSummary, PosteriorSummary

# Ingestion-time sufficient statistics of the bundled data, frozen.
GOLDEN_STATS = {
    "textile-faults": (32, 284, 449.5456194998),
    "slovak-poem": (117, 336, 208.0958103507),
    "crab-satellites": (173, 505, 530.0344171432),
    "hungarian-words": (57459, 189872, 134792.9469472642),
}


class TestParsing:
    def test_format_a(self):
        d = parse_counts("2\n0\n", "t")
        assert d.counts.tolist() == [2, 0]

    def test_format_b_expansion(self):
        d = parse_counts("1\t5\n2\t3\n", "t")
        assert d.counts.tolist() == [1, 1, 1, 1, 1, 2, 2, 2]

    def test_comments_and_blanks(self):
        d = parse_counts("# header\n\n3\n# mid\n4\n", "t")
        assert d.counts.tolist() == [3, 4]

    def test_negative_value(self):
        with pytest.raises(DatasetParseError) as err:
            parse_counts("1\n-2\n", "t")
        assert err.value.line_number == 2

    def test_non_integer(self):
        with pytest.raises(DatasetParseError) as err:
            parse_counts("1\nx\n", "t")
        assert err.value.line_number == 2

    def test_mixed_columns(self):
        # a later line with another column count, and a first line with neither 1 nor 2
        for text, line in (("1\t2\n3\n", 2), ("# x\n1 2 3\n4\n", 2)):
            with pytest.raises(DatasetParseError, match="columns") as err:
                parse_counts(text, "t")
            assert err.value.line_number == line

    def test_zero_frequency(self):
        with pytest.raises(DatasetParseError):
            parse_counts("1\t0\n", "t")

    def test_empty(self):
        with pytest.raises(EmptyDataError):
            parse_counts("# nothing here\n", "t")


class TestBundled:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
    def test_golden_stats(self, name):
        n, s1, s2 = GOLDEN_STATS[name]
        stats = sufficient_stats(bundled_dataset(name).counts)
        assert stats.n == n
        assert stats.s1 == s1
        assert_allclose(stats.s2, s2, atol=1e-9)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            bundled_dataset("nope")

    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "textile_faults.txt").write_text("5\n5\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        d = bundled_dataset("textile-faults")
        assert d.counts.tolist() == [5, 5]

    def test_resolve(self, tmp_path):
        assert resolve_dataset("crab-satellites").n == 173
        path = tmp_path / "mine.txt"
        path.write_text("1\n2\n")
        assert resolve_dataset(str(path)).counts.tolist() == [1, 2]
        with pytest.raises(FileNotFoundError):
            resolve_dataset("no-such-thing")

    def test_load_dataset_name_is_stem(self, tmp_path):
        path = tmp_path / "mydata.txt"
        path.write_text("3\n")
        assert load_dataset(path).name == "mydata"


class TestCli:
    def test_check_prior_proper(self, capsys):
        assert main(["check-prior", "1", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "proper" in out
        assert "b/c = 1" in out and "> 0" in out

    def test_check_prior_data_based(self, capsys):
        assert main(["check-prior", "2", "0.693147", "2"]) == 0
        assert "proper" in capsys.readouterr().out

    def test_check_prior_improper(self, capsys):
        assert main(["check-prior", "3", "0.1", "1"]) == 1
        out = capsys.readouterr().out
        assert "improper" in out
        assert f"{math.log(6.0):.6f}"[:6] in out  # rhs = ln 3!

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3))
    def test_check_prior_exit_code_is_the_condition(self, a, b, c):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check-prior", repr(a), repr(b), repr(c)])
        assert code == (0 if conjugate_propriety(ConjugateHyper(a, b, c)) else 1)
        assert out.getvalue().startswith("proper" if code == 0 else "improper")

    def test_check_prior_invalid(self, capsys):
        assert main(["check-prior", "1", "0", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rand_reproducible(self, capsys):
        assert main(["rand", "--lam", "4", "--nu", "1", "--count", "12",
                     "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["rand", "--lam", "4", "--nu", "1", "--count", "12",
                     "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        values = [int(v) for v in first.split()]
        assert len(values) == 12
        assert all(v >= 0 for v in values)

    def test_pmf_sums_to_one(self, capsys):
        assert main(["pmf", "--lam", "4", "--nu", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,pmf"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert abs(total - 1.0) < 1e-6
        # the same rows as json, to the bit, stopping once the mass reaches 1 - 1e-9
        assert main(["pmf", "--lam", "4", "--nu", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["lambda"], doc["nu"]) == (4.0, 1.0)
        assert [(row["x"], repr(row["p"])) for row in doc["pmf"]] == \
            [(int(x), p) for x, p in (line.split(",") for line in lines[1:])]
        assert sum(row["p"] for row in doc["pmf"]) >= 1.0 - 1e-9

    def test_pmf_max_flag(self, capsys):
        assert main(["pmf", "--lam", "0.5", "--nu", "0", "--max", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    @pytest.mark.parametrize("value", ["-5", "-1"])
    def test_pmf_negative_max_refused(self, capsys, value):
        assert main(["pmf", "--lam", "4", "--nu", "1", "--max", value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --max must be >= 0, got {value}\n"

    @pytest.mark.parametrize("trunc", [[], ["--trunc-terms", "40"]], ids=["default", "40"])
    def test_pmf_max_past_the_grid(self, capsys, trunc):
        # the grid holds 39 (or 40) terms; rows past it still print
        assert main(["pmf", "--lam", "4", "--nu", "1", "--max", "150",
                     "--format", "csv", *trunc]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert [int(x) for x, _ in rows] == list(range(151))
        for x, p in rows:
            poisson = math.exp(int(x) * math.log(4.0) - 4.0 - math.lgamma(int(x) + 1.0))
            assert float(p) == pytest.approx(poisson, rel=1e-9)

    def test_pmf_rows_past_the_grid_sum_at_most_two_series(self, capsys, monkeypatch):
        series = core._series
        calls = []
        monkeypatch.setattr(core, "_series", lambda *args: calls.append(args) or series(*args))
        assert main(["pmf", "--lam", "4", "--nu", "1", "--max", "2000", "--format", "csv"]) == 0
        assert len(calls) <= 2
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert [int(x) for x, _ in rows] == list(range(2001))
        # every row, on the grid and past it, is exp of log_pmf's value, elementwise in numpy
        params = CmpParams(4.0, 1.0)
        log_p = np.array([log_pmf(int(x), params) for x, _ in rows])
        assert [float(p) for _, p in rows] == np.exp(log_p).tolist()

    # the warning needs more than 1% of the kept proposals: 80 of 8000 is not
    @pytest.mark.parametrize("divergences, warning", [((20, 20, 20, 20), False),
                                                      ((20, 20, 20, 21), True)])
    def test_divergence_warning_from_counts(self, divergences, warning):
        # the counts are split between truncation and overflow; the 500 proposals per
        # chain outside the support are rejections but not divergences
        truncation = np.array([10, 10, 10, 10])
        zeros = np.zeros(4, dtype=np.int64)
        rejections = {"outside_support": np.full(4, 500), "truncation": truncation,
                      "jeffreys_det": zeros, "overflow": np.array(divergences) - truncation}
        draws = Draws(lam=np.ones((4, 2000)), nu=np.ones((4, 2000)),
                      accept_rate=np.full(4, 0.3), rejections=rejections,
                      warmup_rejections={reason: zeros for reason in rejections},
                      pareto_k=0.5, proposal_centre=np.array([0.0, 1.0]),
                      proposal_cholesky=np.array([0.1, 0.0, 0.1]),
                      mode_search=ModeSearch(iterations=5, points=6, decrement=1e-21,
                                             on_floor=False),
                      weight_sup=2.0, start_is_heaviest=True)
        ps = ParamSummary(median=1.0, cri_low=0.5, cri_high=2.0, rhat=1.0)
        report = FitReport(
            dataset="d", n=10, prior="conj-1",
            summary=PosteriorSummary(lam=ps, nu=ps, n_kept=8000), draws=draws,
            config=McmcConfig(), policy=TruncationPolicy(), seed=SeedSpec(0))
        fit = report.to_dict()
        assert fit["divergences"] == list(divergences)
        assert fit["divergence_warning"] is warning
        text = report.to_text()
        assert f"divergent proposals: {sum(divergences)} / 8000\n" in text
        assert text.endswith("WARNING: more than 1% of proposals were divergent; "
                             "treat this posterior with suspicion\n") is warning

    def test_report_reads_its_draws(self):
        report, draws = fit_command(bundled_dataset("textile-faults"), "jeffreys",
                                    get_preset("jeffreys"),
                                    McmcConfig(chains=2, warmup=200, keep=200), SeedSpec(1))
        assert report.draws is draws
        fit = json.loads(report.to_json())
        assert fit == report.to_dict()  # every value is plain JSON
        assert fit["n_kept"] == draws.n_kept == 400
        assert fit["accept_rate"] == draws.accept_rate.tolist()
        for key in ("rejections", "warmup_rejections"):
            assert fit[key] == {reason: counts.tolist()
                                for reason, counts in getattr(draws, key).items()}
        assert fit["pareto_k"] == draws.pareto_k
        assert fit["proposal_centre"] == draws.proposal_centre.tolist()
        assert fit["proposal_cholesky"] == draws.proposal_cholesky.tolist()
        assert fit["mode_search"] == asdict(draws.mode_search)
        assert fit["weight_sup"] == draws.weight_sup
        assert fit["start_is_heaviest"] is draws.start_is_heaviest is True
        assert fit["warmup_tv_bound"] == (1.0 - 1.0 / draws.weight_sup) ** 200
        numerical = ("truncation", "jeffreys_det", "overflow")
        assert fit["divergences"] == draws.divergences.tolist() == [
            sum(fit["rejections"][reason][chain] for reason in numerical) for chain in (0, 1)]
        text = report.to_text()
        search = draws.mode_search
        assert (f"\nmode search: {search.iterations} Newton steps, {search.points} points, "
                f"decrement {search.decrement:.2g}\n") in text
        warmup = ", ".join(f"{reason} {counts.sum()}"
                           for reason, counts in draws.warmup_rejections.items())
        assert f"\nrejected warmup proposals: {warmup}\n" in text
        assert (f"\nwarmup TV bound estimate: {fit['warmup_tv_bound']:.2g} after 200 steps, "
                f"weight sup {draws.weight_sup:.3g}\n") in text

    @pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
    @pytest.mark.parametrize("name", ["textile-faults", "slovak-poem", "crab-satellites",
                                      "hungarian-words"])
    def test_default_warmup_bound_on_bundled_fits(self, name, prior):
        # every chain starts at the mode, the heaviest state, so it is stationary after
        # its first acceptance; at the default warmup the chance it has not accepted
        # is at most 6e-22 (crab-satellites, jeffreys: weight sup 4.6)
        report, _ = fit_command(bundled_dataset(name), prior, get_preset(prior), McmcConfig(),
                                SeedSpec(1))
        fit = report.to_dict()
        assert fit["config"]["warmup"] == 200
        assert 1.0 <= fit["weight_sup"] < 5.0
        assert fit["start_is_heaviest"] is True
        assert fit["warmup_tv_bound"] <= 1e-20

    def test_narrow_proposal_bound_not_trusted(self, monkeypatch):
        # a proposal of 0.3 times the Laplace scale has lighter tails than the posterior,
        # so ratios rise away from the mode, a proposal outweighs it, and the text report
        # says the bound estimate is not to be trusted
        args = (bundled_dataset("textile-faults"), "conj-1", get_preset("conj-1"),
                McmcConfig(chains=2, warmup=500, keep=300), SeedSpec(1))
        _, wide = fit_command(*args)
        monkeypatch.setattr(mcmc, "_SCALE", 0.3)
        report, draws = fit_command(*args)
        assert wide.start_is_heaviest is True
        assert draws.weight_sup > wide.weight_sup >= 1.0
        fit = report.to_dict()
        assert fit["start_is_heaviest"] is draws.start_is_heaviest is False
        assert fit["warmup_tv_bound"] == (1.0 - 1.0 / draws.weight_sup) ** 500
        assert (f"\nwarmup TV bound estimate: {fit['warmup_tv_bound']:.2g} after 500 steps, "
                f"weight sup {draws.weight_sup:.3g}; a proposal outweighs the mode, so "
                "weight sup may be far below sup pi/q and the bound estimate is not to be "
                "trusted\n") in report.to_text()

    def test_fit_json_reproducible(self, tmp_path, capsys):
        args = ["fit", "textile-faults", "--prior", "conj-1", "--chains", "2",
                "--warmup", "300", "--keep", "150", "--seed", "11",
                "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["dataset"] == "textile-faults"
        assert report["n"] == 32
        assert set(report["lambda"]) == {"median", "cri_low", "cri_high", "rhat"}
        # the fit's proposal: its centre (ln lambda, nu) and the lower Cholesky factor
        # (c00, c10, c11) of its scale, with a positive diagonal
        assert len(report["proposal_centre"]) == 2 and report["proposal_centre"][1] > 0.0
        c00, _, c11 = report["proposal_cholesky"]
        assert c00 > 0.0 and c11 > 0.0
        assert "step_size" not in report
        # per chain, the kept proposals rejected for each reason, and the Pareto k-hat
        assert set(report["rejections"]) == {"outside_support", "truncation", "jeffreys_det",
                                             "overflow"}
        assert all(len(counts) == 2 for counts in report["rejections"].values())
        assert report["pareto_k"] < 0.7
        # the same counts over the warmup proposals, and how the mode search ended
        assert set(report["warmup_rejections"]) == set(report["rejections"])
        assert all(len(counts) == 2 for counts in report["warmup_rejections"].values())
        search = report["mode_search"]
        assert set(search) == {"iterations", "points", "decrement", "on_floor"}
        assert 0 < search["iterations"] < search["points"] <= 6
        assert search["decrement"] <= 1e-20
        assert search["on_floor"] is False

    def test_fit_text_output(self, capsys):
        assert main(["fit", "textile-faults", "--chains", "2", "--warmup", "300",
                     "--keep", "150", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "dataset: textile-faults (n = 32)" in out
        assert "lambda" in out and "nu" in out
        assert "\nrejected warmup proposals: outside_support " in out
        assert "\nmode search: 3 Newton steps, 4 points, decrement " in out

    def test_fit_custom_hyper(self, capsys):
        assert main(["fit", "textile-faults", "--a", "2", "--b", "0.7", "--c", "2",
                     "--chains", "2", "--warmup", "300", "--keep", "150",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["prior"].startswith("conj(")

    def test_fit_custom_hyper_needs_all_three(self, capsys):
        assert main(["fit", "textile-faults", "--a", "2"]) == 2
        assert capsys.readouterr().err == "error: --a, --b, and --c must be given together\n"

    def test_fit_improper_posterior_exit_code(self, tmp_path, capsys):
        # the flat prior on counts of at most 1, and a conjugate posterior that fails the
        # condition: (a, b, c) = (5, 0.01, 1) on the one count 0 is (5, 0.01, 2)
        for counts, prior, refusal in (
                ("1\n1\n1\n1\n", ["--prior", "flat"],
                 "the posterior's (a, b, c) = (4.0, 0.0, 4.0) must all be positive"),
                ("0\n", ["--a", "5", "--b", "0.01", "--c", "1"],
                 f"b/c = 0.005 does not exceed {math.log(2.0) + 0.5 * math.log(3.0)!r}")):
            path = tmp_path / "counts.txt"
            path.write_text(counts)
            assert main(["fit", str(path), *prior, "--chains", "2",
                         "--warmup", "300", "--keep", "150"]) == 2
            assert capsys.readouterr().err.startswith(f"error: improper posterior: {refusal}")

    @pytest.mark.parametrize("prior", ["conj-1", "flat", "jeffreys"])
    def test_fit_without_a_mode_exit_code(self, tmp_path, capsys, prior):
        # counts near 10^6 put the posterior past e^709 in lambda, where no series
        # sums: the fit is refused by name instead of reporting stuck chains
        path = tmp_path / "huge.txt"
        path.write_text("1000000\n1000003\n999990\n")
        assert main(["fit", str(path), "--prior", prior]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: found no finite posterior mode")

    def test_crab_outside_support_is_no_divergence(self, capsys):
        # about half of crab-satellites' proposals fall below the nu floor, where its
        # posterior mode is: they are rejections outside the support, not divergences
        assert main(["fit", "crab-satellites", "--prior", "conj-1", "--seed", "1",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode_search"]["on_floor"] is True
        assert sum(report["rejections"]["outside_support"]) > 0.3 * report["n_kept"]
        config = report["config"]
        assert (sum(report["warmup_rejections"]["outside_support"])
                > 0.3 * config["chains"] * config["warmup"])
        assert report["divergences"] == [0, 0, 0, 0]
        assert report["divergence_warning"] is False

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_fit_unreadable_dataset_exit_code(self, tmp_path, capsys, kind):
        # neither a directory nor a file of undecodable bytes prints a traceback
        path = tmp_path / "counts"
        if kind == "directory":
            path.mkdir()
            reason = "is a directory"
        else:
            path.write_bytes("3\n4\n\xe9\n".encode("latin-1"))
            reason = "is not UTF-8 text (byte 4: invalid continuation byte)"
        assert main(["fit", str(path), "--prior", "conj-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {str(path)!r} {reason}")

    @pytest.mark.parametrize("text, what", [
        ("3\n1000000000000000000000000000000\n", "count value '1000000000000000000000000000000'"),
        ("3\t2\n4\t9223372036854775808\n", "frequency '9223372036854775808'"),
    ], ids=["value", "frequency"])
    def test_fit_count_past_int64_exit_code(self, tmp_path, capsys, text, what):
        # a count or frequency that int64 cannot hold is a parse error on its line, not an
        # OverflowError traceback
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main(["fit", str(path), "--prior", "conj-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 2: {what} exceeds 2^63 - 1\n"

    def test_fit_draws_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "draws.csv"
        assert main(["fit", "textile-faults", "--chains", "2", "--warmup", "300",
                     "--keep", "150", "--seed", "11",
                     "--draws-csv", str(out_csv)]) == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "chain,iter,lambda,nu"
        assert len(lines) == 1 + 2 * 150

    def test_study_csv(self, tmp_path, capsys):
        out_path = tmp_path / "cells.csv"
        assert main(["study", "--settings", "over:3:0.5", "--sizes", "20",
                     "--replicates", "2", "--priors", "conj-1",
                     "--chains", "2", "--warmup", "300", "--keep", "150",
                     "--seed", "1", "--format", "csv", "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "setting,parameter,n,prior,bias,mse,coverage,n_failed"
        assert len(lines) == 3  # lambda and nu rows

    @pytest.mark.parametrize("argv", [
        ["fit", "textile-faults", "--chains", "2", "--warmup", "200", "--keep", "200",
         "--out"],
        ["fit", "textile-faults", "--chains", "2", "--warmup", "200", "--keep", "200",
         "--draws-csv"],
        ["pmf", "--lam", "4", "--nu", "1", "--out"],
        ["study", "--settings", "equi:3:1", "--sizes", "20", "--replicates", "1",
         "--priors", "conj-1", "--chains", "2", "--warmup", "200", "--keep", "100",
         "--progress"],
    ], ids=["fit-out", "fit-draws-csv", "pmf-out", "study-progress"])
    def test_directory_path_exit_code(self, tmp_path, capsys, argv):
        # a directory where a file is to be written is an error line, not a traceback
        assert main([*argv, str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_rand_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "draws.txt"
        assert main(["rand", "--lam", "3", "--nu", "0.5", "--count", "5",
                     "--seed", "2", "--out", str(out_path)]) == 0
        assert len(out_path.read_text().split()) == 5
