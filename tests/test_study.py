import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cmpbayes
from cmpbayes import (
    CellResult,
    CmpParams,
    InvalidParamsError,
    McmcConfig,
    SeedSpec,
    StudyConfig,
    StudySetting,
    get_preset,
    load_study_config,
    parse_tables,
    render_tables,
    run_study,
    sample_cmp,
    sufficient_stats,
)
from cmpbayes import mcmc, study
from cmpbayes.cli import build_parser, config_from_args, fit_command, main
from cmpbayes.datasets import CountDataset
from cmpbayes.errors import ImproperPosteriorError, ZeroVarianceError
from cmpbayes.posterior import check_propriety

FAST_MCMC = McmcConfig(chains=2, warmup=400, keep=200)


# a study record's keys besides mcmc.fit_record's, and a fit report's
STUDY_KEYS = {"setting", "n", "replicate", "prior", "made_by", "failed"}
INPUT_KEYS = {"dataset", "n", "prior", "config", "truncation", "seed"}


def small_config(**kwargs):
    defaults = dict(
        settings=(StudySetting("over", 3.0, 0.5),),
        sample_sizes=(25,),
        replicates=2,
        mcmc=FAST_MCMC,
        priors=("conj-1", "flat"),
        master_seed=3,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestConfig:
    def test_defaults_encode_study(self):
        c = StudyConfig()
        assert [(s.name, s.lam, s.nu) for s in c.settings] == [
            ("equi", 4.0, 1.0), ("over", 3.0, 0.5), ("under", 3.0, 2.0)]
        assert c.sample_sizes == (25, 75, 125)
        assert c.replicates == 100
        assert len(c.priors) == 6

    def test_cli_unknown_prior_message_unquoted(self, capsys):
        # a KeyError's message is printed as it is, not in the quotes of its str()
        assert main(["study", "--priors", "conj-1,nope"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown prior preset 'nope'; choose from "
            f"{', '.join(study.PRESET_NAMES)}\n")

    def test_unknown_prior_rejected(self):
        with pytest.raises(KeyError):
            StudyConfig(priors=("conj-1", "bogus"))

    def test_replicates_validation(self):
        with pytest.raises(InvalidParamsError):
            StudyConfig(replicates=0)

    # one past each bound that keeps every fit's seed stream apart
    @pytest.mark.parametrize("kwargs, message", [
        (dict(settings=tuple(StudySetting(f"s{i}", 3.0, 0.5) for i in range(65))),
         "at most 64 settings and sample sizes"),
        (dict(sample_sizes=tuple(range(1, 66))), "at most 64 settings and sample sizes"),
        (dict(replicates=2**20 + 1), f"at most {2**20} replicates"),
        (dict(priors=("conj-1",) * 16), "at most 15 priors"),
    ])
    def test_stream_bounds_rejected(self, kwargs, message):
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            StudyConfig(**kwargs)

    @pytest.mark.parametrize("axis, values, repeated", [
        # two settings named "over" would share records and be scored alike
        ("settings", (StudySetting("over", 3.0, 0.5), StudySetting("over", 9.0, 0.5)), "'over'"),
        ("sample_sizes", (25, 75, 25), "25"),
        ("priors", ("conj-1", "flat", "conj-1"), "'conj-1'"),
    ], ids=["settings", "sizes", "priors"])
    def test_repeated_axis_rejected(self, axis, values, repeated):
        with pytest.raises(InvalidParamsError, match=f"repeated .* {repeated}"):
            small_config(**{axis: values})


    # (lambda, nu) outside the CMP domain, or a sample size below 1, must stop a
    # study when its config is built, not after the fits of earlier settings
    BAD_SETTINGS = [(-1.0, 0.5), (0.0, 0.5), (3.0, -0.5), (1.0, 0.0), (3.0, 0.0)]
    BAD_SIZES = [0, -5]

    @pytest.mark.parametrize("lam, nu", BAD_SETTINGS)
    def test_setting_outside_domain_rejected(self, lam, nu):
        with pytest.raises(InvalidParamsError):
            small_config(settings=(StudySetting("over", 3.0, 0.5), StudySetting("bad", lam, nu)))

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_size_below_one_rejected(self, size):
        with pytest.raises(InvalidParamsError, match="sample sizes must be >= 1"):
            small_config(sample_sizes=(25, size))

    @pytest.mark.parametrize("flags", [
        *[["--settings", f"over:3:0.5,bad:{lam}:{nu}", "--sizes", "25"] for lam, nu in BAD_SETTINGS],
        *[["--settings", "over:3:0.5", "--sizes", f"25,{size}"] for size in BAD_SIZES],
        ["--settings", "over:3:0.5", "--sizes", "25", "--workers", "0"],
        ["--settings", "over:3:0.5", "--sizes", "25", "--workers", "-3"],
    ])
    def test_cli_rejects_before_any_fit(self, tmp_path, capsys, flags):
        progress = tmp_path / "progress.jsonl"
        argv = ["study", *flags, "--replicates", "1", "--priors", "flat", "--chains", "2",
                "--warmup", "200", "--keep", "100", "--progress", str(progress)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not progress.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_the_stream_range_rejected(self, seed):
        with pytest.raises(InvalidParamsError, match="master_seed must be"):
            small_config(master_seed=seed)

    def test_cli_rejects_a_bad_seed_before_the_progress_file(self, tmp_path, capsys):
        # the seed is checked when the config is built, so no empty progress file is left
        progress = tmp_path / "p.jsonl"
        assert main(["study", "--seed", "-1", "--progress", str(progress)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "master_seed" in err
        assert not progress.exists()

    # both pass the CMP domain check, but neither series sums within MAX_TERMS;
    # geo:0.9999:0 reaches the cap only by doubling its grid
    @pytest.mark.parametrize("bad", ["bad:2:0.01", "geo:0.9999:0"])
    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_unsummable_setting_exits_2_before_any_fit(self, tmp_path, capsys, source, bad):
        settings = f"over:3:0.5,{bad}"
        progress = tmp_path / "progress.jsonl"
        argv = ["study", "--sizes", "25", "--replicates", "1", "--priors", "flat",
                "--progress", str(progress)]
        if source == "flags":
            argv += ["--settings", settings]
        else:
            path = tmp_path / "study.cfg"
            path.write_text(f"settings = {settings}\n")
            argv += ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not converge" in err
        assert not progress.exists()


class TestRunStudy:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InvalidParamsError, match="workers must be >= 1"):
            run_study(small_config(), workers=workers)

    def test_single_replicate_identities(self):
        cfg = small_config(replicates=1, priors=("conj-1",))
        results = run_study(cfg)
        for r in results:
            assert r.n_failed == 0
            assert r.mse == pytest.approx(r.bias**2, rel=1e-12)
            assert r.coverage in (0.0, 1.0)

    def test_bit_reproducible(self):
        cfg = small_config()
        assert run_study(cfg) == run_study(cfg)

    def test_workers_do_not_change_output(self):
        cfg = small_config()
        assert run_study(cfg) == run_study(cfg, workers=2)

    def test_resume_matches_fresh(self, tmp_path):
        cfg = small_config()
        fresh = run_study(cfg)
        progress = tmp_path / "progress.jsonl"
        partial_cfg = small_config(priors=("conj-1",))
        run_study(partial_cfg, progress_path=str(progress))
        resumed = run_study(cfg, progress_path=str(progress))
        assert resumed == fresh

    def test_mse_dominates_bias_squared(self):
        cfg = small_config(replicates=3)
        for r in run_study(cfg):
            assert r.mse >= r.bias**2 - 1e-12
            assert 0.0 <= r.coverage <= 1.0

    def test_failed_fits_counted(self, tmp_path):
        # tiny Poisson rate at n=5 makes counts above 1 vanishingly rare, so
        # the flat posterior is improper and the fit is refused per replicate
        cfg = small_config(
            settings=(StudySetting("sparse", 0.05, 1.0),),
            sample_sizes=(5,),
            replicates=3,
            priors=("flat",),
        )
        progress = tmp_path / "progress.jsonl"
        results = run_study(cfg, progress_path=str(progress))
        assert all(r.n_failed == 3 for r in results)
        assert all(r.bias is None and r.mse is None and r.coverage is None
                   for r in results)
        # each record keeps the refusal: its class and check_propriety's message
        records = [json.loads(line) for line in progress.read_text().splitlines()]
        assert [rec["replicate"] for rec in records] == [0, 1, 2]
        for rec in records:
            data = sample_cmp(CmpParams(0.05, 1.0), 5,
                              SeedSpec(3, study._stream_id(0, 0, rec["replicate"], 0)))
            with pytest.raises(ImproperPosteriorError) as refusal:
                check_propriety(get_preset("flat"), sufficient_stats(data))
            assert rec["failed"] is True
            assert rec["reason"] == "ImproperPosteriorError"
            assert rec["message"] == str(refusal.value)
            assert set(rec) == STUDY_KEYS | {"reason", "message"}

    def test_record_is_the_fit_record(self, tmp_path):
        # a fit's study record less its study keys is the fit report less its input keys,
        # for the same counts at the record's (seed, stream)
        cfg = small_config(replicates=1, priors=("jeffreys",))
        progress = tmp_path / "progress.jsonl"
        run_study(cfg, progress_path=str(progress))
        (line,) = progress.read_text().splitlines()
        rec = json.loads(line)
        assert rec["failed"] is False
        made_by = rec["made_by"]
        data = sample_cmp(CmpParams(3.0, 0.5), 25,
                          SeedSpec(made_by["seed"], study._stream_id(0, 0, 0, 0)))
        report, _ = fit_command(CountDataset("over", data), "jeffreys", get_preset("jeffreys"),
                                cfg.mcmc, SeedSpec(made_by["seed"], made_by["stream"]),
                                cfg.policy)
        assert {k: v for k, v in rec.items() if k not in STUDY_KEYS} == {
            k: v for k, v in report.to_dict().items() if k not in INPUT_KEYS}


class TestCoverageAtLargeN:
    def test_conj1_coverage_near_nominal(self):
        # 100 replicates x 3 settings at n=125; the slowest test in the suite
        cfg = StudyConfig(sample_sizes=(125,), replicates=100,
                          priors=("conj-1",), master_seed=17)
        results = run_study(cfg, workers=4)
        for r in results:
            assert 0.88 <= r.coverage <= 1.0, r


class TestRenderTables:
    def sample_results(self):
        return [
            CellResult("over", 25, "conj-1", "lambda", 0.1, 0.2, 0.95, 0),
            CellResult("over", 25, "conj-1", "nu", -0.01, 0.004, 0.92, 0),
            CellResult("over", 25, "flat", "lambda", 0.3, 0.5, 0.88, 1),
            CellResult("over", 25, "flat", "nu", 0.02, 0.006, 0.90, 1),
            CellResult("under", 25, "conj-1", "lambda", None, None, None, 2),
            CellResult("under", 25, "conj-1", "nu", None, None, None, 2),
        ]

    def test_csv_round_trip(self):
        results = self.sample_results()
        rendered = render_tables(results, "csv")
        parsed = parse_tables(rendered, "csv")
        expected = sorted(results, key=lambda r: (r.setting, r.parameter, r.n, r.prior))
        assert parsed == expected

    def test_json_round_trip(self):
        results = self.sample_results()
        parsed = parse_tables(render_tables(results, "json"), "json")
        expected = sorted(results, key=lambda r: (r.setting, r.parameter, r.n, r.prior))
        assert parsed == expected

    def test_text_shape(self):
        text = render_tables(self.sample_results(), "text")
        assert "MSE" in text and "COVERAGE" in text and "BIAS" in text
        # one row per (setting, parameter, n); one column per prior
        mse_block = text.split("\n\n")[1].splitlines()
        header = mse_block[1]
        assert "conj-1" in header and "flat" in header
        data_rows = mse_block[3:]
        assert len(data_rows) == 4  # (over|under) x (lambda|nu) at n=25

    def test_all_failed_cell_renders_dash(self):
        text = render_tables(self.sample_results(), "text")
        assert "-- (2 failed)" in text

    def test_text_tables_print_under_an_ascii_locale(self, tmp_path):
        # under the C locale, without UTF-8 mode, stdout encodes ASCII only; every flat fit
        # of these three small counts is improper, so its cells print the failure marker
        env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
        src = str(Path(cmpbayes.__file__).resolve().parents[1])
        env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from cmpbayes.cli import main; sys.exit(main())",
             "study", "--format", "text", "--settings", "under:0.3:3", "--sizes", "3",
             "--replicates", "2", "--priors", "flat,conj-1", "--chains", "2",
             "--warmup", "50", "--keep", "100"],
            cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert done.stdout.decode("ascii").count("-- (2 failed)") == 6

    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError):
            render_tables([], "csv")

    def test_unknown_format(self):
        with pytest.raises(InvalidParamsError):
            render_tables(self.sample_results(), "xml")
        with pytest.raises(InvalidParamsError, match="cannot parse format 'text'"):
            parse_tables(render_tables(self.sample_results(), "text"), "text")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# desk-scale check\n"
            "settings = over:3:0.5, under:3:2\n"
            "sizes = 25, 75\n"
            "replicates = 4\n"
            "priors = conj-1, jeffreys\n"
            "seed = 99\n"
            "chains = 2\n"
            "warmup = 300\n"
            "keep = 150\n"
            "trunc_terms = 128\n"
        )
        cfg = load_study_config(str(path))
        assert [s.name for s in cfg.settings] == ["over", "under"]
        assert cfg.settings[1].nu == 2.0
        assert cfg.sample_sizes == (25, 75)
        assert cfg.replicates == 4
        assert cfg.priors == ("conj-1", "jeffreys")
        assert cfg.master_seed == 99
        assert (cfg.mcmc.chains, cfg.mcmc.warmup, cfg.mcmc.keep) == (2, 300, 150)
        assert cfg.policy.base_terms == 128

    FILE_TEXT = (
        "settings = over:3:0.5, under:3:2\n"
        "sizes = 25, 75\n"
        "replicates = 4\n"
        "priors = conj-1, jeffreys\n"
        "seed = 99\n"
        "chains = 2\n"
        "warmup = 300\n"
        "keep = 150\n"
        "trunc_terms = 128\n"
        "tail_tol = 1e-12\n"
    )

    def test_cli_flags_match_config_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(self.FILE_TEXT)
        args = build_parser().parse_args([
            "study", "--settings", "over:3:0.5, under:3:2", "--sizes", "25, 75",
            "--replicates", "4", "--priors", "conj-1, jeffreys", "--seed", "99",
            "--chains", "2", "--warmup", "300", "--keep", "150",
            "--trunc-terms", "128", "--tail-tol", "1e-12",
        ])
        from_flags = config_from_args(args)
        assert [s.name for s in from_flags.settings] == ["over", "under"]
        assert from_flags == load_study_config(str(path))

    def test_flags_override_single_fields_of_config_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(self.FILE_TEXT)
        from_file = load_study_config(str(path))
        args = build_parser().parse_args(
            ["study", "--config", str(path), "--replicates", "7", "--tail-tol", "1e-9"])
        # seed and trunc_terms come from the file; only the given flags change
        assert config_from_args(args) == replace(
            from_file, replicates=7, policy=replace(from_file.policy, tail_tol=1e-9))

    def test_bad_line(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("replicates 4\n")
        with pytest.raises(InvalidParamsError):
            load_study_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("replicate = 4\n")
        with pytest.raises(InvalidParamsError, match="'replicate'.*settings, sizes, replicates"):
            load_study_config(str(path))

    @pytest.mark.parametrize("key, value, bad", [
        ("settings", "over:3", "'over:3'"),
        ("sizes", "25,x", "'x'"),
    ])
    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, source, key, value, bad):
        if source == "flags":
            argv = ["study", f"--{key}", value]
        else:
            path = tmp_path / "study.cfg"
            path.write_text(f"{key} = {value}\n")
            argv = ["study", "--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {key}: cannot read {bad}\n"


class TestProgressFile:
    def run_to_file(self, cfg, tmp_path):
        progress = tmp_path / "progress.jsonl"
        run_study(cfg, progress_path=str(progress))
        return progress, progress.read_text().splitlines(keepends=True)

    def test_torn_final_line_dropped_with_warning(self, tmp_path):
        cfg = small_config()
        progress, lines = self.run_to_file(cfg, tmp_path)
        progress.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with pytest.warns(UserWarning, match="torn final line"):
            resumed = run_study(cfg, progress_path=str(progress))
        assert resumed == run_study(cfg)
        # the torn bytes were cut, so the appended record parses on a later resume
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_study(cfg, progress_path=str(progress)) == resumed
        assert len(progress.read_text().splitlines()) == len(lines)

    def test_cli_reports_torn_line_as_one_plain_line(self, tmp_path, capsys):
        progress = tmp_path / "progress.jsonl"
        argv = ["study", "--settings", "over:3:0.5", "--sizes", "25", "--replicates", "2",
                "--priors", "conj-1,flat", "--chains", "2", "--warmup", "200", "--keep", "100",
                "--seed", "3", "--progress", str(progress), "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert first.err == ""
        lines = progress.read_text().splitlines(keepends=True)
        progress.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        assert main(argv) == 0
        resumed = capsys.readouterr()
        assert resumed.err == f"warning: {progress}: dropping torn final line {len(lines)}\n"
        assert resumed.out == first.out

    def test_final_line_missing_newline_is_kept(self, tmp_path):
        cfg = small_config()
        progress, lines = self.run_to_file(small_config(priors=("conj-1",)), tmp_path)
        progress.write_text("".join(lines).rstrip("\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = run_study(cfg, progress_path=str(progress))
            assert resumed == run_study(cfg)
            assert run_study(cfg, progress_path=str(progress)) == resumed
        assert len(progress.read_text().splitlines()) == 2 * len(lines)

    def test_blank_lines_are_skipped(self, tmp_path):
        cfg = small_config()
        progress, lines = self.run_to_file(cfg, tmp_path)
        progress.write_text("\n" + "\n \n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_study(cfg, progress_path=str(progress)) == run_study(cfg)

    def test_corrupt_middle_line_raises(self, tmp_path):
        cfg = small_config()
        progress, lines = self.run_to_file(cfg, tmp_path)
        lines[1] = lines[1][:10] + "\n"
        progress.write_text("".join(lines))
        with pytest.raises(InvalidParamsError, match=re.escape(f"{progress}:2: unparsable")):
            run_study(cfg, progress_path=str(progress))

    @pytest.mark.parametrize("bad, why", [
        ("[1, 2]", "not a fit record"),  # JSON, but not an object
        ('"over"', "not a fit record"),
        ('{"setting": "over", "n": 25}', "not a fit record"),  # no replicate or prior
        ('{"setting": ["over"], "n": 25, "replicate": 0, "prior": "flat"}', "not a fit record"),
        ("{not json", "unparsable line"),  # before the last line, so not a torn one
    ])
    def test_malformed_line_exits_2(self, tmp_path, capsys, bad, why):
        progress = tmp_path / "p.jsonl"
        argv = ["study", "--settings", "over:3:0.5", "--sizes", "25", "--replicates", "1",
                "--priors", "conj-1", "--chains", "2", "--warmup", "200", "--keep", "100",
                "--seed", "3", "--progress", str(progress), "--format", "csv"]
        assert main(argv) == 0
        capsys.readouterr()
        line = progress.read_text()
        progress.write_text(f"{line}{bad}\n{line}")
        before = progress.read_bytes()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {progress}:2: {why}") and err.count("\n") == 1
        assert progress.read_bytes() == before


OVER, UNDER = StudySetting("over", 3.0, 0.5), StudySetting("under", 3.0, 2.0)


class TestWarmupBound:
    """The default warmup of 200 steps against each fit's convergence bound estimate."""

    @pytest.mark.parametrize("settings, sizes, replicates, priors, seed", [
        # the benchmark's study cell: both settings and sizes, all six priors
        ((OVER, UNDER), (25, 75), 2, study.PRESET_NAMES, 1),
        # acceptance criterion 6's two cells
        ((OVER,), (75,), 25, ("conj-1",), 0),
        ((UNDER,), (25,), 25, ("jeffreys",), 0),
    ])
    def test_records_hold_the_bound(self, tmp_path, settings, sizes, replicates, priors, seed):
        # every record's mode outweighs its proposals and (1 - 1/weight_sup)^200 <= 1e-20
        cfg = StudyConfig(settings=settings, sample_sizes=sizes, replicates=replicates,
                          priors=priors, master_seed=seed)
        assert cfg.mcmc == McmcConfig() and cfg.mcmc.warmup == 200
        progress = tmp_path / "progress.jsonl"
        run_study(cfg, progress_path=str(progress))
        records = [json.loads(line) for line in progress.read_text().splitlines()]
        assert len(records) == len(settings) * len(sizes) * replicates * len(priors)
        for rec in records:
            assert rec["failed"] is False
            assert rec["start_is_heaviest"] is True
            assert 1.0 <= rec["weight_sup"] and (1.0 - 1.0 / rec["weight_sup"]) ** 200 <= 1e-20


class TestResume:
    """Resume reuses only records made under the same config."""

    def test_resume_after_more_replicates_matches_fresh(self, tmp_path):
        progress = tmp_path / "progress.jsonl"
        run_study(small_config(replicates=1, priors=("conj-1",)), progress_path=str(progress))
        assert run_study(small_config(), progress_path=str(progress)) == run_study(small_config())

    @pytest.mark.parametrize("first, second", [
        ({"priors": ("flat",)}, {"priors": ("conj-1", "flat")}),  # flat's stream moves
        ({"master_seed": 3}, {"master_seed": 5}),
        ({"settings": (StudySetting("over", 3.0, 0.5),)},
         {"settings": (StudySetting("over", 9.0, 0.5),)}),
        ({}, {"mcmc": replace(FAST_MCMC, keep=150)}),
        ({}, {"policy": replace(small_config().policy, tail_tol=1e-12)}),
    ], ids=["prior-order", "seed", "setting-lambda", "mcmc", "policy"])
    def test_other_config_refused(self, tmp_path, first, second):
        progress = tmp_path / "progress.jsonl"
        run_study(small_config(**first), progress_path=str(progress))
        before = progress.read_bytes()
        with pytest.raises(InvalidParamsError, match=re.escape(f"{progress}: the record of fit")):
            run_study(small_config(**second), progress_path=str(progress))
        assert progress.read_bytes() == before

    def test_record_without_made_by_refused(self, tmp_path):
        progress = tmp_path / "progress.jsonl"
        run_study(small_config(), progress_path=str(progress))
        records = [json.loads(line) for line in progress.read_text().splitlines()]
        for rec in records:
            del rec["made_by"]
        progress.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(InvalidParamsError, match="'over', 25, 0, 'conj-1'"):
            run_study(small_config(), progress_path=str(progress))

    # a file drawn under another scheme (the normal and chi-square t draws stored no
    # "draws" entry) is refused, not resumed into a mix of two schemes
    @pytest.mark.parametrize("draws", [None, "t5-normal-chisquare"])
    def test_record_of_another_draw_scheme_refused(self, tmp_path, draws):
        progress = tmp_path / "progress.jsonl"
        run_study(small_config(), progress_path=str(progress))
        records = [json.loads(line) for line in progress.read_text().splitlines()]
        assert all(rec["made_by"]["draws"] == mcmc.DRAW_SCHEME for rec in records)
        for rec in records:
            if draws is None:
                del rec["made_by"]["draws"]
            else:
                rec["made_by"]["draws"] = draws
        progress.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(InvalidParamsError, match="draw scheme"):
            run_study(small_config(), progress_path=str(progress))

    # a file of another record shape (before RECORD_VERSION, records held the medians and
    # CrI ends alone) is refused, not resumed into a mix of two shapes
    @pytest.mark.parametrize("version", [None, 1])
    def test_record_of_another_shape_refused(self, tmp_path, version):
        progress = tmp_path / "progress.jsonl"
        run_study(small_config(), progress_path=str(progress))
        records = [json.loads(line) for line in progress.read_text().splitlines()]
        assert all(rec["made_by"]["record"] == mcmc.RECORD_VERSION for rec in records)
        for rec in records:
            if version is None:
                del rec["made_by"]["record"]
            else:
                rec["made_by"]["record"] = version
        progress.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(InvalidParamsError, match="record version"):
            run_study(small_config(), progress_path=str(progress))

    def test_cli_refusal_exits_2(self, tmp_path, capsys):
        argv = ["study", "--settings", "over:3:0.5", "--sizes", "20", "--replicates", "1",
                "--priors", "conj-1", "--chains", "2", "--warmup", "300", "--keep", "150",
                "--format", "csv", "--progress", str(tmp_path / "progress.jsonl")]
        assert main([*argv, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main([*argv, "--seed", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRecordLoop:
    def test_records_on_disk_before_a_crash(self, tmp_path, monkeypatch):
        cfg = small_config(replicates=4)
        real = study.run_chains
        calls = []

        def crash_on_third_replicate(*args):
            calls.append(args)
            if len(calls) > 2 * len(cfg.priors):
                raise RuntimeError("interrupted")
            return real(*args)

        progress = tmp_path / "progress.jsonl"
        monkeypatch.setattr(study, "run_chains", crash_on_third_replicate)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_study(cfg, progress_path=str(progress))
        monkeypatch.undo()
        on_disk = [json.loads(line) for line in progress.read_text().splitlines()]
        assert [(rec["replicate"], rec["prior"]) for rec in on_disk] == [
            (0, "conj-1"), (0, "flat"), (1, "conj-1"), (1, "flat")]
        assert run_study(cfg, progress_path=str(progress)) == run_study(cfg)

    def test_progress_file_same_for_any_worker_count(self, tmp_path):
        cfg = small_config(sample_sizes=(25, 30))
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        run_study(cfg, progress_path=str(one), workers=1)
        run_study(cfg, progress_path=str(two), workers=2)
        assert one.read_bytes() == two.read_bytes()

    def test_pool_is_no_larger_than_its_work(self, tmp_path, monkeypatch):
        # a stand-in executor that records its size and maps in process: no process starts
        sizes = []

        class InProcess:
            map = staticmethod(map)

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(study, "ProcessPoolExecutor", InProcess)
        cfg = small_config(replicates=3, priors=("conj-1",))
        fresh = run_study(cfg)
        assert run_study(cfg, workers=64) == fresh and sizes == [3]
        # one replicate left to fit on resume makes no pool
        progress = tmp_path / "progress.jsonl"
        run_study(replace(cfg, replicates=2), progress_path=str(progress))
        assert run_study(cfg, progress_path=str(progress), workers=64) == fresh
        assert sizes == [3]

    def test_pool_error_cancels_queued_replicates(self, tmp_path, monkeypatch):
        # forked workers inherit the patched name; each call leaves a marker
        cfg, workers = small_config(replicates=16, priors=("conj-1",)), 2

        def slow_or_failing(spec, stats, mcmc, seed, policy):
            (tmp_path / f"call-{seed.stream_id}").touch()
            if seed.stream_id // 16 == 0:  # replicate 0 of the only setting and size
                raise RuntimeError("replicate 0 failed")
            time.sleep(1.0)
            raise ZeroVarianceError("stand-in for a slow fit")

        monkeypatch.setattr(study, "run_chains", slow_or_failing)
        with pytest.raises(RuntimeError, match="replicate 0 failed"):
            run_study(cfg, workers=workers)
        # the failed replicate, one running per worker, and the executor's call
        # queue of workers + 1, which it cannot cancel; not the other ten
        started = len(list(tmp_path.glob("call-*")))
        assert 1 <= started <= 2 * workers + 2
