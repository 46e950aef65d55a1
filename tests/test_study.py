import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cmpbayes import (
    CellResult,
    InvalidParamsError,
    McmcConfig,
    StudyConfig,
    StudySetting,
    load_study_config,
    parse_tables,
    render_tables,
    run_study,
)
from cmpbayes.cli import build_parser, config_from_args

FAST_MCMC = McmcConfig(chains=2, warmup=400, keep=200)


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

    def test_unknown_prior_rejected(self):
        with pytest.raises(KeyError):
            StudyConfig(priors=("conj-1", "bogus"))

    def test_replicates_validation(self):
        with pytest.raises(InvalidParamsError):
            StudyConfig(replicates=0)


class TestRunStudy:
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

    def test_failed_fits_counted(self):
        # tiny Poisson rate at n=5 makes counts above 1 vanishingly rare, so
        # the flat posterior is improper and the fit is refused per replicate
        cfg = small_config(
            settings=(StudySetting("sparse", 0.05, 1.0),),
            sample_sizes=(5,),
            replicates=3,
            priors=("flat",),
        )
        results = run_study(cfg)
        assert all(r.n_failed == 3 for r in results)
        assert all(r.bias is None and r.mse is None and r.coverage is None
                   for r in results)


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
        assert "— (2 failed)" in text

    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError):
            render_tables([], "csv")

    def test_unknown_format(self):
        with pytest.raises(InvalidParamsError):
            render_tables(self.sample_results(), "xml")


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

    def test_corrupt_middle_line_raises(self, tmp_path):
        cfg = small_config()
        progress, lines = self.run_to_file(cfg, tmp_path)
        lines[1] = lines[1][:10] + "\n"
        progress.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            run_study(cfg, progress_path=str(progress))
