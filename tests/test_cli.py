"""Command-line pipelines: hand-checked numbers, library parity, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditfactors as cf
from creditfactors import cli, tables
from creditfactors.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


BIG_CELL = "9" * 200_000  # longer than csv.field_size_limit()
FIELD_LIMIT = "field larger than field limit (131072)"


def write_spread_panel(path, T=40, n=4, seed=101):
    rng = np.random.default_rng(seed)
    names = ["36-A", "36-B", "60-A", "60-B"][:n]
    vals = rng.normal(0, 1, size=(T, n)).cumsum(axis=0) * 0.2 + 5.0
    panel = cf.AlignedPanel(cf.Month(2010, 1), names, vals)
    cf.write_panel_csv(panel, path)
    return panel


def write_named_spreads(path, names, T=40, seed=77):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(T, len(names))).cumsum(axis=0) * 0.2 + 5.0
    cf.write_panel_csv(cf.AlignedPanel(cf.Month(2010, 1), names, vals), path)


def write_macro_panel(path, T=40, q=3, seed=202):
    rng = np.random.default_rng(seed)
    names = ["UNRATE", "CPI", "SLOPE"][:q]
    vals = rng.normal(size=(T, q)).cumsum(axis=0) * 0.1
    panel = cf.AlignedPanel(cf.Month(2010, 1), names, vals)
    cf.write_panel_csv(panel, path)
    return panel


def write_loan_book(workdir, T=24, seed=101):
    """loans.csv with two to four loans in each month and bucket, and a yields.csv that
    holds every maturity they need; the loan rows are not in date order."""
    rng = np.random.default_rng(seed)
    months = [str(cf.Month(2010, 1).plus(t)) for t in range(T)]
    rows = [f"{m}-{rng.integers(1, 29):02d},{8 + 2 * 'ABC'.index(grade) + rng.normal():.2f},"
            f"{grade},{term}"
            for m in months for grade in "ABC" for term in (36, 60)
            for _ in range(rng.integers(2, 5))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    (workdir / "loans.csv").write_text("date,rate,grade,term\n" + "\n".join(rows) + "\n")
    (workdir / "yields.csv").write_text("date,maturity_months,yield\n" + "".join(
        f"{m},{term},{1.5 + 0.01 * term + 0.1 * rng.normal():.4f}\n"
        for m in months for term in (12, 36, 60, 120)))


class TestAggregate:
    def test_three_loans_by_hand(self, workdir):
        (workdir / "loans.csv").write_text(
            "date,rate,grade,term\n"
            "2010-01,10.0,A,36\n"
            "2010-01,12.0,A,36\n"
            "2010-01,15.0,B,60\n")
        (workdir / "yields.csv").write_text(
            "date,maturity_months,yield\n"
            "2010-01,36,2.0\n"
            "2010-01,60,3.0\n")
        assert run("aggregate", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--out", "out") == 0
        spreads = workdir / "out" / "spreads.csv"
        # aggregate aligns nothing; its note says so, as adf's and simulate's do
        assert spreads.read_text().splitlines()[0] == "# n_obs=1 transform=levels align=none"
        panel = cf.read_panel_csv(spreads)
        assert panel.names == ("36-A", "60-B")
        assert panel.n_obs == 1
        assert panel.column("36-A")[0] == pytest.approx(11.0 - 2.0)
        assert panel.column("60-B")[0] == pytest.approx(15.0 - 3.0)

    def test_missing_yield_month_is_a_data_error(self, workdir, capsys):
        (workdir / "loans.csv").write_text(
            "date,rate,grade,term\n2010-02,10.0,A,36\n")
        (workdir / "yields.csv").write_text(
            "date,maturity_months,yield\n2010-01,36,2.0\n")
        assert run("aggregate", "--loans", "loans.csv",
                   "--yields", "yields.csv") == 3
        err = capsys.readouterr().err
        assert "2010-02" in err and "36 months" in err

    @pytest.mark.parametrize("loans_row, yields_row, message", [
        ("2010-01,10.0,A,36,oops", "2010-01,36,2.0", "loans.csv:3: expected 4 cells, got 5"),
        ("2010-01,10.0,A,36", "2010-01,36,2.0,zz", "yields.csv:3: expected 3 cells, got 4"),
    ])
    def test_row_past_the_header_is_a_data_error(self, workdir, capsys, loans_row, yields_row,
                                                 message):
        (workdir / "loans.csv").write_text(
            f"date,rate,grade,term\n2010-01,12.0,A,36\n{loans_row}\n")
        (workdir / "yields.csv").write_text(
            f"date,maturity_months,yield\n2010-01,36,2.0\n{yields_row}\n")
        assert run("aggregate", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--out", "out") == 3
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("loans_rows, yields_rows, message", [
        ([f"2010-01,{BIG_CELL},A,36"], [], f"loans.csv:3: {FIELD_LIMIT}"),
        # a bad row before the malformed one is still the one reported
        (["2010-01,-1.0,A,36", f"2010-01,{BIG_CELL},A,36"], [],
         "loans.csv:3: loan rate must be positive, got -1.0"),
        ([], [f"2010-01,36,{BIG_CELL}"], f"yields.csv:3: {FIELD_LIMIT}"),
    ], ids=["loans", "loans-earlier-bad-row", "yields"])
    def test_cell_past_the_csv_field_limit_is_a_data_error(self, workdir, capsys, loans_rows,
                                                           yields_rows, message):
        (workdir / "loans.csv").write_text(
            "\n".join(["date,rate,grade,term", "2010-01,12.0,A,36", *loans_rows, ""]))
        (workdir / "yields.csv").write_text(
            "\n".join(["date,maturity_months,yield", "2010-01,36,2.0", *yields_rows, ""]))
        assert run("aggregate", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--out", "out") == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"data error: {message}"]
        assert not (workdir / "out").exists()


class TestSpreads:
    def test_rate_panel_route_matches_aggregate_byte_for_byte(self, workdir):
        write_loan_book(workdir)
        rates = cf.aggregate_loans(cf.read_loans_csv(workdir / "loans.csv"))
        cf.write_panel_csv(rates, workdir / "rates.csv")
        assert run("aggregate", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--out", "agg") == 0
        assert run("spreads", "--panel", "rates.csv", "--yields", "yields.csv",
                   "--out", "spr") == 0
        assert os.listdir(workdir / "spr") == ["spreads.csv"]
        assert (workdir / "spr" / "spreads.csv").read_bytes() == \
               (workdir / "agg" / "spreads.csv").read_bytes()

    def test_missing_yield_names_month_and_maturity(self, workdir, capsys):
        (workdir / "rates.csv").write_text("date,36-A,60-A\n2010-01,9.0,11.0\n"
                                           "2010-02,9.5,11.5\n")
        (workdir / "yields.csv").write_text("date,maturity_months,yield\n2010-01,36,2.0\n"
                                            "2010-01,60,3.0\n2010-02,36,2.1\n")
        assert run("spreads", "--panel", "rates.csv", "--yields", "yields.csv",
                   "--out", "out") == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            "data error: no yield for 2010-02 at maturity 60 months"]
        assert not (workdir / "out").exists()

    def test_series_without_term_grade_name_exit_3(self, workdir, capsys):
        (workdir / "rates.csv").write_text("date,36-A,alpha\n2010-01,9.0,11.0\n")
        (workdir / "yields.csv").write_text("date,maturity_months,yield\n2010-01,36,2.0\n")
        assert run("spreads", "--panel", "rates.csv", "--yields", "yields.csv",
                   "--out", "out") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'alpha' does not follow the '<term>-<grade>' naming" in err[0]
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command, rows, rate_yield", [
        ("aggregate", ["2010-01,1.7e308,A,36"] * 2, "1.0"),
        ("aggregate", ["2010-01,1.7e308,A,36"], "-1.7e308"),
        ("spreads", ["2010-01,1.7e308"], "-1.7e308"),
    ], ids=["mean-of-two-loans", "loan-over-yield", "rate-over-yield"])
    def test_a_spread_that_overflows_exit_4(self, workdir, capsys, command, rows, rate_yield):
        # each cell is finite, but the bucket mean or the spread is not; both commands
        # exited 0 and wrote a spread of inf that read_panel_csv then refused
        header = "date,rate,grade,term" if command == "aggregate" else "date,36-A"
        (workdir / "rates.csv").write_text("\n".join([header, *rows]) + "\n")
        (workdir / "yields.csv").write_text(f"date,maturity_months,yield\n"
                                            f"2010-01,36,{rate_yield}\n")
        flag = "--loans" if command == "aggregate" else "--panel"
        assert run(command, flag, "rates.csv", "--yields", "yields.csv", "--out", "out") == 4
        what = "mean rate" if rate_yield == "1.0" else "spread"
        assert capsys.readouterr().err.splitlines() == [
            f"numerical error: {what} of series '36-A' in 2010-01 overflows double precision"]
        assert not (workdir / "out").exists()


class TestOlsParity:
    def test_emitted_csv_matches_library_byte_for_byte(self, workdir):
        spreads = write_spread_panel(workdir / "spreads.csv")
        macro = write_macro_panel(workdir / "macro.csv")
        assert run("ols", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "out") == 0

        diffs = cf.first_difference(cf.read_panel_csv(workdir / "spreads.csv"))
        macro_back = cf.read_panel_csv(workdir / "macro.csv")
        combined = cf.align([diffs, macro_back])
        z_names = list(macro_back.names)
        X = np.column_stack([combined.column(nm) for nm in z_names])
        fits = [cf.ols(combined.column(nm), X, response_name=nm,
                       predictor_names=z_names) for nm in diffs.names]
        header, rows = cf.fit_table(fits)
        expected = tables.to_csv_text(
            header, rows,
            comment=f"n_obs={combined.n_obs} transform=diff align=intersect")
        assert (workdir / "out" / "ols.csv").read_text() == expected


class TestSimulate:
    def test_deterministic_and_round_trips(self, workdir):
        (workdir / "spec.json").write_text(
            json.dumps({"preset": "missing_factor", "seed": 5, "n_periods": 60}))
        assert run("simulate", "--spec", "spec.json", "--out", "a") == 0
        assert run("simulate", "--spec", "spec.json", "--out", "b") == 0
        for fname in ["responses.csv", "proxies.csv", "truth_proxied_factors.csv",
                      "truth_missing_factors.csv", "truth_idiosyncratic.csv",
                      "spec_echo.json"]:
            assert (workdir / "a" / fname).read_bytes() == \
                   (workdir / "b" / fname).read_bytes()
        responses = cf.read_panel_csv(workdir / "a" / "responses.csv")
        spec = cf.scenario_missing_factor(5, n_periods=60)
        ds = cf.generate(spec)
        np.testing.assert_allclose(responses.values, ds.responses, atol=1e-9)

    def test_seed_flag_overrides_spec_file(self, workdir):
        (workdir / "spec.json").write_text(
            json.dumps({"preset": "no_missing_factor", "seed": 1, "n_periods": 40}))
        assert run("simulate", "--spec", "spec.json", "--seed", "9",
                   "--out", "s") == 0
        echo = json.loads((workdir / "s" / "spec_echo.json").read_text())
        assert echo["seed"] == 9

    @pytest.mark.parametrize("spec, seed, message", [
        ({"preset": "default"}, "-1", "seed must be nonnegative, got -1"),
        ({"preset": "default", "seed": -5}, "3", "spec.json: seed must be nonnegative, got -5"),
    ], ids=["flag", "file"])
    def test_a_bad_seed_names_the_file_only_when_the_file_holds_it(self, workdir, capsys,
                                                                    spec, seed, message):
        # the file's spec is built and checked before --seed replaces its seed
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("simulate", "--spec", "spec.json", "--seed", seed, "--out", "s") == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
        assert not (workdir / "s").exists()

    def test_explicit_matrices(self, workdir):
        (workdir / "spec.json").write_text(json.dumps({
            "intercepts": [0.0, 1.0],
            "proxied_loadings": [[1.0], [0.5]],
            "proxy_projection": [[0.8], [0.3]],
            "proxy_noise_scale": 0.2,
            "idio_variances": [0.4, 0.4],
            "n_periods": 30,
            "seed": 2}))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 0
        responses = cf.read_panel_csv(workdir / "m" / "responses.csv")
        assert responses.n_obs == 30 and responses.n_series == 2
        assert not (workdir / "m" / "truth_missing_factors.csv").exists()

    def test_mismatched_dimensions_exit_3(self, workdir, capsys):
        (workdir / "spec.json").write_text(json.dumps({
            "intercepts": [0.0, 1.0, 2.0],
            "proxied_loadings": [[1.0], [0.5]],
            "proxy_projection": [[0.8]],
            "proxy_noise_scale": 0.2,
            "idio_variances": [0.4, 0.4],
            "n_periods": 30,
            "seed": 2}))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 3

    def test_unknown_preset_exit_3(self, workdir):
        (workdir / "spec.json").write_text(json.dumps({"preset": "nope"}))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 3

    def test_malformed_json_exit_3(self, workdir):
        (workdir / "spec.json").write_text("{not json")
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 3

    FULL_SPEC = {
        "intercepts": [1.0, 2.0, 3.0],
        "proxied_loadings": [[1.0], [0.5], [-0.7]],
        "missing_loadings": [[0.3], [0.2], [0.1]],
        "proxy_projection": [[1.0], [0.4]],
        "proxy_noise_scale": 0.3,
        "idio_variances": [0.5, 0.4, 0.6],
        "n_periods": 30,
        "seed": 1,
    }

    @pytest.mark.parametrize("spec", [
        {"preset": "default", "seed": 3, "n_periods": 40},  # no missing factors
        FULL_SPEC,
    ], ids=["preset", "full"])
    def test_spec_echo_reproduces_every_file(self, workdir, spec):
        # the echo lists the spec's fields, and --spec reads the same field list back
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("simulate", "--spec", "spec.json", "--out", "a") == 0
        assert run("simulate", "--spec", "a/spec_echo.json", "--out", "b") == 0
        names = sorted(os.listdir(workdir / "a"))
        assert names == sorted(os.listdir(workdir / "b"))
        assert ("truth_missing_factors.csv" in names) == ("missing_loadings" in spec)
        for name in names:
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("loadings, shape", [
        ([[0.3, 0.2, 0.1], [0.5, -0.4, 0.9]], "rows 2 do not match 3 responses"),
        ([0.3, 0.2, 0.1], "must be 2-D, got shape (3,)"),
        ([[]], "rows 1 do not match 3 responses"),
    ], ids=["2x3", "flat", "one-empty-row"])
    def test_missing_loadings_of_the_wrong_shape_exit_3(self, workdir, capsys, loadings, shape):
        # a 2x3 matrix for 3 responses was reshaped in row order to 3x2 and accepted
        (workdir / "spec.json").write_text(json.dumps(dict(self.FULL_SPEC,
                                                           missing_loadings=loadings)))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: spec.json: missing_loadings {shape}"]
        assert not (workdir / "m").exists()

    @pytest.mark.parametrize("loadings", [None, [], [[], [], []]], ids=["null", "empty", "3x0"])
    def test_missing_loadings_null_or_empty_mean_no_missing_factor(self, workdir, loadings):
        (workdir / "spec.json").write_text(json.dumps(dict(self.FULL_SPEC,
                                                           missing_loadings=loadings)))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 0
        assert not (workdir / "m" / "truth_missing_factors.csv").exists()
        echo = json.loads((workdir / "m" / "spec_echo.json").read_text())
        assert echo["missing_loadings"] == [[], [], []]

    @pytest.mark.parametrize("spec", [
        {"preset": "default", "n_periods": 1e300},
        dict(FULL_SPEC, n_periods=1e300),
        dict(FULL_SPEC, n_periods=96001),
    ], ids=["preset", "full", "one-past"])
    def test_n_periods_past_9999_12_exit_3_before_the_draw(self, workdir, capsys, spec):
        # 1e300 periods escaped as numpy's "Maximum allowed dimension exceeded", exit 1
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: spec.json: n_periods must be at most 96000, "
            "the months from 2000-01 to 9999-12"]
        assert not (workdir / "m").exists()

    def test_n_periods_up_to_9999_12_is_drawn(self, workdir):
        (workdir / "spec.json").write_text(json.dumps({
            "intercepts": [0.0], "proxied_loadings": [[1.0]], "proxy_projection": [[1.0]],
            "proxy_noise_scale": 0.1, "idio_variances": [1.0], "n_periods": 96000, "seed": 0}))
        assert run("simulate", "--spec", "spec.json", "--out", "m") == 0
        assert (workdir / "m" / "responses.csv").read_text().splitlines()[-1].startswith(
            "9999-12,")


class TestConfig:
    def test_config_supplies_settings(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        (workdir / "run.cfg").write_text(
            "# pipeline settings\n"
            "macro = macro.csv\n"
            "transform = levels\n")
        assert run("ols", "--config", "run.cfg", "--spreads", "spreads.csv",
                   "--out", "out") == 0
        first = (workdir / "out" / "ols.csv").read_text().splitlines()[0]
        assert "transform=levels" in first

    def test_flags_override_config(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        (workdir / "run.cfg").write_text("macro = macro.csv\ntransform = levels\n")
        assert run("ols", "--config", "run.cfg", "--spreads", "spreads.csv",
                   "--transform", "diff", "--out", "out") == 0
        first = (workdir / "out" / "ols.csv").read_text().splitlines()[0]
        assert "transform=diff" in first

    def test_unknown_config_key_exit_2(self, workdir, capsys):
        write_spread_panel(workdir / "spreads.csv")
        (workdir / "run.cfg").write_text("macroo = macro.csv\n")
        assert run("ols", "--config", "run.cfg", "--spreads", "spreads.csv") == 2
        assert "macroo" in capsys.readouterr().err

    def test_malformed_config_line_exit_2(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        (workdir / "run.cfg").write_text("transform levels\n")
        assert run("ols", "--config", "run.cfg", "--spreads", "spreads.csv") == 2

    def test_unreadable_config_file_exit_2(self, workdir, capsys):
        write_spread_panel(workdir / "spreads.csv")
        (workdir / "cfgdir").mkdir()
        (workdir / "bad.cfg").write_bytes(b"macro = macro.csv\nfactors = \xff\n")
        for config, message in (("cfgdir", "cfgdir: cannot read config file (Is a directory)"),
                                ("bad.cfg", "bad.cfg: cannot decode text (invalid start byte)")):
            assert run("ols", "--config", config, "--spreads", "spreads.csv") == 2
            assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]

    def test_bad_config_value_exit_2(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        (workdir / "run.cfg").write_text("macro = macro.csv\nfactors = three\n")
        assert run("cca", "--config", "run.cfg", "--spreads", "spreads.csv") == 2

    @pytest.mark.parametrize("given, message", [
        (["--spreads", "spreads.csv"], "missing required setting 'macro' (flag --macro or config)"),
        (["--loans", "spreads.csv", "--macro", "spreads.csv"],
         "need either spreads=PATH or both loans=PATH and yields=PATH"),
    ], ids=["macro", "yields"])
    def test_missing_required_setting_exit_2(self, workdir, capsys, given, message):
        write_spread_panel(workdir / "spreads.csv")
        assert run("ols", *given) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]

    def test_align_setting_is_gone(self, workdir, capsys):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        (workdir / "run.cfg").write_text("macro = macro.csv\nalign = intersect\n")
        assert run("analyze", "--config", "run.cfg", "--spreads", "spreads.csv") == 2
        assert "'align'" in capsys.readouterr().err
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--align", "intersect") == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: unrecognized arguments: --align intersect"]


class TestExitCodes:
    def test_missing_input_file_exit_3(self, workdir):
        assert run("adf", "--panel", "missing.csv") == 3

    @pytest.mark.parametrize("bad", [
        ["nosuch"], ["adf", "--lags", "2", "--bogus"], ["adf", "--panel"],
        ["analyze", "--spreads", "spreads.csv", "--factors", "1", "extra"],
    ], ids=["command", "flag", "value", "word"])
    def test_a_usage_error_leaves_the_parser_as_a_fresh_one(self, workdir, capsys, bad):
        # main builds its parser once per process: a call after a usage error must print,
        # write and exit as the same call on a fresh parser does
        from creditfactors import cli
        write_spread_panel(workdir / "spreads.csv")
        good = ["adf", "--panel", "spreads.csv", "--out", "out"]

        def outcome():
            code, out = run(*good), capsys.readouterr()
            files = {name: (workdir / "out" / name).read_bytes()
                     for name in sorted(os.listdir(workdir / "out"))}
            return code, out.out, out.err, files

        cli.build_parser.cache_clear()
        fresh = outcome()
        assert fresh[0] == 0 and fresh[3]
        cli.build_parser.cache_clear()
        assert run(*bad) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        parser = cli.build_parser()
        assert outcome() == fresh
        assert cli.build_parser() is parser  # both calls used the one parser

    def test_numerical_failure_exit_4(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        T = 40
        vals = np.column_stack([np.full(T, 3.0), np.arange(T, dtype=float)])
        cf.write_panel_csv(cf.AlignedPanel(cf.Month(2010, 1), ("FLAT", "TREND"), vals),
                           workdir / "macro.csv")
        assert run("cca", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "out") == 4

    def test_zero_factors_exit_2(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("cca", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--factors", "0", "--out", "out") == 2

    def test_non_finite_cell_exit_3(self, workdir, capsys):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        lines = (workdir / "spreads.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",inf"
        (workdir / "spreads.csv").write_text("\n".join(lines) + "\n")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "spreads.csv:6: non-finite number 'inf'" in err[0]

    def test_linear_algebra_failure_exit_4(self, workdir, capsys, monkeypatch):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("creditfactors.cca.cca_fit", no_convergence)
        assert run("cca", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "out") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical error: SVD did not converge"]

    @pytest.mark.parametrize("command, flags, setting", [
        ("analyze", ["--strong", "0.1", "--weak", "0.3"], "strong"),
        ("analyze", ["--ridge", "-1"], "ridge"),
        ("analyze", ["--ridge", "nan"], "ridge"),
        ("analyze", ["--ridge", "inf"], "ridge"),
        ("analyze", ["--factors", "0"], "factors"),
        ("analyze", ["--strong", "nan"], "strong"),
        ("analyze", ["--weak", "nan"], "weak"),
        ("analyze", ["--strong", "inf"], "strong"),
        ("diagnose", ["--strong", "nan"], "strong"),
        ("analyze", ["--lags", "-1"], "lags"),
    ])
    def test_bad_numeric_setting_exit_2_before_writing(self, workdir, capsys, command,
                                                       flags, setting):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run(command, "--spreads", "spreads.csv", "--macro", "macro.csv", *flags,
                   "--out", "rep") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"setting {setting!r}" in err[0], err
        assert not (workdir / "rep").exists()

    @pytest.mark.parametrize("text, message", [
        ("date,S1\n2010-13,1.0\n2011-01,2.0\n", "p.csv:2: month out of range: 13"),
        ("# note\ndate,S1\n2010-01,1.0\n2010-1,2.0\n",
         "p.csv:4: unparseable date '2010-1' (expected YYYY-MM or YYYY-MM-DD)"),
        (f"date,S1\n2010-01,{BIG_CELL}\n", f"p.csv:2: {FIELD_LIMIT}"),
        ("date,,S2\n2010-01,1.0,2.0\n",
         "p.csv:1: series names must be nonempty strings, got ['', 'S2']"),
        ("# note\n# more\ndate,S1,S1\n2010-01,1.0,2.0\n",
         "p.csv:3: duplicate series names: ['S1']"),
    ], ids=["month-13", "date-after-comment", "field-limit", "empty-name", "duplicate-name"])
    def test_bad_panel_row_names_file_and_line(self, workdir, capsys, text, message):
        (workdir / "p.csv").write_text(text)
        assert run("adf", "--panel", "p.csv", "--out", "out") == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"data error: {message}"]
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("setting, value, message", [
        ("factors", "three", "setting 'factors': cannot parse 'three'"),
        ("lags", "x", "setting 'lags': cannot parse 'x'"),
        ("ridge", "abc", "setting 'ridge': cannot parse 'abc'"),
        ("kind", "bogus",
         "setting 'kind': 'bogus' is not one of ['constant', 'constant_trend']"),
        ("transform", "bogus", "setting 'transform': 'bogus' is not one of ['diff', 'levels']"),
        ("factors", "0", "setting 'factors': must be >= 1, got 0"),
        ("lags", "-1", "setting 'lags': must be >= 0, got -1"),
        ("ridge", "-1", "setting 'ridge': must be finite and >= 0, got -1.0"),
        ("ridge", "-inf", "setting 'ridge': must be finite and >= 0, got -inf"),
        ("ridge", "nan", "setting 'ridge': must be finite and >= 0, got nan"),
        ("strong", "inf", "setting 'strong': must be finite, got inf"),
        ("weak", "nan", "setting 'weak': must be finite, got nan"),
        ("strong", "0.05", "setting 'strong': must exceed weak (0.05 vs 0.1)"),
    ])
    def test_bad_value_fails_alike_from_flag_and_config(self, workdir, capsys, setting,
                                                        value, message):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        (workdir / "run.cfg").write_text(f"{setting} = {value}\n")
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv", "--out", "rep"]
        for source in ([f"--{setting}", value], ["--config", "run.cfg"]):
            assert run("analyze", *data, *source) == 2
            assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
            assert not (workdir / "rep").exists()

    @pytest.mark.parametrize("role", ["spreads", "macro"])
    def test_intercept_as_a_series_name_exit_3(self, workdir, capsys, role):
        # every fit names its constant '(Intercept)', so a column may not
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        panel = cf.read_panel_csv(workdir / f"{role}.csv")
        names = (cf.INTERCEPT,) + panel.names[1:]
        cf.write_panel_csv(cf.AlignedPanel(panel.start, names, panel.values),
                           workdir / f"{role}.csv", comment="renamed")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {role}.csv:2: series name '(Intercept)' is reserved for the "
            "regression intercept"]
        assert not (workdir / "rep").exists()

    def test_overflow_exits_with_one_line(self, workdir):
        # spreads near 1e300 cannot be squared; the spread levels' summary names the first
        # such series, and numpy's warnings must not reach stderr ahead of the message (a
        # subprocess sees what users see)
        panel = write_spread_panel(workdir / "spreads.csv")
        cf.write_panel_csv(cf.AlignedPanel(panel.start, panel.names, panel.values * 1e300),
                           workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(cf.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "creditfactors.cli", "analyze", "--spreads", "spreads.csv",
             "--macro", "macro.csv", "--out", "rep"], cwd=workdir, capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=package_root))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines() == ["numerical error: values of series '36-A' are too "
                                            "large to square in double precision"]
        assert not (workdir / "rep").exists()

    def test_late_data_error_leaves_no_out(self, workdir, capsys):
        # the ADF stage fails after the summary tables have rendered
        (workdir / "spec.json").write_text(
            json.dumps({"preset": "default", "seed": 0, "n_periods": 63}))
        assert run("simulate", "--spec", "spec.json", "--out", "sim") == 0
        capsys.readouterr()
        assert run("analyze", "--spreads", "sim/responses.csv", "--macro", "sim/proxies.csv",
                   "--lags", "40", "--out", "rep") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "at lag order 40" in err[0], err
        assert not (workdir / "rep").exists()

    def test_late_numerical_error_leaves_no_out(self, workdir, capsys, monkeypatch):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")

        def degenerate(*args, **kwargs):
            raise cf.NumericalError("residuals are constant")

        monkeypatch.setattr("creditfactors.factor_model.missing_factor_diagnostic", degenerate)
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv"]
        for command in ("analyze", "diagnose"):
            assert run(command, *data, "--out", command) == 4
            assert not (workdir / command).exists()
        assert capsys.readouterr().err.count("numerical error: residuals are constant") == 2
        # factor-regress never runs the diagnostic
        assert run("factor-regress", *data, "--out", "fr") == 0
        assert os.listdir(workdir / "fr") == ["factor_regressions.csv"]

    def test_unknown_subcommand_exits_with_usage(self, workdir, capsys):
        assert run("frobnicate") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "usage error: argument command: invalid choice: 'frobnicate'"), err

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--spreads", "s.csv", "--macro", "m.csv", "--s", "-1"],
         "ambiguous option: --s could match --spreads, --strong"),
        (["analyze", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
    ], ids=["ambiguous-prefix", "unknown-flag", "no-command"])
    def test_argparse_errors_print_one_line(self, workdir, capsys, argv, message):
        # argparse printed its usage block (seven lines for the ambiguous prefix) before
        # the error and raised SystemExit(2) out of main
        assert run(*argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--bogus\nx"], "usage error: unrecognized arguments: --bogus\\nx"),
        (["analyze", "--bogus\u2028x"], "usage error: unrecognized arguments: --bogus\\u2028x"),
        (["adf", "--panel", "p.csv", "--config", "a\nb"],
         "usage error: config file not found: a\\nb"),
        (["adf", "--panel", "bad\nname.csv"],
         "data error: bad\\nname.csv:2: unparseable number 'x'"),
    ], ids=["argv-word", "argv-word-u2028", "config-path", "panel-file-name"])
    def test_line_breaks_in_a_message_are_escaped(self, workdir, capsys, argv, message):
        # each printed its message over two lines
        (workdir / "bad\nname.csv").write_text("date,a,b\n2005-01,x,1\n")
        assert run(*argv) in (2, 3)
        assert capsys.readouterr().err.splitlines() == [message]

    def test_help_still_prints_help_and_exits_0(self, workdir, capsys):
        for argv in (["--help"], ["analyze", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: creditfactors")


class TestAnalyze:
    def test_bundle_reruns_byte_identical(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        for out in ["r1", "r2"]:
            assert run("analyze", "--spreads", "spreads.csv",
                       "--macro", "macro.csv", "--out", out) == 0
        names1 = sorted(os.listdir(workdir / "r1"))
        names2 = sorted(os.listdir(workdir / "r2"))
        assert names1 == names2 and len(names1) > 20
        for name in names1:
            assert (workdir / "r1" / name).read_bytes() == \
                   (workdir / "r2" / name).read_bytes(), name

    def test_aligned_panel_round_trips(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        panel = cf.read_panel_csv(workdir / "rep" / "aligned_panel.csv")
        assert panel.is_complete()
        # diffed spreads plus macro on the intersect window
        assert panel.n_series == 4 + 3
        assert panel.n_obs == 39

    def test_eigen_percentages_sum_to_hundred(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        lines = [ln for ln in (workdir / "rep" / "cca_eigen.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        total = sum(float(r[4]) for r in rows)
        assert total == pytest.approx(100.0, abs=0.01)
        assert float(rows[-1][5]) == pytest.approx(100.0, abs=0.01)

    def test_term_grade_names_produce_grouped_reports(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        produced = set(os.listdir(workdir / "rep"))
        assert {"ols_full_grades.csv", "ols_full_terms.csv",
                "diagnostic_grades.csv", "diagnostic_terms.csv",
                "johansen_36-month.csv", "johansen_60-month.csv"} <= produced

    def test_generic_names_fall_back_to_per_response(self, workdir):
        rng = np.random.default_rng(77)
        vals = rng.normal(size=(40, 3)).cumsum(axis=0) * 0.2
        cf.write_panel_csv(cf.AlignedPanel(cf.Month(2010, 1), ("alpha", "beta", "gamma"), vals),
                           workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        produced = set(os.listdir(workdir / "rep"))
        assert "ols_full_responses.csv" in produced
        assert "johansen_all.csv" in produced
        assert "ols_full_grades.csv" not in produced

    @pytest.mark.parametrize("names, stacked, unstacked", [
        (["36-A", "36-B", "60-A"], [], "grades, terms"),
        (["36-A", "36-B", "60-C"], ["grades"], "terms"),
    ])
    def test_unequal_groups_are_left_unstacked(self, workdir, names, stacked, unstacked):
        write_named_spreads(workdir / "spreads.csv", names)
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        produced = set(os.listdir(workdir / "rep"))
        sections = {name[len("diagnostic_"):-len(".csv")] for name in produced
                    if name.startswith("diagnostic_")}
        assert sections == set(stacked or ["responses"])
        assert "johansen_36-month.csv" in produced
        summary = (workdir / "rep" / "summary.md").read_text()
        assert f"- left unstacked because group sizes differ: {unstacked}\n" in summary

    @pytest.mark.parametrize("names, stacked, one_group", [
        (["36-A", "36-B", "36-C", "36-D"], "grades", "terms"),
        (["12-A", "36-A", "60-A", "84-A"], "terms", "grades"),
    ])
    def test_one_group_is_left_unstacked(self, workdir, capsys, names, stacked, one_group):
        # a single stacked column is one response, and the diagnostic needs two
        write_named_spreads(workdir / "spreads.csv", names, T=60)
        write_macro_panel(workdir / "macro.csv", T=60)
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv", "--factors", "1"]
        assert run("diagnose", *data, "--out", "view") == 0
        assert run("analyze", *data, "--out", "rep") == 0, capsys.readouterr().err
        produced = set(os.listdir(workdir / "rep"))
        assert {name for name in produced if name.startswith("diagnostic_")} == \
               {f"diagnostic_{stacked}.csv"}
        summary = (workdir / "rep" / "summary.md").read_text()
        assert f"- left unstacked because it has one group: {one_group}\n" in summary
        assert "group sizes differ" not in summary

    def test_lags_setting_reaches_every_lagged_test(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv"]
        # Johansen's VAR order is one more than ADF's count of lagged differences
        for flags, adf, johansen in (([], "auto", "2"), (["--lags", "3"], "3", "4"),
                                     (["--lags", "0"], "0", "1")):
            assert run("analyze", *data, *flags, "--out", "rep") == 0
            for name, lags in (("adf_levels.csv", adf), ("johansen_36-month.csv", johansen),
                               ("johansen_60-month.csv", johansen)):
                comment = (workdir / "rep" / name).read_text().splitlines()[0].split()
                assert f"lags={lags}" in comment, (flags, name, comment)

    @pytest.mark.parametrize("flags, fname, note, summary", [
        ([], "adf_levels.csv", "kind=constant_trend lags=auto",
         "- unit-root regression: constant_trend, lags auto"),
        (["--kind", "constant", "--lags", "2"], "adf_diffs.csv", "kind=constant lags=2",
         "- unit-root regression: constant, lags 2"),
        # a value after its flag is the value even when it starts with '-'
        (["--weak", "-1e-3"], "diagnostic_grades.csv", "weak=-0.001",
         "- diagnostic thresholds: strong 0.3, weak -0.001"),
    ], ids=["default", "constant-lags-2", "negative-weak"])
    def test_settings_reach_table_notes_and_summary(self, workdir, flags, fname, note, summary):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv", *flags,
                   "--out", "rep") == 0
        assert note in (workdir / "rep" / fname).read_text().splitlines()[0]
        assert summary in (workdir / "rep" / "summary.md").read_text().splitlines()

    @pytest.mark.parametrize("prefix", ["--wea", "--we"])
    def test_a_unique_flag_prefix_takes_a_negative_value(self, workdir, prefix):
        # argparse accepts any unique prefix of a flag, so its value is joined to it too
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv"]
        assert run("analyze", *data, "--weak", "-1e-3", "--out", "full") == 0
        assert run("analyze", *data, prefix, "-1e-3", "--out", "prefix") == 0
        full = {f.name: f.read_bytes() for f in (workdir / "full").iterdir()}
        assert {f.name: f.read_bytes() for f in (workdir / "prefix").iterdir()} == full
        assert b"weak=-0.001" in full["diagnostic_grades.csv"]

    def test_johansen_command_reads_lags_as_analyze_does(self, workdir):
        write_spread_panel(workdir / "spreads.csv")
        for flags, order in (([], "2"), (["--lags", "0"], "1"), (["--lags", "3"], "4")):
            assert run("johansen", "--panel", "spreads.csv", *flags, "--out", "j") == 0
            comment = (workdir / "j" / "johansen.csv").read_text().splitlines()[0].split()
            assert f"lags={order}" in comment, (flags, comment)

    @pytest.mark.parametrize("factors", [[], ["--factors", "1"]], ids=["default", "one"])
    def test_one_predictor(self, workdir, factors):
        # np.corrcoef of one column is 0-d; its correlation table is still one row
        write_spread_panel(workdir / "spreads.csv", T=60)
        write_macro_panel(workdir / "macro.csv", T=60, q=1)
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv", *factors,
                   "--out", "rep") == 0
        lines = (workdir / "rep" / "macro_correlations.csv").read_text().splitlines()
        assert lines[1:] == [",UNRATE", "UNRATE,1.000"]

    def test_out_holding_another_bundle_is_refused(self, workdir, capsys):
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        write_named_spreads(workdir / "generic.csv", ["alpha", "beta", "gamma"])
        assert run("analyze", "--spreads", "spreads.csv", "--macro", "macro.csv",
                   "--out", "rep") == 0
        before = {f.name: f.read_bytes() for f in (workdir / "rep").iterdir()}
        capsys.readouterr()
        # generic names write per-response files, so the grade and term files would stay
        assert run("analyze", "--spreads", "generic.csv", "--macro", "macro.csv",
                   "--out", "rep") == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: rep holds 'diagnostic_grades.csv', which this bundle does not write"]
        assert {f.name: f.read_bytes() for f in (workdir / "rep").iterdir()} == before

    def test_loans_route_matches_spreads_route(self, workdir):
        # the pipeline must not care whether spreads arrive built or raw
        rng = np.random.default_rng(55)
        months = [cf.Month(2010, 1).plus(i) for i in range(30)]
        with open(workdir / "loans.csv", "w") as fh:
            fh.write("date,rate,grade,term\n")
            for m in months:
                for grade, base in (("A", 8.0), ("B", 12.0)):
                    for term in (36, 60):
                        for _ in range(3):
                            fh.write(f"{m},{base + rng.normal(0, 0.2):.6f},"
                                     f"{grade},{term}\n")
        with open(workdir / "yields.csv", "w") as fh:
            fh.write("date,maturity_months,yield\n")
            for m in months:
                fh.write(f"{m},36,2.0\n{m},60,2.5\n")
        write_macro_panel(workdir / "macro.csv", T=30, seed=66)
        assert run("aggregate", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--out", "built") == 0
        assert run("analyze", "--loans", "loans.csv", "--yields", "yields.csv",
                   "--macro", "macro.csv", "--out", "ra") == 0
        assert run("analyze", "--spreads", str(workdir / "built" / "spreads.csv"),
                   "--macro", "macro.csv", "--out", "rb") == 0
        for name in sorted(os.listdir(workdir / "ra")):
            assert (workdir / "ra" / name).read_bytes() == \
                   (workdir / "rb" / name).read_bytes(), name


def loan_forms(rows, order, extra_at, pad):
    """The loan book's rows ([header, *records]) as the text of each other CSV form the
    reader accepts: {form: text}. Rows keep their order, since the bucket means sum in it,
    and the header is never padded: the reader wants its names exactly."""
    def text(table, end="\n"):
        return "".join(",".join(row) + end for row in table)

    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    ids = ["id"] + [f"L{i}" for i in range(1, len(rows))]
    return {
        "quote_all": quoted.getvalue(),
        "crlf": text(rows, "\r\n"),
        "permuted": text([[row[j] for j in order] for row in rows]),
        "extra_column": text([row[:extra_at] + [i] + row[extra_at:] for row, i in zip(rows, ids)]),
        "padded": text(rows[:1] + [[f"{' ' * pad}{cell}{' ' * pad}" for cell in row]
                                   for row in rows[1:]]),
        "month_dates": text([rows[0]] + [[row[0][:7]] + row[1:] for row in rows[1:]]),
    }


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), order=st.permutations(range(4)),
       extra_at=st.integers(0, 4), pad=st.integers(1, 3))
def test_every_loan_file_form_gives_the_same_bundle(seed, order, extra_at, pad):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        write_loan_book(tmp, seed=seed)
        write_macro_panel(tmp / "macro.csv", T=24)
        plain = (tmp / "loans.csv").read_text()
        rows = [line.split(",") for line in plain.splitlines()]
        forms = {"plain": plain} | loan_forms(rows, order, extra_at, pad)
        bundles = {}
        for form, text in forms.items():
            (tmp / f"{form}.csv").write_bytes(text.encode())
            out = tmp / f"rep_{form}"
            assert run("analyze", "--loans", tmp / f"{form}.csv", "--yields", tmp / "yields.csv",
                       "--macro", tmp / "macro.csv", "--out", out) == 0, form
            bundles[form] = {f.name: f.read_bytes() for f in out.iterdir()}
        for form in forms:
            assert bundles[form] == bundles["plain"], form


class TestDiagnoseCommand:
    def test_verdict_printed_and_written(self, workdir, capsys):
        (workdir / "spec.json").write_text(
            json.dumps({"preset": "missing_factor", "seed": 4}))
        assert run("simulate", "--spec", "spec.json", "--out", "sim") == 0
        assert run("diagnose", "--spreads", "sim/responses.csv",
                   "--macro", "sim/proxies.csv", "--transform", "levels",
                   "--factors", "2", "--out", "diag") == 0
        out = capsys.readouterr().out
        assert "verdict: missing_factor" in out
        text = (workdir / "diag" / "diagnostic.csv").read_text()
        assert "verdict=missing_factor" in text


class TestRankEdges:
    """Desk inputs (default preset, seed 0, T=63) next to and at rank deficiency."""

    DESK = cf.generate(cf.default_spec(seed=0, n_periods=63))

    @staticmethod
    def write(workdir, Y, Z):
        for fname, prefix, values in (("spreads.csv", "Y", Y), ("macro.csv", "Z", Z)):
            names = [f"{prefix}{j + 1}" for j in range(values.shape[1])]
            cf.write_panel_csv(cf.AlignedPanel(cf.Month(2000, 1), names, values), workdir / fname)
        return ["--spreads", "spreads.csv", "--macro", "macro.csv"]

    def test_near_copy_of_a_macro_column(self, workdir):
        # Z11 = Z10 + 1e-6 noise puts the predictors' condition number near 3e6;
        # whitening their covariance squared it, and analyze exited 4
        Z = self.DESK.proxies
        Z = np.column_stack([Z, Z[:, 9] + 1e-6 * np.random.default_rng(11).standard_normal(63)])
        assert run("analyze", *self.write(workdir, self.DESK.responses, Z), "--out", "rep") == 0
        # a comment line, the header and one row per canonical pair
        assert len((workdir / "rep" / "cca_eigen.csv").read_text().splitlines()) == 2 + 11

    def test_rank_one_residuals_exit_4(self, workdir, capsys):
        # four responses on three factors drawn from their own span leave rank-one
        # residuals, whose first component fit every response exactly: adjusted
        # R2 1.000 and t-statistics near 1e15 in the bundle
        data = self.write(workdir, self.DESK.responses[:, :4], self.DESK.proxies)
        assert run("analyze", *data, "--out", "rep") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "setting 'factors'" in err[0], err
        assert not (workdir / "rep").exists()
        assert run("analyze", *data, "--factors", "2", "--out", "rep") == 0


class TestViews:
    """Each single-stage command writes the per-response tables of analyze."""

    @pytest.mark.parametrize("command, files", [
        ("ols", {"ols.csv": "ols_full_responses.csv"}),
        ("stepwise", {"stepwise.csv": "ols_stepwise_responses.csv",
                      "stepwise_trace.csv": "ols_stepwise_trace_responses.csv"}),
        ("cca", {name: name for name in ["cca_eigen.csv", "cca_wilks.csv",
                                         "cca_redundancy.csv", "cca_cross_loadings.csv"]}),
        ("factor-regress", {"factor_regressions.csv": "factor_regressions_responses.csv"}),
        ("diagnose", {"diagnostic.csv": "diagnostic_responses.csv"}),
    ])
    def test_view_files_match_analyze(self, workdir, command, files):
        write_named_spreads(workdir / "spreads.csv", ["alpha", "beta", "gamma"])
        write_macro_panel(workdir / "macro.csv")
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv"]
        factors = ["--factors", "1"] if "factors" in cli.COMMANDS[command][2] else []
        assert run("analyze", *data, "--factors", "1", "--out", "rep") == 0
        assert run(command, *data, *factors, "--out", "view") == 0
        assert sorted(os.listdir(workdir / "view")) == sorted(files)
        for view_name, analyze_name in files.items():
            assert (workdir / "view" / view_name).read_bytes() == \
                   (workdir / "rep" / analyze_name).read_bytes(), view_name

    @pytest.mark.parametrize("command, files", [
        ("ols", ["ols.csv"]),
        ("stepwise", ["stepwise.csv", "stepwise_trace.csv"]),
        ("cca", ["cca_cross_loadings.csv", "cca_eigen.csv", "cca_redundancy.csv",
                 "cca_wilks.csv"]),
        ("factor-regress", ["factor_regressions.csv"]),
        ("diagnose", ["diagnostic.csv"]),
    ])
    def test_views_stay_per_response_on_stackable_names(self, workdir, command, files):
        # analyze stacks these <term>-<grade> names by grade and by term; a view does not
        names = ["36-A", "36-B", "60-A", "60-B"]
        write_spread_panel(workdir / "spreads.csv")
        write_macro_panel(workdir / "macro.csv")
        data = ["--spreads", "spreads.csv", "--macro", "macro.csv"]
        factors = ["--factors", "1"] if "factors" in cli.COMMANDS[command][2] else []
        assert run("analyze", *data, "--factors", "1", "--out", "rep") == 0
        assert "ols_full_grades.csv" in os.listdir(workdir / "rep")
        assert run(command, *data, *factors, "--out", "view") == 0
        assert sorted(os.listdir(workdir / "view")) == files
        for name in files:
            text = (workdir / "view" / name).read_text()
            if name.startswith("cca_"):  # no response rows: the bytes of analyze's tables
                assert text == (workdir / "rep" / name).read_text(), name
                continue
            rows = [row.split(",") for row in text.splitlines()[2:]]
            if name == "stepwise_trace.csv":  # one start row per series, then its moves
                assert [row[0] for row in rows if row[1] == "0"] == names
                assert {row[0] for row in rows} == set(names)
            else:  # a label row per series (then unlabelled t-statistics, or the mean)
                labels = [row[0] for row in rows if row[0]]
                assert labels == names + ["mean"] * (name == "diagnostic.csv"), name


ANALYSIS = ["--spreads", "spreads.csv", "--macro", "macro.csv"]


@pytest.mark.parametrize("argv", [
    ["aggregate", "--loans", "loans.csv", "--yields", "yields.csv"],
    ["spreads", "--panel", "rates.csv", "--yields", "yields.csv"],
    ["adf", "--panel", "spreads.csv"],
    ["johansen", "--panel", "spreads.csv"],
    ["ols", *ANALYSIS],
    ["stepwise", *ANALYSIS],
    ["cca", *ANALYSIS, "--factors", "1"],
    ["factor-regress", *ANALYSIS, "--factors", "1"],
    ["diagnose", *ANALYSIS, "--factors", "1"],
    ["analyze", *ANALYSIS, "--factors", "1"],
    ["simulate", "--spec", "spec.json"],
], ids=lambda argv: argv[0])
def test_every_command_writes_the_files_it_prints(workdir, capsys, argv):
    write_loan_book(workdir)
    cf.write_panel_csv(cf.aggregate_loans(cf.read_loans_csv(workdir / "loans.csv")),
                       workdir / "rates.csv")
    write_spread_panel(workdir / "spreads.csv")
    write_macro_panel(workdir / "macro.csv")
    (workdir / "spec.json").write_text('{"preset": "default", "n_periods": 30}')
    assert run(*argv, "--out", "out") == 0
    printed = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines()
               if line.startswith("wrote ")]
    assert printed and sorted(printed) == sorted(os.path.join("out", name)
                                                 for name in os.listdir(workdir / "out"))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_parser_takes_the_settings_of_its_row(command):
    # a subcommand's parser is built from its COMMANDS row alone: the row's handler, and
    # --config, --out and one flag per setting of the row, no more
    handler, _, settings, *_ = cli.COMMANDS[command]
    args = cli.build_parser().parse_args([command])
    assert args.func is handler
    assert set(vars(args)) == {"command", "func", "config", "out", *settings}


def test_import_loads_no_scipy():
    """The CLI's cold start loads numpy only; scipy is a test-time oracle."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cf.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    code = ("import sys, creditfactors, creditfactors.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
