"""Command-line surface: file schemas, exit codes, reproducibility, and the
round-trip between simulate/fit/effects and analyze."""

import csv
import json
import math
from pathlib import Path

import pytest

import ordmed.effects
from ordmed.cli import EXIT_CONVERGENCE, EXIT_INTERNAL, EXIT_OK, EXIT_UNRELIABLE, EXIT_VALIDATION, main

from conftest import J3_TRUE_EFFECTS, J5_TRUE_EFFECTS

DATA_DIR = Path(__file__).parent / "data"

SPARSE_FLAGS = [
    "--n", "300", "--mean-x", "3", "--sd-x", "1.3",
    "--gamma0", "-1.0", "--gamma-x", "0.9",
    "--alpha", "-0.9,0.9,2.2,3.5",
    "--beta-x", "0.5", "--beta-m", "1.3", "--beta-xm", "0.6",
]
J3_FLAGS = [
    "--n", "500", "--mean-x", "3", "--sd-x", "1.5",
    "--gamma0", "-1.0", "--gamma-x", "0.5",
    "--alpha", "2.5,5.5",
    "--beta-x", "1.1", "--beta-m", "0.7", "--beta-xm", "0.5",
]


def read_csv(path):
    """Rows as dicts plus the '# key: value' metadata block."""
    metadata = {}
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            else:
                lines.append(line)
        reader = csv.DictReader(lines)
        rows = list(reader)
    return metadata, rows


def effects_by_key(rows):
    return {(r["effect"], r["level"]): float(r["log_odds_ratio"]) for r in rows}


class TestEffectsCommand:
    def test_j3_reference_values(self, tmp_path):
        out = tmp_path / "effects.csv"
        code = main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "3.5", "--xstar", "2", "--out", str(out)])
        assert code == EXIT_OK
        metadata, rows = read_csv(out)
        got = effects_by_key(rows)
        for j in (1, 2):
            assert got[("nde", str(j))] == pytest.approx(J3_TRUE_EFFECTS["nde"][j - 1], abs=5e-4)
            assert got[("nie", str(j))] == pytest.approx(J3_TRUE_EFFECTS["nie"][j - 1], abs=5e-4)
            assert got[("tce", str(j))] == pytest.approx(J3_TRUE_EFFECTS["tce"][j - 1], abs=5e-4)
        assert got[("cde", "m1")] == pytest.approx(2.40, abs=5e-4)
        assert got[("cde", "m0")] == pytest.approx(1.65, abs=5e-4)
        assert metadata["tool"].startswith("ordmed")
        assert "effects" in metadata["command"]
        # exponentiated column is labelled and consistent
        assert float(rows[0]["odds_ratio"]) == pytest.approx(
            math.exp(float(rows[0]["log_odds_ratio"])), rel=1e-12
        )

    def test_j5_reference_values(self, tmp_path):
        out = tmp_path / "effects.csv"
        assert main(["effects", "--params", str(DATA_DIR / "params_j5.json"),
                     "--x", "3.5", "--xstar", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        got = effects_by_key(rows)
        for j in range(1, 5):
            assert got[("nde", str(j))] == pytest.approx(J5_TRUE_EFFECTS["nde"][j - 1], abs=5e-4)
            assert got[("nie", str(j))] == pytest.approx(J5_TRUE_EFFECTS["nie"][j - 1], abs=5e-4)
            assert got[("tce", str(j))] == pytest.approx(J5_TRUE_EFFECTS["tce"][j - 1], abs=5e-4)

    def test_null_contrast_all_zero(self, tmp_path):
        out = tmp_path / "effects.csv"
        assert main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "2", "--xstar", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert all(float(r["log_odds_ratio"]) == 0.0 for r in rows)

    def test_json_output(self, tmp_path):
        out = tmp_path / "effects.json"
        assert main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "3.5", "--xstar", "2", "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert {e["effect"] for e in payload["effects"]} == {"nde", "nie", "tce", "cde"}
        assert payload["metadata"]["tool"].startswith("ordmed")

    def test_invalid_thresholds_exit_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamma0": 0, "gammaX": 0, "alpha": [2.0, 1.0],
                                   "betaX": 0, "betaM": 0, "betaXM": 0}))
        out = tmp_path / "effects.csv"
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_non_finite_query_exit_validation(self, tmp_path):
        out = tmp_path / "effects.csv"
        code = main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "nan", "--xstar", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_failed_consistency_check_exits_internal(self, tmp_path, monkeypatch, capsys):
        # a core that inflates the log RR correction of the (x, xstar) pair
        # at level 1 breaks log TCE = log NDE + log NIE there by rounding:
        # a bug in ordmed, reported apart from every input problem
        real = ordmed.effects._mixture_terms

        def broken(*args):
            terms = real(*args)
            terms["log_rr"][1, :, 0] += 1e20
            return terms

        monkeypatch.setattr(ordmed.effects, "_mixture_terms", broken)
        out = tmp_path / "effects.csv"
        code = main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "3.5", "--xstar", "2", "--out", str(out)])
        assert code == EXIT_INTERNAL == 4
        assert "log TCE != log NDE + log NIE at level 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamma0": 0, "gammaX": 0, "alpha": [1.0],
                                   "betaX": 0, "betaM": 0, "betaXM": 0, "betaXX": 1}))
        assert main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0",
                     "--out", str(tmp_path / "o.csv")]) == EXIT_VALIDATION


class TestSimulateCommand:
    def test_writes_dataset_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        metadata, rows = read_csv(out)
        assert len(rows) == 300
        assert list(rows[0].keys()) == ["x", "m", "y"]
        assert metadata["seed"] == "7"
        assert "Philox" in metadata["rng"]
        ys = {int(r["y"]) for r in rows}
        assert ys <= {1, 2, 3, 4, 5}

    def test_identical_bytes_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(out1)])
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(out2)])
        body1 = [l for l in out1.read_text().splitlines() if not l.startswith("# command")]
        body2 = [l for l in out2.read_text().splitlines() if not l.startswith("# command")]
        assert body1 == body2

    def test_seed_is_mandatory(self, tmp_path):
        code = main(["simulate", *SPARSE_FLAGS, "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_VALIDATION


class TestFitCommand:
    def test_recovers_generating_parameters(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *J3_FLAGS, "--seed", "11", "--out", str(data_csv)])
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data_csv), "--out", str(out)]) == EXIT_OK
        metadata, rows = read_csv(out)
        est = {(r["model"], r["parameter"]): (float(r["estimate"]), float(r["std_error"])) for r in rows}
        truth = {
            ("mediator", "gamma0"): -1.0, ("mediator", "gammaX"): 0.5,
            ("outcome", "alpha1"): 2.5, ("outcome", "alpha2"): 5.5,
            ("outcome", "betaX"): 1.1, ("outcome", "betaM"): 0.7, ("outcome", "betaXM"): 0.5,
        }
        for key, true_value in truth.items():
            estimate, se = est[key]
            assert abs(estimate - true_value) <= 3 * se
        assert metadata["converged"] == "true"

    def test_missing_level_named_in_error(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,m,y\n0.1,0,1\n0.4,1,2\n0.9,0,2\n1.3,1,4\n0.6,0,4\n1.9,1,1\n")
        code = main(["fit", "--data", str(data_csv), "--levels", "4",
                     "--out", str(tmp_path / "fit.csv")])
        assert code == EXIT_VALIDATION
        assert "3" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *J3_FLAGS, "--n", "200", "--seed", "11", "--out", str(data_csv)])
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data_csv), "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["mediator_fit"]["converged"] is True
        assert set(payload["outcome_fit"]["parameters"]) == {"alpha1", "alpha2", "betaX", "betaM", "betaXM"}

    def test_separated_data_exits_convergence(self, tmp_path, capsys):
        rows = ["x,m,y"]
        for i in range(20):
            x = -0.0005 + i * 0.00005
            rows.append(f"{x},{int(x > 0)},{1 + i % 2}")
        data_csv = tmp_path / "sep.csv"
        data_csv.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit.csv")])
        assert code == EXIT_CONVERGENCE


class TestAnalyzeCommand:
    def test_full_report_json(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "64", "--seed", "17", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["bootstrap"]["B"] == 64
        assert payload["bootstrap"]["unreliable"] is False
        entry = payload["effects"][0]
        assert {"effect", "level", "log_odds_ratio", "odds_ratio",
                "boot_sd", "ci_lower", "ci_upper"} <= set(entry)
        assert entry["ci_lower"] <= entry["log_odds_ratio"] + 1.0
        assert payload["mediator_fit"]["parameters"]["gamma0"] == pytest.approx(-1.0, abs=1.0)

    def test_csv_report_with_params_sidecar(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        out = tmp_path / "report.csv"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "32", "--seed", "17", "--out", str(out)])
        assert code == EXIT_OK
        metadata, rows = read_csv(out)
        assert metadata["bootstrap-B"] == "32"
        assert {"boot_sd", "ci_lower", "ci_upper", "or_ci_lower", "or_ci_upper"} <= set(rows[0])
        assert all(float(r["ci_lower"]) <= float(r["ci_upper"]) for r in rows)
        _, param_rows = read_csv(tmp_path / "report_params.csv")
        assert {(r["model"], r["parameter"]) for r in param_rows} >= {("mediator", "gamma0"), ("outcome", "alpha4")}

    def test_bootstrap_reuses_its_full_data_fits(self, tmp_path, monkeypatch):
        # with the bootstrap on, the point fits come from bootstrap_effects;
        # analyze must not fit the full data a second time
        import ordmed.cli

        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        argv = ["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                "--bootstrap", "0", "--format", "json", "--out", str(tmp_path / "plain.json")]
        assert main(argv) == EXIT_OK

        def refit(data):
            raise AssertionError("full data fitted twice")

        monkeypatch.setattr(ordmed.cli, "fit_mediator", refit)
        monkeypatch.setattr(ordmed.cli, "fit_outcome", refit)
        out = tmp_path / "report.json"
        assert main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "8", "--seed", "17", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        plain = json.loads((tmp_path / "plain.json").read_text())
        report = json.loads(out.read_text())
        for key in ("mediator_fit", "outcome_fit"):
            assert report[key] == plain[key]
        assert [e["log_odds_ratio"] for e in report["effects"]] == [
            e["log_odds_ratio"] for e in plain["effects"]
        ]

    def test_bootstrap_zero_skips_ci_columns(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        out = tmp_path / "report.csv"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "0", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert set(rows[0].keys()) == {"effect", "level", "log_odds_ratio", "odds_ratio"}

    def test_seed_required_when_bootstrap_runs(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "16", "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_VALIDATION

    def test_declared_levels_validated_against_data(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *J3_FLAGS, "--n", "100", "--seed", "11", "--out", str(data_csv)])
        code = main(["analyze", "--data", str(data_csv), "--levels", "5",
                     "--x", "3.5", "--xstar", "2", "--bootstrap", "0",
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_VALIDATION

    def test_unreliable_bootstrap_exit_code(self, tmp_path):
        # rare end categories: most resamples lose an outcome level
        data_csv = tmp_path / "data.csv"
        main(["simulate", "--n", "30", "--mean-x", "0", "--sd-x", "1",
              "--gamma0", "0", "--gamma-x", "0", "--alpha", "-3.2,3.2",
              "--beta-x", "0.3", "--beta-m", "0.2", "--beta-xm", "0",
              "--seed", "24", "--out", str(data_csv)])
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "40", "--seed", "101", "--format", "json", "--out", str(out)])
        assert code == EXIT_UNRELIABLE
        payload = json.loads(out.read_text())  # report still written
        assert payload["bootstrap"]["unreliable"] is True

    def test_round_trip_matches_analyze_point_estimates(self, tmp_path):
        # simulate -> fit -> effects at the fitted parameters == the point
        # section of analyze on the same data
        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])

        fit_json = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data_csv), "--format", "json", "--out", str(fit_json)]) == EXIT_OK
        fitted = json.loads(fit_json.read_text())
        med = fitted["mediator_fit"]["parameters"]
        out_params = fitted["outcome_fit"]["parameters"]
        params = {
            "gamma0": med["gamma0"], "gammaX": med["gammaX"],
            "alpha": [out_params[f"alpha{j}"] for j in range(1, 5)],
            "betaX": out_params["betaX"], "betaM": out_params["betaM"], "betaXM": out_params["betaXM"],
        }
        params_json = tmp_path / "fitted_params.json"
        params_json.write_text(json.dumps(params))

        effects_json = tmp_path / "effects.json"
        assert main(["effects", "--params", str(params_json), "--x", "3.5", "--xstar", "2",
                     "--format", "json", "--out", str(effects_json)]) == EXIT_OK
        via_effects = {
            (e["effect"], e["level"]): e["log_odds_ratio"]
            for e in json.loads(effects_json.read_text())["effects"]
        }

        report_json = tmp_path / "report.json"
        assert main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "0", "--format", "json", "--out", str(report_json)]) == EXIT_OK
        via_analyze = {
            (e["effect"], e["level"]): e["log_odds_ratio"]
            for e in json.loads(report_json.read_text())["effects"]
        }
        assert set(via_effects) == set(via_analyze)
        for key in via_effects:
            assert via_effects[key] == pytest.approx(via_analyze[key], abs=1e-10)


class TestMcStudyCommand:
    def test_summary_and_raw_files(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main(["mc-study", *J3_FLAGS, "--n", "150", "--replications", "20",
                     "--x", "3.5", "--xstar", "2", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        metadata, rows = read_csv(out)
        assert metadata["replications"] == "20"
        assert len(rows) == 8  # 3 effects x 2 levels + 2 cde entries
        raw_meta, raw_rows = read_csv(tmp_path / "summary_raw.csv")
        n_ok = 20 - int(metadata["failures"])
        assert len(raw_rows) == 8 * n_ok
        assert {r["effect"] for r in raw_rows} == {"nde", "nie", "tce", "cde"}

    def test_deterministic_output(self, tmp_path):
        args = ["mc-study", *J3_FLAGS, "--n", "120", "--replications", "6",
                "--x", "3.5", "--xstar", "2", "--seed", "5"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert strip(out1) == strip(out2)

    def test_json_format_holds_everything(self, tmp_path):
        out = tmp_path / "study.json"
        code = main(["mc-study", *J3_FLAGS, "--n", "120", "--replications", "5",
                     "--x", "3.5", "--xstar", "2", "--seed", "5",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["summary"]) == 8
        assert len(payload["estimates"]) + len(payload["failed_replicates"]) == 5

    def test_full_scale_study_reproduces_published_columns(self, tmp_path):
        # 1000 replicates of the J=3 study through the CLI: summary means
        # within 0.03 and sds within 0.02 of the published Monte Carlo columns
        from conftest import J3_MC_MEAN, J3_MC_SD

        out = tmp_path / "summary.csv"
        code = main(["mc-study", *J3_FLAGS, "--replications", "1000",
                     "--x", "3.5", "--xstar", "2", "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        got = {(r["effect"], r["level"]): (float(r["mean_log"]), float(r["sd_log"])) for r in rows}
        published = {
            ("nde", "1"): (J3_MC_MEAN["nde"][0], J3_MC_SD["nde"][0]),
            ("nde", "2"): (J3_MC_MEAN["nde"][1], J3_MC_SD["nde"][1]),
            ("nie", "1"): (J3_MC_MEAN["nie"][0], J3_MC_SD["nie"][0]),
            ("nie", "2"): (J3_MC_MEAN["nie"][1], J3_MC_SD["nie"][1]),
            ("tce", "1"): (J3_MC_MEAN["tce"][0], J3_MC_SD["tce"][0]),
            ("tce", "2"): (J3_MC_MEAN["tce"][1], J3_MC_SD["tce"][1]),
            ("cde", "m1"): (J3_MC_MEAN["cde"][0], J3_MC_SD["cde"][0]),
            ("cde", "m0"): (J3_MC_MEAN["cde"][1], J3_MC_SD["cde"][1]),
        }
        for key, (mean_ref, sd_ref) in published.items():
            mean_got, sd_got = got[key]
            assert abs(mean_got - mean_ref) <= 0.03, key
            assert abs(sd_got - sd_ref) <= 0.02, key


class TestCovariatePath:
    def test_simulate_analyze_with_covariates(self, tmp_path):
        data_csv = tmp_path / "cov.csv"
        code = main(["simulate", "--n", "2000", "--mean-x", "3", "--sd-x", "1.5",
                     "--gamma0", "-1.0", "--gamma-x", "0.5", "--gamma-c", "0.4",
                     "--alpha", "2.5,5.5", "--beta-x", "1.1", "--beta-m", "0.7",
                     "--beta-xm", "0.5", "--beta-c", "-0.6",
                     "--cov-means", "0.5", "--cov-sds", "1.0",
                     "--seed", "33", "--out", str(data_csv)])
        assert code == EXIT_OK
        _, rows = read_csv(data_csv)
        assert list(rows[0].keys()) == ["x", "m", "y", "c1"]

        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--c", "0.5", "--bootstrap", "24", "--seed", "9",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        fit_m, fit_o = payload["mediator_fit"], payload["outcome_fit"]
        assert abs(fit_m["parameters"]["gammaC1"] - 0.4) <= 3 * fit_m["standard_errors"]["gammaC1"]
        assert abs(fit_o["parameters"]["betaC1"] + 0.6) <= 3 * fit_o["standard_errors"]["betaC1"]

    def test_query_covariates_must_match_data(self, tmp_path, capsys):
        data_csv = tmp_path / "cov.csv"
        main(["simulate", "--n", "100", "--mean-x", "3", "--sd-x", "1.5",
              "--gamma0", "-1.0", "--gamma-x", "0.5", "--gamma-c", "0.4",
              "--alpha", "2.5,5.5", "--beta-x", "1.1", "--beta-m", "0.7",
              "--beta-xm", "0.5", "--beta-c", "-0.6",
              "--cov-means", "0.5", "--cov-sds", "1.0",
              "--seed", "33", "--out", str(data_csv)])
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "0", "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_VALIDATION  # --c omitted while the data carry one covariate


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_VALIDATION
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["effects", "--bogus", "1"]) == EXIT_VALIDATION

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION

    def test_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        assert "header" in capsys.readouterr().err

    def test_invalid_record_reported_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,m,y\n0.5,0,1\n0.7,2,2\n")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "row 1" in err and "m" in err


COV_FLAGS = [
    "--n", "400", "--mean-x", "3", "--sd-x", "1.5",
    "--gamma0", "-1.0", "--gamma-x", "0.5", "--gamma-c", "0.4",
    "--alpha", "2.5,5.5", "--beta-x", "1.1", "--beta-m", "0.7",
    "--beta-xm", "0.5", "--beta-c", "-0.6",
    "--cov-means", "0.5", "--cov-sds", "1.0",
]


def run_both_formats(tmp_path, argv):
    """Run ``argv`` with --format csv and with --format json; return the CSV
    metadata and rows and the JSON document."""
    csv_out, json_out = tmp_path / "run.csv", tmp_path / "run.json"
    assert main([*argv, "--out", str(csv_out)]) == EXIT_OK
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == EXIT_OK
    metadata, rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    # the two command lines differ in --format and --out only
    assert {k: v for k, v in metadata.items() if k != "command"} == {
        k: v for k, v in payload["metadata"].items() if k != "command"
    }
    return rows, payload


def assert_same_records(rows, records):
    """CSV rows (strings) hold exactly the JSON records: same columns in the
    same order, null as an empty cell, floats to the last bit."""
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert list(row) == list(record)
        for key, value in record.items():
            if value is None:
                assert row[key] == "", (key, row)
            elif isinstance(value, float):
                assert float(row[key]) == value, (key, row)
            else:
                assert row[key] == str(value), (key, row)


def parameter_records(payload):
    return [
        {"model": model, "parameter": name, "estimate": value,
         "std_error": payload[f"{model}_fit"]["standard_errors"][name]}
        for model in ("mediator", "outcome")
        for name, value in payload[f"{model}_fit"]["parameters"].items()
    ]


class TestFormatParity:
    """Every CSV table and sidecar holds the records of the JSON document of
    the same run."""

    def test_effects(self, tmp_path):
        rows, payload = run_both_formats(tmp_path, [
            "effects", "--params", str(DATA_DIR / "params_j5.json"), "--x", "3.5", "--xstar", "2"])
        assert_same_records(rows, payload["effects"])

    def test_fit(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", *COV_FLAGS, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        rows, payload = run_both_formats(tmp_path, ["fit", "--data", str(data_csv)])
        assert_same_records(rows, parameter_records(payload))

    @pytest.mark.parametrize(
        "flags, extra",
        [
            (SPARSE_FLAGS, ["--bootstrap", "16", "--seed", "17"]),
            (SPARSE_FLAGS, ["--bootstrap", "1", "--seed", "17"]),  # boot_sd is null
            (SPARSE_FLAGS, ["--bootstrap", "0"]),
            (COV_FLAGS, ["--c", "0.5", "--bootstrap", "8", "--seed", "3"]),
        ],
        ids=["bootstrap", "one-resample", "no-bootstrap", "covariate"],
    )
    def test_analyze(self, tmp_path, flags, extra):
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", *flags, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        rows, payload = run_both_formats(tmp_path, [
            "analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2", *extra])
        assert_same_records(rows, payload["effects"])
        _, param_rows = read_csv(tmp_path / "run_params.csv")
        assert_same_records(param_rows, parameter_records(payload))

    def test_mc_study(self, tmp_path):
        rows, payload = run_both_formats(tmp_path, [
            "mc-study", *J3_FLAGS, "--n", "120", "--replications", "6",
            "--x", "3.5", "--xstar", "2", "--seed", "5"])
        assert_same_records(rows, payload["summary"])
        _, raw_rows = read_csv(tmp_path / "run_raw.csv")
        labels = [(entry["effect"], entry["level"]) for entry in payload["summary"]]
        assert_same_records(raw_rows, [
            {"replicate": estimate["replicate"], "effect": effect, "level": level,
             "log_estimate": value}
            for estimate in payload["estimates"]
            for (effect, level), value in zip(labels, estimate["values"])
        ])
