"""Command-line surface: file schemas, exit codes, reproducibility, and the
round-trip between simulate/fit/effects and analyze."""

import contextlib
import csv
import ctypes
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ordmed.cli
import ordmed.effects
import ordmed.inference
from ordmed import DegenerateDataError
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

# rare end categories: most bootstrap resamples lose an outcome level
RARE_END_FLAGS = [
    "--n", "30", "--mean-x", "0", "--sd-x", "1",
    "--gamma0", "0", "--gamma-x", "0", "--alpha", "-3.2,3.2",
    "--beta-x", "0.3", "--beta-m", "0.2", "--beta-xm", "0",
]
# m = 1 exactly when x > 0: the mediator fit is separated
SEPARATED_ROWS = "x,m,y\n" + "".join(
    f"{x},{int(x > 0)},{1 + i % 2}\n" for i, x in ((i, -0.0005 + i * 0.00005) for i in range(20))
)


# the exit codes of the README table
README_CODES = {EXIT_OK, EXIT_VALIDATION, EXIT_CONVERGENCE, EXIT_UNRELIABLE, EXIT_INTERNAL}
# magnitudes at both ends of double precision, subnormals and signed zeros included
EXTREME = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-308, 1e-154, 1.0, -1.0,
    1e154, -1e154, 1e300, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
])


@st.composite
def extreme_commands(draw):
    """A command, the parameter file it reads (None if it reads none) and
    its flags but --format and --out, at extreme magnitudes: every parameter
    and the query of ``effects``, the exposure moments of ``simulate``, and
    the query of ``analyze`` (a sparse CSV, B=4) and ``mc-study`` (J=3, n=50,
    R=3).  Data values and study designs of that size are out of scope until
    the fits scale their designs."""
    command = draw(st.sampled_from(["effects", "simulate", "analyze", "mc-study"]))
    if command == "simulate":
        return command, None, [*J3_FLAGS, "--n", "20", "--mean-x", repr(draw(EXTREME)),
                               "--sd-x", repr(draw(EXTREME)), "--seed", "3"]
    query = ["--x", repr(draw(EXTREME)), "--xstar", repr(draw(EXTREME))]
    if command == "effects":
        params = {name: draw(EXTREME) for name in ("gamma0", "gammaX", "betaX", "betaM", "betaXM")}
        params["alpha"] = sorted(draw(st.lists(EXTREME, min_size=1, max_size=3, unique=True)))
        return command, params, query
    if command == "analyze":
        return command, None, [*query, "--bootstrap", "4", "--seed", "3"]
    return command, None, [*J3_FLAGS, "--n", "50", "--replications", "3", "--seed", "3", *query]


@pytest.fixture(scope="module")
def sparse_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sparse") / "data.csv"
    assert main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(path)]) == EXIT_OK
    return path


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

    @pytest.mark.parametrize("x", ["3e6", "1e7", "1e10"])
    def test_large_effects_pass_the_decomposition_check(self, tmp_path, x):
        # one rounding of a log TCE beyond about 5e5 exceeds 1e-10, so the
        # check's bound is relative there and these valid tables are written
        for fmt in ("csv", "json"):
            out = tmp_path / f"effects.{fmt}"
            assert main(["effects", "--params", str(DATA_DIR / "params_j3.json"), "--x", x, "--xstar", "0",
                         "--format", fmt, "--out", str(out)]) == EXIT_OK
        cde = [e["log_odds_ratio"] for e in json.loads(out.read_text())["effects"] if e["effect"] == "cde"]
        assert cde == [(1.1 + 0.5) * float(x), 1.1 * float(x)]

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
        data_csv = tmp_path / "sep.csv"
        data_csv.write_text(SEPARATED_ROWS)
        code = main(["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit.csv")])
        assert code == EXIT_CONVERGENCE

    def test_recorded_command_line_is_the_run(self, tmp_path):
        # a path with a space and a "$" is recorded shell-quoted, so the
        # metadata's command line splits back into the argv that ran
        data_csv = tmp_path / "my $data.csv"
        main(["simulate", *J3_FLAGS, "--n", "200", "--seed", "11", "--out", str(data_csv)])
        argv = ["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit out.csv")]
        assert main(argv) == EXIT_OK
        metadata, _ = read_csv(tmp_path / "fit out.csv")
        assert shlex.split(metadata["command"]) == ["ordmed", *argv]
        argv = ["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2", "--bootstrap", "0",
                "--format", "json", "--out", str(tmp_path / "report $x.json")]
        assert main(argv) == EXIT_OK
        payload = json.loads((tmp_path / "report $x.json").read_text())
        assert shlex.split(payload["metadata"]["command"]) == ["ordmed", *argv]

    def test_recorded_command_line_with_line_breaks_stays_one_line(self, tmp_path):
        # a path holding line breaks, a quote and a backslash is recorded in
        # bash's $'...' quoting: every metadata item stays one "#" line, the
        # other arguments keep their shlex quoting, bash reads the command
        # back as the argv that ran, and JSON keeps shlex.join's form
        data_csv = tmp_path / "a\nb\r'c\\d\u2028e\x85.csv"
        quoted = f"$'{tmp_path}/a\\nb\\r\\'c\\\\d\\u2028e\\u0085.csv'"
        simulate = ["simulate", *J3_FLAGS, "--n", "200", "--seed", "11", "--out", str(data_csv)]
        fit = ["fit", "--data", str(data_csv), "--out", str(tmp_path / "nl fit.csv")]
        for argv, out in ((simulate, data_csv), (fit, tmp_path / "nl fit.csv")):
            assert main(argv) == EXIT_OK
            text = out.read_text(encoding="utf-8")
            lines = text.splitlines()
            header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            assert text.count("\n") == len(lines)  # no other character breaks a line
            assert lines[header] in ("x,m,y", "model,parameter,estimate,std_error")
            command = lines[1].removeprefix("# command: ")
            assert command == shlex.join(["ordmed", *argv]).replace(shlex.quote(str(data_csv)), quoted)
            words = subprocess.run(["bash", "-c", "printf '%s\\0' " + command], capture_output=True, check=True,
                                   env={**os.environ, "LC_ALL": "C.UTF-8"}).stdout.decode().split("\0")
            assert words == ["ordmed", *argv, ""]
        argv = ["fit", "--data", str(data_csv), "--format", "json", "--out", str(tmp_path / "nl fit.json")]
        assert main(argv) == EXIT_OK
        payload = json.loads((tmp_path / "nl fit.json").read_text(encoding="utf-8"))
        assert payload["metadata"]["command"] == shlex.join(["ordmed", *argv])


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
        main(["simulate", *RARE_END_FLAGS, "--seed", "24", "--out", str(data_csv)])
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

    def test_raw_out_may_not_be_the_summary_file(self, tmp_path, capsys, monkeypatch):
        def study(*args):
            raise AssertionError("the study ran")

        monkeypatch.setattr(ordmed.cli, "monte_carlo_study", study)
        out = tmp_path / "s.csv"
        code = main(["mc-study", *J3_FLAGS, "--replications", "5", "--x", "3.5", "--xstar", "2",
                     "--seed", "5", "--out", str(out), "--raw-out", f"{tmp_path}/sub/../s.csv"])
        assert code == EXIT_VALIDATION
        assert "is the --out file" in capsys.readouterr().err
        assert not out.exists()

    def test_raw_out_is_refused_under_json(self, tmp_path, capsys, monkeypatch):
        # the JSON document holds every estimate; --raw-out would be ignored
        def study(*args):
            raise AssertionError("the study ran")

        monkeypatch.setattr(ordmed.cli, "monte_carlo_study", study)
        out, raw = tmp_path / "s.json", tmp_path / "raw.csv"
        code = main(["mc-study", *J3_FLAGS, "--replications", "5", "--x", "3.5", "--xstar", "2",
                     "--seed", "5", "--format", "json", "--out", str(out), "--raw-out", str(raw)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--raw-out" in err and "--format json" in err
        assert not out.exists() and not raw.exists()

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

    def test_comment_only_file_has_no_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# tool: ordmed\n\n# seed: 7\n   \n")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        assert f"{bad}: no header row found" in capsys.readouterr().err

    def test_invalid_record_reported_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,m,y\n0.5,0,1\n0.7,2,2\n")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "row 1" in err and "m" in err


SIX_ROWS = "x,m,y\n0.1,0,1\n0.4,1,2\n0.9,0,2\n1.3,1,1\n0.6,0,2\n1.9,1,1\n"


class TestInputRules:
    """Each input rule is decided once, in the library: the CLI exits 1 with
    the row and field, or the parameter, and never with a traceback."""

    @pytest.mark.parametrize("y, reason", [
        ("inf", "row 2: field y: value must be finite"),
        ("1e300", "row 2: field y: must be an integer in 1..3"),
    ])
    def test_inferred_levels(self, tmp_path, capsys, y, reason):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(f"x,m,y\n0.1,0,1\n0.4,1,2\n0.9,0,{y}\n")
        assert main(["fit", "--data", str(data_csv), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        assert reason in capsys.readouterr().err

    def test_header_only_file_is_empty(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,m,y\n")
        assert main(["fit", "--data", str(data_csv), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        assert "dataset is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("comment", ["", "# tool: spreadsheet\n"], ids=["header-first", "comment-first"])
    def test_byte_order_mark_is_skipped(self, tmp_path, comment):
        # spreadsheet tools save "CSV UTF-8" with a leading U+FEFF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(comment + SIX_ROWS, encoding="utf-8")
        marked.write_text("\ufeff" + comment + SIX_ROWS, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ordmed.cli._read_data_csv(marked) == ordmed.cli._read_data_csv(plain)
        assert main(["fit", "--data", str(marked), "--out", str(tmp_path / "f.csv")]) == EXIT_OK

    def test_single_level_still_rejected(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,m,y\n0.1,0,1\n0.4,1,1\n")
        assert main(["fit", "--data", str(data_csv), "--out", str(tmp_path / "f.csv")]) == EXIT_VALIDATION
        assert "J must be a whole number >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_analyze_seed_rule_is_the_simulate_seed_rule(self, tmp_path, capsys, seed):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(SIX_ROWS)
        code = main(["analyze", "--data", str(data_csv), "--x", "1", "--xstar", "0",
                     "--bootstrap", "4", "--seed", seed, "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_VALIDATION
        assert f"seed must be a whole number in [0, {2**64})" in capsys.readouterr().err
        code = main(["simulate", *SPARSE_FLAGS, "--seed", seed, "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_VALIDATION
        assert f"seed must be a whole number in [0, {2**64})" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, reason", [
        (["--seed", "-1"], f"seed must be a whole number in [0, {2**64})"),
        (["--level", "1.5"], "level must lie in (0, 1), got 1.5"),
        (["--c", ","], "every entry of c must be a real number, got ''"),
    ])
    def test_analyze_checks_seed_and_level_without_the_bootstrap(self, tmp_path, capsys, flags, reason):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(SIX_ROWS)
        out = tmp_path / "r.csv"
        code = main(["analyze", "--data", str(data_csv), "--x", "1", "--xstar", "0",
                     "--bootstrap", "0", *flags, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_more_levels_than_records_fail_fast(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(SIX_ROWS)
        code = main(["fit", "--data", str(data_csv), "--levels", "2000000", "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "2000000 outcome levels but only 6 records" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("levels", [2**40, 2**63 - 1])
    def test_more_levels_than_memory_fail_as_too_few_records(self, tmp_path, capsys, levels):
        # nothing is sized by J before the check that J exceeds the records
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,m,y\n0.1,0,1\n0.5,1,2\n0.9,0,1\n")
        code = main(["fit", "--data", str(data_csv), "--levels", str(levels), "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_VALIDATION
        assert f"{levels} outcome levels but only 3 records" in capsys.readouterr().err

    def test_levels_beyond_the_outcome_storage(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,m,y\n0.1,0,1e20\n")
        code = main(["fit", "--data", str(data_csv), "--levels", str(10**30), "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_VALIDATION
        assert f"J must be a whole number in [2, {2**63})" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, reason", [
        (["--alpha", "-0.9,x"], "every entry of alpha must be a real number, got 'x'"),
        (["--alpha", "2.5,,5.5"], "every entry of alpha must be a real number, got ''"),
        (["--alpha", "-0.9,0.9,2.2,3.5,"], "every entry of alpha must be a real number, got ''"),
        (["--cov-means", "inf", "--cov-sds", "1", "--gamma-c", "0", "--beta-c", "0"],
         "every entry of cov_means must be finite"),
        (["--n", "0"], "n must be a whole number >= 1"),
    ])
    def test_design_flags_are_parsed_by_the_models(self, tmp_path, capsys, flags, reason):
        code = main(["simulate", *SPARSE_FLAGS, *flags, "--seed", "1", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_VALIDATION
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["mc-study", "--replications", "2", "--x", "3.5",
                                                          "--xstar", "2", "--c", "0,0"]])
    @pytest.mark.parametrize("cov_flags, missing", [
        ([], "missing: --cov-means and --cov-sds"),
        (["--cov-means", "0,0"], "missing: --cov-sds"),
        (["--cov-sds", "1,1"], "missing: --cov-means"),
    ])
    def test_covariate_coefficients_without_a_covariate_generator(self, tmp_path, capsys, command, cov_flags,
                                                                   missing):
        # the generator's covariate count comes from --cov-means/--cov-sds, so
        # the message names those flags, not a dimension of size 0
        out = tmp_path / "s.csv"
        code = main([command[0], *SPARSE_FLAGS, *command[1:], "--gamma-c", "0.3,-0.2", "--beta-c", "0.2,0.1",
                     *cov_flags, "--seed", "9", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--gamma-c/--beta-c give 2 covariate coefficient(s)" in err
        assert "need 2 value(s) each" in err and missing in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "mc-study"])
    @pytest.mark.parametrize("flags, reason", [
        (["--mean-x", "1e308", "--sd-x", "1e308"], "simulating x overflows double precision; check mean_x and sd_x"),
        (["--cov-means", "1e308", "--cov-sds", "1e308", "--gamma-c", "0", "--beta-c", "0"],
         "simulating the covariates overflows double precision; check cov_means and cov_sds"),
        (["--gamma-x", "1e308"], "simulating the mediator predictor overflows double precision; "
                                 "check the mediator coefficients"),
        (["--beta-x", "-1e308", "--beta-xm", "1e308"], "simulating the outcome predictor overflows double "
                                                       "precision; check the outcome coefficients"),
    ], ids=["x", "covariates", "mediator", "outcome"])
    def test_overflowing_draws_are_named(self, tmp_path, capsys, command, flags, reason):
        # finite design values whose draws overflow exit 1, under each output
        # format, with one message and no output; a RuntimeWarning would
        # fail the test
        runs = [[]]
        if command == "mc-study":
            query = ["--replications", "2", "--x", "3.5", "--xstar", "2"] + (["--c", "0"] if "--gamma-c" in flags else [])
            runs = [[*query, "--format", "csv"], [*query, "--format", "json"]]
        for run in runs:
            out = tmp_path / "s.out"
            code = main([command, *J3_FLAGS, "--n", "50", *flags, *run, "--seed", "3", "--out", str(out)])
            assert code == EXIT_VALIDATION and not out.exists()
            assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("case", ["parameters", "query", "mc-study", "analyze"])
    def test_overflowing_effects_are_named(self, tmp_path, capsys, case):
        # finite inputs whose effect table overflows exit 1 under each output
        # format, with one message that names the query and no output; a
        # RuntimeWarning would fail the test
        huge = {"gamma0": 1e308, "gammaX": -1e308, "alpha": [-1e308, 1e308],
                "betaX": 1e308, "betaM": -1e308, "betaXM": 1e308}
        params_json = tmp_path / "huge.json"
        params_json.write_text(json.dumps(huge))
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        extreme = ["--x", "1e308", "--xstar", "-1e308"]
        argv, query = {
            "parameters": (["effects", "--params", str(params_json), "--x", "3.5", "--xstar", "2"],
                           "x=3.5, xstar=2.0, c=()"),
            "query": (["effects", "--params", str(DATA_DIR / "params_j3.json"), *extreme],
                      "x=1e+308, xstar=-1e+308, c=()"),
            "mc-study": (["mc-study", *J3_FLAGS, "--n", "120", "--replications", "6", "--seed", "5", *extreme],
                         "x=1e+308, xstar=-1e+308, c=()"),
            "analyze": (["analyze", "--data", str(data_csv), *extreme, "--bootstrap", "20", "--seed", "3"],
                        "x=1e+308, xstar=-1e+308, c=()"),
        }[case]
        errors = []
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == EXIT_VALIDATION
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert re.fullmatch(rf"error: the effects at {re.escape(query)} overflow double precision with mediator "
                            r"parameters \[.*\] and outcome parameters \[.*\]\n", errors[0])
        if case == "parameters":
            assert "mediator parameters [1e+308, -1e+308]" in errors[0]

    @pytest.mark.parametrize("command", ["analyze", "mc-study"])
    def test_overflowing_summaries_are_named(self, tmp_path, capsys, command):
        # finite effect rows whose bootstrap or study summary overflows exit 1
        # under each output format, with one message that names the query and
        # no output; a RuntimeWarning would fail the test
        extreme = ["--x", "1e300", "--xstar", "-1e300"]
        if command == "analyze":
            data_csv = tmp_path / "data.csv"
            assert main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
            argv = ["analyze", "--data", str(data_csv), *extreme, "--bootstrap", "20", "--seed", "3"]
        else:
            argv = ["mc-study", *J3_FLAGS, "--n", "50", "--replications", "4", "--seed", "3", *extreme]
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == EXIT_VALIDATION
            assert not out.exists()
            assert capsys.readouterr().err == ("error: the summary of the effects at x=1e+300, xstar=-1e+300, c=() "
                                               "overflows double precision\n")

    @pytest.mark.parametrize("command, fmt", [("simulate", "csv"), ("mc-study", "csv"), ("mc-study", "json")])
    def test_requests_larger_than_memory_are_named(self, tmp_path, capsys, monkeypatch, command, fmt):
        # the allocation failure is injected: a real oversized request could
        # be granted by a host that overcommits memory, and then kill the run
        message = "Unable to allocate 745. GiB for an array with shape (1, 100000000000) and data type float64"

        def oversized(*args):
            raise MemoryError(message)

        monkeypatch.setattr(ordmed.cli, "simulate_dataset", oversized)
        monkeypatch.setattr(ordmed.cli, "monte_carlo_study", oversized)
        out = tmp_path / f"report.{fmt}"
        run = ["--replications", "5", "--x", "3.5", "--xstar", "2", "--format", fmt] if command == "mc-study" else []
        code = main([command, *J3_FLAGS, "--n", "50", *run, "--seed", "3", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=extreme_commands())
    def test_extreme_magnitudes_exit_with_a_readme_code(self, sparse_csv, case):
        # no exception escapes main (a RuntimeWarning fails the test too), and
        # both formats give one exit code and one message
        command, params, flags = case
        inputs = {"effects": ["--params", str(sparse_csv.with_name("params.json"))],
                  "analyze": ["--data", str(sparse_csv)]}.get(command, [])
        if params is not None:
            sparse_csv.with_name("params.json").write_text(json.dumps(params))
        results = []
        for fmt in ["csv"] if command == "simulate" else ["csv", "json"]:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, *inputs, *flags, *(["--format", fmt] if command != "simulate" else []),
                             "--out", str(sparse_csv.with_name(f"out.{fmt}"))])
            results.append((code, stderr.getvalue()))
        assert results[0][0] in README_CODES, results
        assert results[-1] == results[0]

    @pytest.mark.parametrize("flags", [
        ["--x", "-.5"], ["--x", "-0.5"], ["--x", "-5"], ["--x", "-1e3"], ["--x", "-1E-3"],
        ["--alpha", "-.9,.9"], ["--x", "-inf"],
    ], ids=["dot", "zero-dot", "whole", "exponent", "upper-exponent", "list", "inf"])
    def test_negative_values_are_not_flags(self, tmp_path, capsys, flags):
        # a value after a flag that starts with "-" and a digit, ".", "inf" or
        # "nan" is the flag's value, as with "--flag=value"
        flag, value = flags
        out = tmp_path / "out.csv"
        if flag == "--alpha":
            code = main(["simulate", *SPARSE_FLAGS, "--seed", "1", "--out", str(out), flag, value])
            equals = main(["simulate", *SPARSE_FLAGS, "--seed", "1", "--out", str(tmp_path / "eq.csv"),
                           f"{flag}={value}"])
        else:
            query = ["effects", "--params", str(DATA_DIR / "params_j3.json"), "--xstar", "2"]
            code = main([*query, "--out", str(out), flag, value])
            equals = main([*query, "--out", str(tmp_path / "eq.csv"), f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == equals
        if value == "-inf":
            assert code == EXIT_VALIDATION and err == "error: x must be finite, got -inf\n" * 2
        else:
            assert code == EXIT_OK and err == ""
            metadata, rows = read_csv(out)
            assert rows == read_csv(tmp_path / "eq.csv")[1]
            if flag == "--x":
                assert metadata["x"] == repr(float(value))

    def test_negative_bootstrap_follows_the_resample_count_rule(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(SIX_ROWS)
        code = main(["analyze", "--data", str(data_csv), "--x", "1", "--xstar", "0",
                     "--bootstrap", "-3", "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_VALIDATION
        assert "B must be a whole number >= 1, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("alpha", "123"), ("alpha", 2.0), ("gammaC", "7"), ("gamma0", None)])
    def test_parameter_file_values_are_checked_by_the_models(self, tmp_path, capsys, field, value):
        # a JSON string is no threshold vector, and null is no real
        params = {"gamma0": 0, "gammaX": 0, "alpha": [0.0, 1.0], "betaX": 0, "betaM": 0, "betaXM": 0, field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(params))
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--out", str(tmp_path / "e.csv")])
        assert code == EXIT_VALIDATION
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"gamma0"'])
    def test_parameter_file_must_be_an_object(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--out", str(tmp_path / "e.csv")])
        assert code == EXIT_VALIDATION
        assert f"parameter file {bad}: expected a JSON object" in capsys.readouterr().err

    def test_parameter_file_must_be_valid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"gamma0": -1.0,')
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--out", str(tmp_path / "e.csv")])
        assert code == EXIT_VALIDATION
        assert f"parameter file {bad}: invalid JSON" in capsys.readouterr().err

    def test_parameter_file_names_its_missing_fields(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamma0": -1.0, "gammaX": 0.5, "betaX": 1.1}))
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--out", str(tmp_path / "e.csv")])
        assert code == EXIT_VALIDATION
        assert "missing field(s) ['alpha', 'betaM', 'betaXM']" in capsys.readouterr().err

    def test_parameter_file_covariate_counts_must_agree(self, tmp_path, capsys):
        # the effects core's dimension rule answers a gammaC without a betaC
        params = {"gamma0": -1.0, "gammaX": 0.5, "gammaC": [0.4], "alpha": [2.5, 5.5],
                  "betaX": 1.1, "betaM": 0.7, "betaXM": 0.5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(params))
        out = tmp_path / "e.csv"
        code = main(["effects", "--params", str(bad), "--x", "1", "--xstar", "0", "--c", "0", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "mediator model has 1 covariate(s) but outcome model has 0" in capsys.readouterr().err
        assert not out.exists()

    def test_all_failed_bootstrap_exits_validation_without_a_report(self, tmp_path, capsys, monkeypatch):
        # exit 3 flags a written report; with every resample failed there is
        # no interval to report
        def all_fail(stack):
            S, _, p = stack.covariates.shape
            return np.empty((0, 2 + p)), np.empty((0, stack.J + 2 + p)), [DegenerateDataError("forced")] * S

        data_csv = tmp_path / "data.csv"
        main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)])
        monkeypatch.setattr(ordmed.inference, "_fit_pairs", all_fail)
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                     "--bootstrap", "8", "--seed", "17", "--format", "json", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "all 8 bootstrap resamples failed" in capsys.readouterr().err
        assert not out.exists()


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

    def test_effects_with_an_overflowing_odds_ratio(self, tmp_path):
        # exp(1500) overflows a float: the odds ratio is null, its log stays exact
        params = json.loads((DATA_DIR / "params_j3.json").read_text())
        params_json = tmp_path / "params.json"
        params_json.write_text(json.dumps({**params, "betaX": 1000}))
        rows, payload = run_both_formats(tmp_path, [
            "effects", "--params", str(params_json), "--x", "3.5", "--xstar", "2"])
        assert_same_records(rows, payload["effects"])
        assert [e["odds_ratio"] for e in payload["effects"] if e["effect"] == "cde"] == [None, None]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_writers_refuse_the_same_values(self, value):
        # json.dump as the report writer calls it: with indent, the Python
        # encoder names the value
        with pytest.raises(ValueError) as refused:
            json.dumps([value], indent=2, allow_nan=False)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            ordmed.cli._cell(value)

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


class TestFailedWrites:
    """A command that fails while it writes leaves no output file and no
    temporary behind, and a file already at an output path keeps its bytes."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_refused_value_leaves_no_partial_report(self, tmp_path, monkeypatch, capsys, fmt, existing):
        out = tmp_path / f"effects.{fmt}"
        if existing:
            out.write_text("previous report\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(ordmed.cli, "_odds_ratio", lambda log_odds_ratio: math.nan)
        code = main(["effects", "--params", str(DATA_DIR / "params_j3.json"), "--x", "3.5", "--xstar", "2",
                     "--format", fmt, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: Out of range float values are not JSON compliant: nan\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command, fmt, failing", [
        ("effects", "csv", 0), ("effects", "json", 0), ("simulate", "csv", 0),
        ("analyze", "csv", 0), ("analyze", "csv", 1), ("analyze", "json", 0),
        ("mc-study", "csv", 0), ("mc-study", "csv", 1), ("mc-study", "json", 0),
    ])
    def test_a_full_disk_leaves_every_output_as_it_was(self, tmp_path, monkeypatch, capsys, command, fmt, failing):
        # the file ``failing`` of the command's outputs stops with ENOSPC part
        # of the way through; only the --out file exists beforehand
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        out = tmp_path / f"report.{fmt}"
        argv = {
            "effects": ["effects", "--params", str(DATA_DIR / "params_j3.json"), "--x", "3.5", "--xstar", "2"],
            "simulate": ["simulate", *SPARSE_FLAGS, "--seed", "8"],
            "analyze": ["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2", "--bootstrap", "8",
                        "--seed", "17"],
            "mc-study": ["mc-study", *J3_FLAGS, "--n", "120", "--replications", "6", "--x", "3.5", "--xstar", "2",
                         "--seed", "5"],
        }[command] + (["--format", fmt] if command != "simulate" else []) + ["--out", str(out)]
        out.write_text("previous report\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        full_disk = OSError(28, "No space left on device")
        written = []

        def rows_until_full(rows):
            yield next(iter(rows))
            raise full_disk

        class Unencodable(dict):
            # the indented JSON writer encodes a dict through its items()
            def items(self):
                raise full_disk

        def write_csv(path, metadata, header, rows, real=ordmed.cli._write_csv):
            written.append(path)
            real(path, metadata, header, rows_until_full(rows) if len(written) - 1 == failing else rows)

        def write_json(path, document, real=ordmed.cli._write_json):
            written.append(path)
            real(path, {**document, "last": Unencodable(value=0)})

        monkeypatch.setattr(ordmed.cli, "_write_csv", write_csv)
        monkeypatch.setattr(ordmed.cli, "_write_json", write_json)
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert len(written) == failing + 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestOwnFiles:
    """A command whose output resolves to its input or to another of its
    outputs exits 1 before any work, names both flags, and leaves every file
    as it was (mc-study's two outputs: ``test_raw_out_may_not_be_the_summary_file``)."""

    @pytest.mark.parametrize("command", ["fit", "analyze", "effects"])
    def test_no_output_over_an_input_or_an_output(self, tmp_path, monkeypatch, capsys, command):
        data_csv = tmp_path / "g_params.csv"
        assert main(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        params = tmp_path / "p.json"
        params.write_bytes((DATA_DIR / "params_j3.json").read_bytes())
        query = ["--x", "3.5", "--xstar", "2"]
        argv, flags = {
            "fit": (["fit", "--data", str(data_csv), "--out", f"{tmp_path}/sub/../g_params.csv"],
                    ("--out", "--data")),
            "analyze": (["analyze", "--data", str(data_csv), *query, "--bootstrap", "0", "--out", f"{tmp_path}/g.csv"],
                        ("--out's _params.csv table", "--data")),
            "effects": (["effects", "--params", str(params), *query, "--format", "json", "--out", str(params)],
                        ("--out", "--params")),
        }[command]
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def work(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("_read_data_csv", "_load_params"):
            monkeypatch.setattr(ordmed.cli, name, work)
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]} ") and f" is the {flags[1]} file " in err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestProcessEntry:
    """``python -m ordmed.cli`` ends through ``run``: the exit codes and the
    output bytes are those of ``main`` in-process."""

    def env(self):
        src = str(Path(ordmed.cli.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def process(self, argv, python_args=("-m", "ordmed.cli")):
        return subprocess.run([sys.executable, *python_args, *argv], env=self.env(),
                              capture_output=True, text=True, timeout=300)

    def minor_faults(self, argv):
        # minor page faults of the argv run through ``run`` and through ``main``
        faults = []
        for python_args in (("-m", "ordmed.cli"),
                            ("-c", "import sys; from ordmed.cli import main; sys.exit(main(sys.argv[1:]))")):
            pid = os.posix_spawn(sys.executable, [sys.executable, *python_args, *argv], self.env())
            _, status, usage = os.wait4(pid, 0)
            assert os.waitstatus_to_exitcode(status) == EXIT_OK
            faults.append(usage.ru_minflt)
        return faults

    def assert_same_outputs(self, argv, outputs, code):
        assert self.process(argv).returncode == code
        written = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        assert main(argv) == code
        assert [path.read_bytes() for path in outputs] == written

    def test_successes_write_the_in_process_bytes(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        self.assert_same_outputs(["simulate", *SPARSE_FLAGS, "--seed", "7", "--out", str(data_csv)],
                                 [data_csv], EXIT_OK)
        out = tmp_path / "report.csv"
        self.assert_same_outputs(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                                  "--bootstrap", "32", "--seed", "17", "--out", str(out)],
                                 [out, tmp_path / "report_params.csv"], EXIT_OK)

    def test_unreliable_bootstrap_writes_the_in_process_report(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        main(["simulate", *RARE_END_FLAGS, "--seed", "24", "--out", str(data_csv)])
        out = tmp_path / "report.json"
        self.assert_same_outputs(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                                  "--bootstrap", "40", "--seed", "101", "--format", "json", "--out", str(out)],
                                 [out], EXIT_UNRELIABLE)

    def test_failures_exit_with_their_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        proc = self.process(["effects", "--params", str(bad), "--x", "1", "--xstar", "0",
                             "--out", str(tmp_path / "e.csv")])
        assert proc.returncode == EXIT_VALIDATION
        assert "expected a JSON object" in proc.stderr

        data_csv = tmp_path / "sep.csv"
        data_csv.write_text(SEPARATED_ROWS)
        proc = self.process(["fit", "--data", str(data_csv), "--out", str(tmp_path / "fit.csv")])
        assert proc.returncode == EXIT_CONVERGENCE
        assert proc.stderr.startswith("error: ")
        assert not (tmp_path / "fit.csv").exists()

    def test_module_entry_freezes_the_heap_before_exit(self, tmp_path):
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                  "runpy.run_module('ordmed.cli', run_name='__main__', alter_sys=True)\n")
        proc = self.process(["effects", "--params", str(DATA_DIR / "params_j3.json"), "--x", "3.5",
                             "--xstar", "2", "--out", str(tmp_path / "e.csv")], python_args=("-c", script))
        assert proc.returncode == EXIT_OK
        assert int(proc.stderr.split("frozen ")[1]) > 10000

    def test_main_leaves_collection_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "3.5", "--xstar", "2", "--out", str(tmp_path / "e.csv")]) == EXIT_OK
        assert gc.get_freeze_count() == frozen

    @pytest.mark.skipif(ordmed.cli._mallopt() is None, reason="libc has no glibc mallopt")
    def test_entry_keeps_the_freed_heap_of_a_study(self, tmp_path):
        # the library's own bound under glibc's defaults is in test_inference.py
        run, plain = self.minor_faults(["mc-study", *J3_FLAGS, "--replications", "200", "--x", "3.5",
                                        "--xstar", "2", "--seed", "11", "--out", str(tmp_path / "s.csv")])
        assert run <= plain

    @pytest.mark.skipif(ordmed.cli._mallopt() is None, reason="libc has no glibc mallopt")
    def test_entry_keeps_large_bootstrap_arrays_off_fresh_pages(self, tmp_path):
        # with the trim threshold alone glibc stops raising its mmap threshold,
        # and every n=2000 kernel temporary is mapped and faulted in afresh
        data_csv = tmp_path / "data.csv"
        assert main(["simulate", *J3_FLAGS, "--n", "2000", "--seed", "3", "--out", str(data_csv)]) == EXIT_OK
        run, plain = self.minor_faults(["analyze", "--data", str(data_csv), "--x", "3.5", "--xstar", "2",
                                        "--bootstrap", "200", "--seed", "17", "--out", str(tmp_path / "r.csv")])
        assert run < plain

    def test_main_leaves_the_allocator_alone(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ordmed.cli, "_keep_freed_heap", lambda: calls.append(1))
        assert main(["effects", "--params", str(DATA_DIR / "params_j3.json"),
                     "--x", "3.5", "--xstar", "2", "--out", str(tmp_path / "e.csv")]) == EXIT_OK
        assert calls == []

    @pytest.mark.parametrize("libc", [OSError("no libc.so.6"), object()], ids=["no-libc", "no-mallopt"])
    def test_run_without_glibc_returns_the_status_of_main(self, tmp_path, monkeypatch, libc):
        def cdll(name):
            if isinstance(libc, Exception):
                raise libc
            return libc
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(gc, "freeze", lambda: None)  # keep the test process's collections
        argv = ["effects", "--params", str(DATA_DIR / "params_j3.json"), "--x", "3.5", "--xstar", "2"]
        assert ordmed.cli.run([*argv, "--out", str(tmp_path / "e.csv")]) == EXIT_OK
        assert ordmed.cli.run([*argv, "--out", str(tmp_path / "no" / "e.csv")]) == EXIT_VALIDATION


def test_exit_codes_are_documented():
    # the README table and the module docstring list exactly the EXIT_* codes
    codes = sorted(value for name, value in vars(ordmed.cli).items() if name.startswith("EXIT_"))
    assert codes == [0, 1, 2, 3, 4]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    assert [int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.M)] == codes
    docstring = ordmed.cli.__doc__.split("Exit codes:", 1)[1]
    assert [int(code) for code in re.findall(r"(?:^|;)\s+(\d+) ", docstring)] == codes
