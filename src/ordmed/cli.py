"""Command-line interface.

Subcommands
    effects    evaluate the closed-form effect table for given parameters
    fit        maximum-likelihood estimates from a data CSV
    analyze    fit + effect table + percentile-bootstrap CIs (full report)
    simulate   draw a dataset from a parametric design
    mc-study   replicate simulate+fit+effects and summarise

File conventions: data CSVs have a header row ``x,m,y[,c1..cp]`` (UTF-8,
``.`` decimal separator); parameter files are JSON with explicit field names
(gamma0, gammaX, gammaC, alpha, betaX, betaM, betaXM, betaC).  Every output
starts with a ``# key: value`` metadata block (tool version, full command
line, seed) sufficient to reproduce the run; readers here skip ``#`` lines.

Exit codes: 0 success, 1 validation error, 2 convergence failure,
3 bootstrap unreliable (more than half the resamples failed), 4 internal
consistency check failed (a bug in ordmed, not a problem with the input).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .effects import EffectQuery, EffectTable, effect_labels, effect_table
from .estimation import FitResult, fit_mediator, fit_outcome, parameter_labels
from .exceptions import ConsistencyError, ConvergenceError, MediationError
from .inference import bootstrap_effects
from .models import MediatorModel, OutcomeModel, _parameters, validate_dataset
from .simulation import RNG_INFO, SimulationDesign, monte_carlo_study, simulate_dataset

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_UNRELIABLE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Usage or input problem surfaced with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-0.9,0.9,2.2,3.5" pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-\d+(\.\d*)?([,eE].*)?$")

    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise CliError(message)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise CliError("a subcommand is required (effects, fit, analyze, simulate, mc-study)")
        return args.handler(args, argv)
    except ConvergenceError as exc:  # SeparationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CliError, MediationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def build_parser():
    parser = _Parser(prog="ordmed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    eff = sub.add_parser("effects", help="closed-form effect table from a parameter file")
    eff.add_argument("--params", required=True, help="JSON parameter file")
    _add_query_args(eff)
    _add_output_args(eff)
    eff.set_defaults(handler=cmd_effects)

    fit = sub.add_parser("fit", help="maximum-likelihood fit of both models from a data CSV")
    fit.add_argument("--data", required=True, help="input data CSV (x,m,y[,c1..cp])")
    fit.add_argument("--levels", type=int, default=None, help="number of outcome levels J (default: max observed y)")
    _add_output_args(fit)
    fit.set_defaults(handler=cmd_fit)

    ana = sub.add_parser("analyze", help="fit, effect table, and bootstrap CIs in one report")
    ana.add_argument("--data", required=True)
    ana.add_argument("--levels", type=int, default=None)
    _add_query_args(ana)
    ana.add_argument("--bootstrap", type=int, default=1000, metavar="B",
                     help="bootstrap resamples (default 1000; 0 skips the bootstrap)")
    ana.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    ana.add_argument("--seed", type=int, default=None,
                     help="RNG seed; required whenever the bootstrap runs")
    _add_output_args(ana)
    ana.set_defaults(handler=cmd_analyze)

    sim = sub.add_parser("simulate", help="draw a dataset CSV from a parametric design")
    _add_design_args(sim)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(handler=cmd_simulate)

    mc = sub.add_parser("mc-study", help="replicate simulate+fit+effects and summarise")
    _add_design_args(mc)
    mc.add_argument("--replications", type=int, required=True)
    _add_query_args(mc)
    _add_output_args(mc)
    mc.add_argument("--raw-out", default=None,
                    help="per-replicate estimates CSV (default: <out stem>_raw.csv)")
    mc.set_defaults(handler=cmd_mc_study)

    return parser


def _add_query_args(parser):
    parser.add_argument("--x", type=float, required=True, help="active exposure level")
    parser.add_argument("--xstar", type=float, required=True, help="baseline exposure level")
    parser.add_argument("--c", default=None, metavar="C1,..,CP",
                        help="conditioning covariate values (comma separated)")


def _add_output_args(parser):
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_design_args(parser):
    parser.add_argument("--n", type=int, required=True, help="sample size")
    parser.add_argument("--mean-x", type=float, required=True)
    parser.add_argument("--sd-x", type=float, required=True)
    parser.add_argument("--gamma0", type=float, required=True)
    parser.add_argument("--gamma-x", type=float, required=True)
    parser.add_argument("--gamma-c", default=None, metavar="G1,..,GP")
    parser.add_argument("--alpha", required=True, metavar="A1,..,AK",
                        help="outcome thresholds, strictly increasing")
    parser.add_argument("--beta-x", type=float, required=True)
    parser.add_argument("--beta-m", type=float, required=True)
    parser.add_argument("--beta-xm", type=float, required=True)
    parser.add_argument("--beta-c", default=None, metavar="B1,..,BP")
    parser.add_argument("--cov-means", default=None, metavar="M1,..,MP")
    parser.add_argument("--cov-sds", default=None, metavar="S1,..,SP")
    parser.add_argument("--seed", type=int, required=True,
                        help="RNG seed (explicit; there is no wall-clock default)")


# ----------------------------------------------------------------------
# shared pieces

def _parse_float_list(text, what):
    if text is None:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise CliError(f"could not parse {what} {text!r} as comma-separated reals") from exc


def _load_params(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"parameter file {path}: invalid JSON ({exc})") from exc
    known = {"gamma0", "gammaX", "gammaC", "alpha", "betaX", "betaM", "betaXM", "betaC"}
    unknown = set(raw) - known
    if unknown:
        raise CliError(f"parameter file {path}: unknown field(s) {sorted(unknown)}")
    missing = {"gamma0", "gammaX", "alpha", "betaX", "betaM", "betaXM"} - set(raw)
    if missing:
        raise CliError(f"parameter file {path}: missing field(s) {sorted(missing)}")
    mediator = MediatorModel(raw["gamma0"], raw["gammaX"], tuple(raw.get("gammaC", ())))
    outcome = OutcomeModel(
        tuple(raw["alpha"]), raw["betaX"], raw["betaM"], raw["betaXM"], tuple(raw.get("betaC", ()))
    )
    if mediator.p != outcome.p:
        raise CliError(
            f"parameter file {path}: gammaC has {mediator.p} entries but betaC has {outcome.p}"
        )
    return mediator, outcome


def _read_data_csv(path):
    """Rows and covariate count from a data CSV; '#' metadata lines are skipped."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(line for line in fh if line.strip() and not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: no header row found") from None
        header = [h.strip() for h in header]
        expected_c = [f"c{i}" for i in range(1, len(header) - 2)]
        if header[:3] != ["x", "m", "y"] or header[3:] != expected_c:
            raise CliError(
                f"{path}: header must be x,m,y[,c1..cp], got {','.join(header)}"
            )
        rows = [row for row in reader]
    return rows, len(header) - 3


def _dataset_from_args(args):
    rows, p = _read_data_csv(args.data)
    J = args.levels if args.levels is not None else _infer_levels(rows)
    return validate_dataset(rows, J, p)


def _infer_levels(rows):
    observed = []
    for row in rows:
        if len(row) >= 3:
            try:
                observed.append(int(float(row[2])))
            except ValueError:
                pass
    if not observed:
        raise CliError("cannot infer the number of outcome levels; pass --levels")
    return max(observed)


def _query_from_args(args):
    return EffectQuery(args.x, args.xstar, _parse_float_list(args.c, "--c"))


def _design_from_args(args):
    gamma_c = _parse_float_list(args.gamma_c, "--gamma-c")
    beta_c = _parse_float_list(args.beta_c, "--beta-c")
    return SimulationDesign(
        n=args.n,
        mean_x=args.mean_x,
        sd_x=args.sd_x,
        mediator=MediatorModel(args.gamma0, args.gamma_x, gamma_c),
        outcome=OutcomeModel(
            _parse_float_list(args.alpha, "--alpha"), args.beta_x, args.beta_m, args.beta_xm, beta_c
        ),
        seed=args.seed,
        cov_means=_parse_float_list(args.cov_means, "--cov-means"),
        cov_sds=_parse_float_list(args.cov_sds, "--cov-sds"),
    )


def _metadata(argv, seed=None, randomized=False, extra=()):
    items = [("tool", f"ordmed {__version__}"), ("command", "ordmed " + " ".join(argv))]
    if seed is not None:
        items.append(("seed", str(seed)))
    if randomized:
        items.append(("rng", RNG_INFO["bit_generator"]))
        items.append(("rng-streams", RNG_INFO["streams"]))
        items.append(("rng-normals", RNG_INFO["normal_method"]))
    items.extend(extra)
    return items


def _cell(value):
    """One CSV cell: None (null in JSON) is empty, a float keeps 17
    significant digits, anything else is its str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, metadata, records):
    """The metadata block, then one row per record; the keys of the records
    are the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in metadata:
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(records[0])
        writer.writerows([_cell(v) for v in record.values()] for record in records)


def _write_report(args, metadata, payload, tables):
    """The JSON document ``payload``, or under --format csv every
    ``(path, records)`` table of ``tables``, whose records come from it."""
    if args.format == "json":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    else:
        for path, records in tables:
            _write_csv(path, metadata, records)


def _none_if_nan(value):
    v = float(value)
    return None if math.isnan(v) else v


def _effect_entries(table: EffectTable):
    labels = effect_labels(table.J)
    values = table.flatten()
    return [
        {"effect": eff, "level": lvl, "log_odds_ratio": float(v), "odds_ratio": math.exp(v)}
        for (eff, lvl), v in zip(labels, values)
    ]


def _fit_payload(result: FitResult):
    labels = parameter_labels(result.model)
    return {
        "parameters": dict(zip(labels, _parameters(result.model).tolist())),
        "standard_errors": {k: _none_if_nan(v) for k, v in zip(labels, result.standard_errors)},
        "loglik": result.loglik,
        "iterations": result.iterations,
        "gradient_norm": result.gradient_norm,
        "converged": True,  # a fit that does not converge raises instead
    }


def _parameter_records(payload):
    """One record per parameter of the two fits in ``payload``."""
    return [
        {"model": model, "parameter": name, "estimate": value,
         "std_error": payload[f"{model}_fit"]["standard_errors"][name]}
        for model in ("mediator", "outcome")
        for name, value in payload[f"{model}_fit"]["parameters"].items()
    ]


# ----------------------------------------------------------------------
# subcommands

def cmd_effects(args, argv):
    """True-value pathway: the effect table implied by explicit parameters."""
    mediator, outcome = _load_params(args.params)
    query = _query_from_args(args)
    table = effect_table(query, mediator, outcome)
    metadata = _metadata(argv, extra=[("x", repr(args.x)), ("xstar", repr(args.xstar))])
    payload = {"metadata": dict(metadata), "effects": _effect_entries(table)}
    _write_report(args, metadata, payload, [(args.out, payload["effects"])])
    return EXIT_OK


def cmd_fit(args, argv):
    data = _dataset_from_args(args)
    med_fit = fit_mediator(data)
    out_fit = fit_outcome(data)
    metadata = _metadata(argv, extra=[
        ("n", str(data.n)), ("levels", str(data.J)), ("covariates", str(data.p)),
        ("loglik-mediator", _cell(med_fit.loglik)), ("loglik-outcome", _cell(out_fit.loglik)),
        ("converged", "true"),  # a fit that does not converge raises instead
    ])
    payload = {
        "metadata": dict(metadata),
        "mediator_fit": _fit_payload(med_fit),
        "outcome_fit": _fit_payload(out_fit),
    }
    _write_report(args, metadata, payload, [(args.out, _parameter_records(payload))])
    return EXIT_OK


def cmd_analyze(args, argv):
    """The full pipeline: validate, fit both models, effect table, bootstrap CIs."""
    if args.bootstrap < 0:
        raise CliError("--bootstrap must be >= 0")
    if args.bootstrap > 0 and args.seed is None:
        raise CliError("--seed is required when the bootstrap runs (pass --bootstrap 0 to skip)")
    data = _dataset_from_args(args)
    query = _query_from_args(args)

    boot = None
    if args.bootstrap > 0:
        boot = bootstrap_effects(data, query, args.bootstrap, args.level, seed=args.seed)
        med_fit, out_fit, table = boot.mediator_fit, boot.outcome_fit, boot.point
    else:
        med_fit = fit_mediator(data)
        out_fit = fit_outcome(data)
        table = effect_table(query, med_fit.model, out_fit.model)

    entries = _effect_entries(table)
    if boot is not None:
        for k, entry in enumerate(entries):
            entry["boot_sd"] = _none_if_nan(boot.boot_sd[k])
            entry["ci_lower"] = float(boot.ci_lower[k])
            entry["ci_upper"] = float(boot.ci_upper[k])
            entry["or_ci_lower"] = math.exp(float(boot.ci_lower[k]))
            entry["or_ci_upper"] = math.exp(float(boot.ci_upper[k]))

    extra = [("n", str(data.n)), ("levels", str(data.J)), ("covariates", str(data.p))]
    if boot is not None:
        extra += [
            ("bootstrap-B", str(boot.B)), ("bootstrap-level", repr(boot.level)),
            ("bootstrap-failures", str(boot.failures)),
            ("bootstrap-unreliable", str(boot.unreliable).lower()),
        ]
    metadata = _metadata(argv, seed=args.seed, randomized=boot is not None, extra=extra)

    payload = {
        "metadata": dict(metadata),
        "mediator_fit": _fit_payload(med_fit),
        "outcome_fit": _fit_payload(out_fit),
        "effects": entries,
    }
    if boot is not None:
        payload["bootstrap"] = {
            "B": boot.B, "level": boot.level, "failures": boot.failures,
            "unreliable": boot.unreliable,
        }
    _write_report(args, metadata, payload, [
        (args.out, entries),
        (_sibling_path(args.out, "_params.csv"), _parameter_records(payload)),
    ])
    return EXIT_UNRELIABLE if boot is not None and boot.unreliable else EXIT_OK


def cmd_simulate(args, argv):
    design = _design_from_args(args)
    data = simulate_dataset(design)
    metadata = _metadata(argv, seed=design.seed, randomized=True,
                         extra=[("n", str(data.n)), ("levels", str(data.J)), ("covariates", str(data.p))])
    header = ["x", "m", "y"] + [f"c{i}" for i in range(1, data.p + 1)]
    rows = zip(*(column.tolist() for column in (data.x, data.m, data.y, *data.covariates.T)))
    _write_csv(args.out, metadata, [dict(zip(header, row)) for row in rows])
    return EXIT_OK


def cmd_mc_study(args, argv):
    design = _design_from_args(args)
    query = _query_from_args(args)
    if args.replications < 1:
        raise CliError("--replications must be >= 1")
    summary = monte_carlo_study(design, args.replications, query)

    metadata = _metadata(argv, seed=design.seed, randomized=True, extra=[
        ("replications", str(summary.replications)),
        ("failures", str(summary.n_failures)),
        ("levels", str(design.outcome.J)),
    ])
    payload = {
        "metadata": dict(metadata),
        "summary": [
            {"effect": eff, "level": lvl, "mean_log": float(summary.mean[k]),
             "sd_log": _none_if_nan(summary.sd[k]),
             "n_used": int(summary.estimates.shape[0])}
            for k, (eff, lvl) in enumerate(summary.labels)
        ],
        "estimates": [
            {"replicate": rid, "values": [float(v) for v in row]}
            for rid, row in zip(summary.replicate_ids, summary.estimates)
        ],
        "failed_replicates": list(summary.failed_replicates),
    }
    raw = [
        {"replicate": e["replicate"], "effect": eff, "level": lvl, "log_estimate": value}
        for e in payload["estimates"]
        for (eff, lvl), value in zip(summary.labels, e["values"])
    ]
    raw_path = args.raw_out if args.raw_out else _sibling_path(args.out, "_raw.csv")
    _write_report(args, metadata, payload, [(args.out, payload["summary"]), (raw_path, raw)])
    return EXIT_OK


def _sibling_path(out, suffix):
    path = Path(out)
    return str(path.with_name(path.stem + suffix))


if __name__ == "__main__":
    sys.exit(main())
