"""Command-line interface.

Subcommands
    effects    evaluate the closed-form effect table for given parameters
    fit        maximum-likelihood estimates from a data CSV
    analyze    fit + effect table + percentile-bootstrap CIs (full report)
    simulate   draw a dataset from a parametric design
    mc-study   replicate simulate+fit+effects and summarise

File conventions: data CSVs have a header row ``x,m,y[,c1..cp]`` (UTF-8, a
leading byte-order mark skipped; ``.`` decimal separator); parameter files
are JSON with explicit field names (gamma0, gammaX, gammaC, alpha, betaX,
betaM, betaXM, betaC).  Every output starts with a ``# key: value`` metadata
block (tool version, full command line, seed) sufficient to reproduce the
run; readers here skip ``#`` lines.

Exit codes: 0 success; 1 validation error or data that cannot be fitted,
including a bootstrap whose every resample failed (no report is written),
or a request larger than memory;
2 convergence failure; 3 bootstrap unreliable (more than half the resamples
failed; the report is written and flagged); 4 internal consistency check
failed (a bug in ordmed, not a problem with the input).  A command that
exits 1, 2 or 4 writes no output file, and leaves one already at its path
as it was.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import gc
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

from . import __version__
from .effects import EffectQuery, EffectTable, effect_labels, effect_table
from .estimation import FitResult, fit_mediator, fit_outcome, parameter_labels
from .exceptions import ConsistencyError, ConvergenceError, MediationError
from .inference import bootstrap_effects
from .models import MediatorModel, OutcomeModel, _level, _parameters, _record_fields, _seed, validate_dataset
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
        # let values like "-.5", "-0.9,0.9,2.2,3.5" and "-inf" pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise CliError(message)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise CliError("a subcommand is required (effects, fit, analyze, simulate, mc-study)")
        _outputs(args)
        return args.handler(args, argv)
    except ConvergenceError as exc:  # SeparationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CliError, MediationError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run(argv=None):
    """``main(argv)``'s exit status, for a process that ends right after it.

    Before ``main``, ``_keep_freed_heap`` raises glibc's malloc trim
    threshold to 64 MiB and fixes its mmap threshold at 4 MiB. By default
    glibc hands freed memory at the top of the heap back to the kernel, so
    the next allocation faults its pages in afresh. The Newton runs keep
    their kernels' temporaries in one workspace each, so a J=3, n=500,
    200-replicate ``mc-study`` takes about 8.1k minor page faults that way
    and about 5.9k with the freed heap kept, and an n=2000 ``analyze`` with
    B=200 13.4k and 5.6k. Both thresholds are set because setting either
    one turns off glibc's dynamic mmap threshold; with the trim threshold
    alone that ``analyze`` takes 15.9k faults. Off glibc the step does
    nothing.

    After ``main``, ``gc.freeze()`` moves every live object into the
    permanent generation, which the interpreter's collections at exit never
    visit: they would walk the tens of thousands of objects numpy and the
    run left alive just before the process gives all its memory back.
    Nothing written depends on those passes: every output file is closed by
    its ``with`` block before ``main`` returns, and stdio is flushed before
    modules are torn down.

    ``main`` itself leaves the allocator and collection alone for in-process
    callers.
    """
    _keep_freed_heap()
    status = main(argv)
    gc.freeze()
    return status


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _mallopt():
    # glibc's mallopt, or None: musl, macOS and Windows have no libc.so.6
    try:
        return ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None


def _keep_freed_heap():
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)


def build_parser():
    parser = _Parser(prog="ordmed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    eff = sub.add_parser("effects", help="closed-form effect table from a parameter file")
    eff.add_argument("--params", required=True, help="JSON parameter file")
    _add_query_args(eff)
    _add_output_args(eff)
    eff.set_defaults(handler=cmd_effects)

    fit = sub.add_parser("fit", help="maximum-likelihood fit of both models from a data CSV")
    _add_data_args(fit)
    _add_output_args(fit)
    fit.set_defaults(handler=cmd_fit)

    ana = sub.add_parser("analyze", help="fit, effect table, and bootstrap CIs in one report")
    _add_data_args(ana)
    _add_query_args(ana)
    ana.add_argument("--bootstrap", type=int, default=1000, metavar="B",
                     help="bootstrap resamples (default 1000; 0 skips the bootstrap)")
    ana.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    ana.add_argument("--seed", type=int, default=None,
                     help="RNG seed, a whole number in [0, 2**64); required whenever the bootstrap runs")
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
                    help="per-replicate estimates CSV, under --format csv only (default: <out stem>_raw.csv)")
    mc.set_defaults(handler=cmd_mc_study)

    return parser


def _add_data_args(parser):
    parser.add_argument("--data", required=True, help="input data CSV (x,m,y[,c1..cp])")
    parser.add_argument("--levels", type=int, default=None,
                        help="number of outcome levels J (default: the largest y, and then every y "
                        "must lie in 1..number of records)")


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
                        help="RNG seed, a whole number in [0, 2**64) (explicit; there is no wall-clock default)")


# ----------------------------------------------------------------------
# shared pieces

def _split_list(text):
    """The entries of a comma-separated list flag, an empty one included, parsed as reals by the model they go to."""
    return () if text is None else tuple(text.split(","))


def _load_params(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"parameter file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise CliError(f"parameter file {path}: expected a JSON object")
    # the fields are the two models' own: those without a default are required
    fields = {model: dataclasses.fields(model) for model in (MediatorModel, OutcomeModel)}
    unknown = set(raw) - {f.name for group in fields.values() for f in group}
    if unknown:
        raise CliError(f"parameter file {path}: unknown field(s) {sorted(unknown)}")
    missing = {f.name for group in fields.values() for f in group if f.default is dataclasses.MISSING} - set(raw)
    if missing:
        raise CliError(f"parameter file {path}: missing field(s) {sorted(missing)}")
    return tuple(model(**{f.name: raw[f.name] for f in group if f.name in raw}) for model, group in fields.items())


def _read_data_csv(path):
    """Rows and covariate count from a data CSV; '#' metadata lines are skipped."""
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(line for line in fh if line.strip() and not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: no header row found") from None
        header = tuple(h.strip() for h in header)
        if header != _record_fields(len(header) - 3):
            raise CliError(
                f"{path}: header must be x,m,y[,c1..cp], got {','.join(header)}"
            )
        rows = [row for row in reader]
    return rows, len(header) - 3


def _dataset_from_args(args):
    rows, p = _read_data_csv(args.data)
    return validate_dataset(rows, args.levels, p)


def _query_from_args(args):
    return EffectQuery(args.x, args.xstar, _split_list(args.c))


def _design_from_args(args):
    gamma_c, beta_c = _split_list(args.gamma_c), _split_list(args.beta_c)
    p = max(len(gamma_c), len(beta_c))
    missing = [flag for flag, value in (("--cov-means", args.cov_means), ("--cov-sds", args.cov_sds)) if value is None]
    if p and missing:
        # the generator's covariate count comes from these two flags alone
        raise CliError(f"--gamma-c/--beta-c give {p} covariate coefficient(s), so --cov-means and --cov-sds "
                       f"need {p} value(s) each; missing: {' and '.join(missing)}")
    return SimulationDesign(
        n=args.n,
        mean_x=args.mean_x,
        sd_x=args.sd_x,
        mediator=MediatorModel(args.gamma0, args.gamma_x, gamma_c),
        outcome=OutcomeModel(_split_list(args.alpha), args.beta_x, args.beta_m, args.beta_xm, beta_c),
        seed=args.seed,
        cov_means=_split_list(args.cov_means),
        cov_sds=_split_list(args.cov_sds),
    )


def _metadata(argv, seed=None, randomized=False, extra=()):
    items = [("tool", f"ordmed {__version__}"), ("command", shlex.join(["ordmed", *argv]))]
    if seed is not None:
        items.append(("seed", str(seed)))
    if randomized:
        items.append(("rng", RNG_INFO["bit_generator"]))
        items.append(("rng-streams", RNG_INFO["streams"]))
        items.append(("rng-normals", RNG_INFO["normal_method"]))
    items.extend(extra)
    return items


def _data_metadata(data):
    return [("n", str(data.n)), ("levels", str(data.J)), ("covariates", str(data.p))]


def _cell(value):
    """One CSV cell: None (null in JSON) is empty, a float keeps 17
    significant digits, anything else is its str.  A float that is not
    finite is refused with the JSON writer's message, so both formats
    accept the same values."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return format(value, ".17g")
    return str(value)


# Where str.splitlines breaks a line, and bash's $'...' escapes for the common ones.
_LINE_BREAKS = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_BASH_ESCAPES = {"\n": "\\n", "\r": "\\r", "\v": "\\v", "\f": "\\f"}


def _one_line_word(arg):
    """``shlex.quote(arg)``, or, when ``arg`` holds a line break, bash's
    ``$'...'`` quoting with every line break escaped, so a command line
    stays on one line and bash reads it back as the same argument."""
    if not _LINE_BREAKS.search(arg):
        return shlex.quote(arg)
    escaped = arg.replace("\\", "\\\\").replace("'", "\\'")
    return "$'" + _LINE_BREAKS.sub(lambda b: _BASH_ESCAPES.get(b[0], f"\\u{ord(b[0]):04x}"), escaped) + "'"


def _write_csv(path, metadata, header, rows):
    """The metadata block, one ``# key: value`` line per item, the header,
    then one line per row of values.  The command line is written with
    ``_one_line_word`` quoting (JSON keeps ``shlex.join``'s, which escapes
    its line breaks itself)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in metadata:
            if key == "command" and _LINE_BREAKS.search(value):
                value = " ".join(map(_one_line_word, shlex.split(value)))
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_json(path, document):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_files(files):
    """Write each ``(path, write, *args)`` of ``files`` as ``write(temporary,
    *args)`` to a sibling ``<path>.<pid>.tmp``, and move every temporary to
    its path only once the last is complete.  On any error the temporaries
    are removed, so a command that fails leaves no output file, and a file
    already at a path keeps its bytes."""
    temporaries = [f"{path}.{os.getpid()}.tmp" for path, *_ in files]
    try:
        for (_, write, *args), temporary in zip(files, temporaries):
            write(temporary, *args)
        for (path, *_), temporary in zip(files, temporaries):
            os.replace(temporary, path)
    except BaseException:
        for temporary in temporaries:
            Path(temporary).unlink(missing_ok=True)
        raise


def _write_report(args, metadata, body, *tables):
    """Under --format json the document ``metadata`` followed by ``body``;
    under --format csv each table of records from the body, whose keys are
    the header, to its path of ``_outputs(args)``, headed by ``metadata``."""
    if args.format == "json":
        _write_files([(args.out, _write_json, {"metadata": dict(metadata), **body})])
    else:
        _write_files([(path, _write_csv, metadata, records[0], (record.values() for record in records))
                      for (_, path), records in zip(_outputs(args), tables)])


def _outputs(args):
    """The files a command writes, as (flag, path): --out, and under --format
    csv analyze's ``<out stem>_params.csv`` or mc-study's --raw-out.  Raises
    CliError, before any work, when one is the input or another output."""
    outputs = [("--out", args.out)]
    suffix = {"analyze": "_params.csv", "mc-study": "_raw.csv"}.get(args.command)
    if suffix and args.format == "csv":
        out = Path(args.out)
        outputs.append(("--raw-out", args.raw_out) if getattr(args, "raw_out", None)
                       else (f"--out's {suffix} table", str(out.with_name(out.stem + suffix))))
    inputs = [(f"--{flag}", getattr(args, flag)) for flag in ("params", "data") if hasattr(args, flag)]
    for k, (what, path) in enumerate(outputs):
        for flag, other in inputs + outputs[:k]:
            if Path(path).resolve() == Path(other).resolve():
                raise CliError(f"{what} {path} is the {flag} file {other}; no command writes over its own files")
    return outputs


def _none_if_nan(value):
    v = float(value)
    return None if math.isnan(v) else v


def _odds_ratio(log_odds_ratio):
    """exp of a log odds ratio, or None (null in JSON) where that overflows a float."""
    try:
        return math.exp(log_odds_ratio)
    except OverflowError:
        return None


def _effect_entries(table: EffectTable):
    labels = effect_labels(table.J)
    values = table.flatten()
    return [
        {"effect": eff, "level": lvl, "log_odds_ratio": float(v), "odds_ratio": _odds_ratio(v)}
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


def _parameter_records(body):
    """One record per parameter of the two fits in ``body``."""
    return [
        {"model": model, "parameter": name, "estimate": value,
         "std_error": body[f"{model}_fit"]["standard_errors"][name]}
        for model in ("mediator", "outcome")
        for name, value in body[f"{model}_fit"]["parameters"].items()
    ]


# ----------------------------------------------------------------------
# subcommands

def cmd_effects(args, argv):
    """True-value pathway: the effect table implied by explicit parameters."""
    mediator, outcome = _load_params(args.params)
    query = _query_from_args(args)
    entries = _effect_entries(effect_table(query, mediator, outcome))
    metadata = _metadata(argv, extra=[("x", repr(args.x)), ("xstar", repr(args.xstar))])
    _write_report(args, metadata, {"effects": entries}, entries)
    return EXIT_OK


def cmd_fit(args, argv):
    data = _dataset_from_args(args)
    med_fit = fit_mediator(data)
    out_fit = fit_outcome(data)
    metadata = _metadata(argv, extra=[
        *_data_metadata(data),
        ("loglik-mediator", _cell(med_fit.loglik)), ("loglik-outcome", _cell(out_fit.loglik)),
        ("converged", "true"),  # a fit that does not converge raises instead
    ])
    body = {"mediator_fit": _fit_payload(med_fit), "outcome_fit": _fit_payload(out_fit)}
    _write_report(args, metadata, body, _parameter_records(body))
    return EXIT_OK


def cmd_analyze(args, argv):
    """The full pipeline: validate, fit both models, effect table, bootstrap CIs."""
    if args.bootstrap and args.seed is None:
        raise CliError("--seed is required when the bootstrap runs (pass --bootstrap 0 to skip)")
    if args.seed is not None:
        _seed(args.seed)
    _level(args.level)
    data = _dataset_from_args(args)
    query = _query_from_args(args)

    if args.bootstrap:
        boot = bootstrap_effects(data, query, args.bootstrap, args.level, seed=args.seed)
        med_fit, out_fit = boot.mediator_fit, boot.outcome_fit
        entries = [
            {**entry, "boot_sd": _none_if_nan(sd), "ci_lower": float(lower), "ci_upper": float(upper),
             "or_ci_lower": _odds_ratio(lower), "or_ci_upper": _odds_ratio(upper)}
            for entry, sd, lower, upper in zip(_effect_entries(boot.point), boot.boot_sd, boot.ci_lower,
                                               boot.ci_upper)
        ]
        bootstrap = {"B": boot.B, "level": boot.level, "failures": boot.failures, "unreliable": boot.unreliable}
        # each metadata value is the JSON spelling of the report's value
        metadata = _metadata(argv, seed=args.seed, randomized=True, extra=[
            *_data_metadata(data), *((f"bootstrap-{key}", json.dumps(value)) for key, value in bootstrap.items())])
        tail, status = {"bootstrap": bootstrap}, EXIT_UNRELIABLE if boot.unreliable else EXIT_OK
    else:
        med_fit = fit_mediator(data)
        out_fit = fit_outcome(data)
        entries = _effect_entries(effect_table(query, med_fit.model, out_fit.model))
        metadata = _metadata(argv, seed=args.seed, extra=_data_metadata(data))
        tail, status = {}, EXIT_OK

    body = {"mediator_fit": _fit_payload(med_fit), "outcome_fit": _fit_payload(out_fit), "effects": entries, **tail}
    _write_report(args, metadata, body, entries, _parameter_records(body))
    return status


def cmd_simulate(args, argv):
    design = _design_from_args(args)
    data = simulate_dataset(design)
    metadata = _metadata(argv, seed=design.seed, randomized=True, extra=_data_metadata(data))
    columns = (data.x, data.m, data.y, *data.covariates.T)
    _write_files([(args.out, _write_csv, metadata, _record_fields(data.p), zip(*(c.tolist() for c in columns)))])
    return EXIT_OK


def cmd_mc_study(args, argv):
    design = _design_from_args(args)
    query = _query_from_args(args)
    if args.raw_out and args.format == "json":
        raise CliError("--raw-out applies to --format csv only; --format json holds every estimate in the --out file")
    summary = monte_carlo_study(design, args.replications, query)

    metadata = _metadata(argv, seed=design.seed, randomized=True, extra=[
        ("replications", str(summary.replications)),
        ("failures", str(summary.n_failures)),
        ("levels", str(design.outcome.J)),
    ])
    body = {
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
        for e in body["estimates"]
        for (eff, lvl), value in zip(summary.labels, e["values"])
    ]
    _write_report(args, metadata, body, body["summary"], raw)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run())
