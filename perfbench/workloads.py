"""The benchmark's workloads: inputs made from the seed, the CLI calls of one
unit of work, reference values computed in-process, and the checks every
output must pass.

``ordmed`` must be importable (run.py puts the checkout's ``src/`` first on
``sys.path``). The analyze inputs come from this file's own generator, so a
change to ``ordmed.simulation`` cannot change them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

import ordmed

X_ACTIVE = 3.5
X_BASELINE = 2.0
QUERY_ARGS = ["--x", repr(X_ACTIVE), "--xstar", repr(X_BASELINE)]
MATCH_TOL = 1e-10  # CLI report against the in-process reference, relative above 1
DECOMPOSITION_TOL = 1e-12  # log TCE = log NDE + log NIE, per level


def derive_seed(seed, *key):
    """64-bit seed for one role of the workload, a pure function of (seed, key)."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def _close(a, b, tol=MATCH_TOL):
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _metadata(lines):
    out = {}
    for line in lines:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].rstrip("\n").split(": ", 1)
            out[key] = value
    return out


def _design_args(design: ordmed.SimulationDesign):
    """CLI flags that rebuild a ``design`` without covariates exactly (floats
    written with repr)."""
    med, out = design.mediator, design.outcome
    return [
        "--n", str(design.n), "--mean-x", repr(design.mean_x), "--sd-x", repr(design.sd_x),
        "--gamma0", repr(med.gamma0), "--gamma-x", repr(med.gammaX),
        "--alpha", ",".join(repr(float(a)) for a in out.alpha),
        "--beta-x", repr(out.betaX), "--beta-m", repr(out.betaM), "--beta-xm", repr(out.betaXM),
        "--seed", str(design.seed),
    ]


def _check_effects(entries, table: ordmed.EffectTable, problems, what):
    """Report effect entries against the reference table, and the decomposition."""
    labels = ordmed.effect_labels(table.J)
    got = [(e["effect"], e["level"]) for e in entries]
    if got != list(labels):
        problems.append(f"{what}: effect labels {got} != {list(labels)}")
        return
    for entry, ref in zip(entries, table.flatten()):
        if not _close(entry["log_odds_ratio"], ref):
            problems.append(f"{what}: {entry['effect']} {entry['level']} = {entry['log_odds_ratio']!r}, "
                            f"reference {ref!r}")
    value = {(e["effect"], e["level"]): e["log_odds_ratio"] for e in entries}
    for j in range(1, table.J):
        lvl = str(j)
        gap = value[("tce", lvl)] - (value[("nde", lvl)] + value[("nie", lvl)])
        if abs(gap) > DECOMPOSITION_TOL:
            problems.append(f"{what}: log TCE - (log NDE + log NIE) = {gap!r} at level {j}")


def _check_fit(payload, ref: ordmed.FitResult, problems, what):
    if payload.get("converged") is not True:
        problems.append(f"{what}: converged is {payload.get('converged')!r}")
    labels = ordmed.parameter_labels(ref.model)
    got = payload["parameters"]
    if list(got) != list(labels):
        problems.append(f"{what}: parameters {list(got)} != {list(labels)}")
        return
    model = ref.model
    if isinstance(model, ordmed.MediatorModel):
        estimates = (model.gamma0, model.gammaX, *model.gammaC)
    else:
        estimates = (*model.alpha, model.betaX, model.betaM, model.betaXM, *model.betaC)
    for name, ref_value in zip(labels, estimates):
        if not _close(got[name], ref_value):
            problems.append(f"{what}: {name} = {got[name]!r}, reference {ref_value!r}")


@dataclasses.dataclass
class UnitCheck:
    """What one unit of work attempted and what its outputs showed."""

    tried: int  # resamples or replicates the program attempted
    excluded: int = 0  # of those, how many the program reported as failed
    problems: list = dataclasses.field(default_factory=list)


class Workload:
    """One workload: ``setup`` makes inputs and references in ``workdir``,
    ``calls(k)`` lists the CLI argument lists of unit k, ``check(k)`` reads
    their outputs. ``outputs`` names the files that must repeat byte for byte
    whenever ``repeat_key(k)`` does."""

    name = ""
    item = ""  # what ``items`` counts
    items = 0  # per unit of work, for the throughput metric

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def repeat_key(self, k):
        return 0

    def read_json(self, name):
        with open(self.workdir / name, encoding="utf-8") as fh:
            return json.load(fh)


class AnalyzeSparse(Workload):
    """``ordmed analyze --format json`` on sparse J=5, n=300 datasets with a
    fresh bootstrap seed per call."""

    name = "analyze-sparse-j5"
    item = "resamples"
    N = 300
    B = items = 200
    # Fit cost differs by up to 50% between datasets of this design, so each
    # unit of a run analyses its own dataset: unit k uses dataset k % POOL.
    POOL = 24
    ALPHA = np.array([-0.9, 0.9, 2.2, 3.5])

    def sample(self, index):
        """Sparse-design draw (x ~ N(3, 1.3), gamma = (-1, 0.9), alpha above,
        beta = (0.5, 1.3, 0.6)). Draws that miss an outcome level or a mediator
        value are not valid input for a fit, so they are redrawn."""
        for attempt in range(100):
            rng = np.random.default_rng([self.seed, index, attempt])
            x = rng.normal(3.0, 1.3, self.N)
            m = (rng.random(self.N) < _expit(-1.0 + 0.9 * x)).astype(np.int64)
            eta = 0.5 * x + 1.3 * m + 0.6 * x * m
            cum = _expit(self.ALPHA[None, :] - eta[:, None])
            y = 1 + np.sum(rng.random(self.N)[:, None] >= cum, axis=1)
            if np.all(np.bincount(y, minlength=6)[1:] > 0) and 0 < m.sum() < self.N:
                return x, m, y
        raise RuntimeError("no valid sparse dataset in 100 draws")

    def setup(self):
        self.refs = []
        for index in range(self.POOL):
            x, m, y = self.sample(index)
            with open(self.workdir / f"sparse{index}.csv", "w", encoding="utf-8") as fh:
                fh.write("x,m,y\n")
                fh.writelines(f"{float(xi)!r},{int(mi)},{int(yi)}\n" for xi, mi, yi in zip(x, m, y))
            data = ordmed.validate_dataset(zip(x, m, y), 5)
            med, out = ordmed.fit_mediator(data), ordmed.fit_outcome(data)
            table = ordmed.effect_table(ordmed.EffectQuery(X_ACTIVE, X_BASELINE), med.model, out.model)
            self.refs.append((data, med, out, table))

    def calls(self, k):
        return [["analyze", "--data", f"sparse{k % self.POOL}.csv", *QUERY_ARGS,
                 "--bootstrap", str(self.B), "--seed", str(derive_seed(self.seed, 1, k)),
                 "--format", "json", "--out", "report.json"]]

    def repeat_key(self, k):
        return k

    outputs = ("report.json",)

    def check(self, k):
        _, med, out, table = self.refs[k % self.POOL]
        report = self.read_json("report.json")
        boot = report["bootstrap"]
        result = UnitCheck(tried=self.B, excluded=int(boot["failures"]))
        problems = result.problems
        if boot["B"] != self.B or boot["unreliable"] is not False:
            problems.append(f"bootstrap block {boot}")
        _check_fit(report["mediator_fit"], med, problems, "mediator fit")
        _check_fit(report["outcome_fit"], out, problems, "outcome fit")
        _check_effects(report["effects"], table, problems, "effects")
        for e in report["effects"]:
            if not (math.isfinite(e["ci_lower"]) and e["ci_lower"] <= e["ci_upper"]
                    and e["boot_sd"] is not None and e["boot_sd"] >= 0.0):
                problems.append(f"bootstrap interval {e}")
        return result

    def probe_case(self):
        data, _, out, _ = self.refs[0]
        return out.model, data


class McStudyJ3(Workload):
    """``ordmed mc-study`` on the J=3, n=500 reference design, 200 replicates,
    writing the summary and raw CSVs. Every unit of a run repeats one study."""

    name = "mc-study-j3"
    item = "replicates"
    R = items = 200

    def design(self):
        return ordmed.SimulationDesign(
            n=500, mean_x=3.0, sd_x=1.5,
            mediator=ordmed.MediatorModel(-1.0, 0.5),
            outcome=ordmed.OutcomeModel((2.5, 5.5), 1.1, 0.7, 0.5),
            seed=derive_seed(self.seed, 2),
        )

    def setup(self):
        self.ref = ordmed.monte_carlo_study(self.design(), self.R,
                                            ordmed.EffectQuery(X_ACTIVE, X_BASELINE))

    def calls(self, k):
        return [["mc-study", *_design_args(self.design()), "--replications", str(self.R),
                 *QUERY_ARGS, "--out", "summary.csv", "--raw-out", "raw.csv"]]

    outputs = ("summary.csv", "raw.csv")

    def check(self, k):
        ref = self.ref
        with open(self.workdir / "summary.csv", encoding="utf-8") as fh:
            lines = fh.readlines()
        meta = _metadata(lines)
        result = UnitCheck(tried=self.R, excluded=int(meta["failures"]))
        problems = result.problems
        if int(meta["replications"]) != self.R or result.excluded != ref.n_failures:
            problems.append(f"summary metadata {meta}")
        summary = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        if [(r["effect"], r["level"]) for r in summary] != list(ref.labels):
            problems.append("summary labels differ from the reference")
        else:
            for row, mean, sd in zip(summary, ref.mean, ref.sd):
                if not (_close(row["mean_log"], mean) and _close(row["sd_log"], sd)
                        and int(row["n_used"]) == ref.estimates.shape[0]):
                    problems.append(f"summary row {row} vs mean {mean!r}, sd {sd!r}")

        with open(self.workdir / "raw.csv", encoding="utf-8") as fh:
            raw = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        width = len(ref.labels)
        if len(raw) != width * len(ref.replicate_ids):
            problems.append(f"raw CSV has {len(raw)} rows, expected {width * len(ref.replicate_ids)}")
            return result
        table = ref.estimates.ravel()
        labels = [(str(rid), *label) for rid in ref.replicate_ids for label in ref.labels]
        for row, label, value in zip(raw, labels, table):
            if (row["replicate"], row["effect"], row["level"]) != label or not _close(row["log_estimate"], value):
                problems.append(f"raw row {row} vs {label} {value!r}")
                break
        for start in range(0, len(raw), width):
            value = {(r["effect"], r["level"]): float(r["log_estimate"]) for r in raw[start:start + width]}
            for j in range(1, self.design().outcome.J):
                lvl = str(j)
                gap = value[("tce", lvl)] - (value[("nde", lvl)] + value[("nie", lvl)])
                if abs(gap) > DECOMPOSITION_TOL:
                    problems.append(f"replicate {raw[start]['replicate']}: TCE - (NDE + NIE) = {gap!r}")
        return result

    def probe_case(self):
        design = self.design()
        data = ordmed.simulate_dataset(
            dataclasses.replace(design, seed=ordmed.replicate_seed(design.seed, 0)))
        return ordmed.fit_outcome(data).model, data


WORKLOADS = {w.name: w for w in (AnalyzeSparse, McStudyJ3)}
