#!/usr/bin/env python3
"""Closed-loop benchmark of the ordmed command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is taken from the ``src/`` directory of the checkout that holds
this file. One client: a unit of work runs its ``python -m ordmed.cli``
children one at a time, each waited for before the next starts, and units
repeat until S seconds have passed. Every output is checked (workloads.py).

Before the first unit and after every unit the fixed reference job in
probe.py runs as a child. The time metrics divide each unit's wall by the
mean wall of the two probes around it, which cancels the host's drift in
speed; raw walls are kept in the results file and the per-layer metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each unit
twice, plain and under tracer.py, prints the self time per module of the
traced units and ends with the per-layer metrics. The last stdout line is
always one JSON object with the keys correct, attempted, failed and metrics.
A fuller record (environment, per-call walls, the self-time table) goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
PROBE = HERE / "probe.py"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3  # setup_s is the median of these
IMPORT_REPEATS = 3  # cli.import_s is the median of these
RUN_DEADLINE_S = 165  # no child may run past this point of a run
MODULES = ("cli", "models", "estimation", "effects", "inference", "simulation", "numerics")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics read straight from the spans: "<span name>.<stat>".
# Counts come from the first traced unit, so they repeat exactly for a seed;
# times are means over the traced units.
SPAN_COUNTS = (
    "estimation.fit_outcome.calls", "estimation.fit_outcome.iterations",
    "estimation.fit_outcome.failures",
    "estimation.fit_mediator.calls", "estimation.fit_mediator.iterations",
    "estimation.fit_mediator.failures",
    "effects.effect_table.calls",
    "inference.bootstrap_effects.resamples", "inference.bootstrap_effects.failures",
    "simulation.simulate_dataset.calls",
    "simulation.monte_carlo_study.replicates", "simulation.monte_carlo_study.failures",
    "models.validate_dataset.rows",
    "numerics.keyed_stream.calls",
)
SPAN_TIMES = (
    "estimation.fit_outcome.busy_s", "estimation.fit_mediator.busy_s",
    "effects.effect_table.busy_s",
    "inference.bootstrap_effects.self_s",
    "simulation.simulate_dataset.busy_s", "simulation.monte_carlo_study.self_s",
    "models.validate_dataset.busy_s",
    "numerics.keyed_stream.busy_s",
    "cli.main.self_s",
)


@dataclasses.dataclass
class Unit:
    k: int
    traced: bool
    calls: list  # (subcommand, wall s) per child
    spans: list  # per traced child: the payload tracer.py wrote
    problems: list
    check: object = None  # workloads.UnitCheck when the outputs were readable
    timed: bool = True  # False for the repeat run that only checks determinism
    probe_s: float = 0.0  # mean wall of the reference probes before and after the unit

    @property
    def wall(self):
        return sum(wall for _, wall in self.calls)

    @property
    def rel(self):
        """The unit's wall in probe walls."""
        return self.wall / self.probe_s


class Runner:
    def __init__(self, workload, deadline):
        self.wl = workload
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.digests = {}  # repeat_key -> sha256 of the unit's output files
        self.units = []
        self.probes = []  # walls of probe.py, one before the first unit and one after each
        self.peak_rss_kib = 0  # largest max RSS of a unit's child
        self.stopped = False

    def child(self, cmd):
        """Run one child to completion. Returns (wall s, completed process or
        None on timeout, the child's max RSS in KiB). The child is reaped with
        wait4 so that its own max RSS is read, not that of every child."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.wl.workdir / "stderr.txt", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.wl.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if wall >= timeout:
                self.stopped = True
                return wall, None, usage.ru_maxrss
            err.seek(0)
            return wall, subprocess.CompletedProcess(cmd, proc.returncode, None, err.read()), usage.ru_maxrss

    def probe(self):
        wall, proc, _ = self.child([sys.executable, str(PROBE)])
        if proc is None or proc.returncode != 0:
            raise RuntimeError("the reference probe failed or timed out")
        self.probes.append(wall)

    def run_unit(self, k, traced=False, timed=True):
        if not self.probes:
            self.probe()
        unit = Unit(k, traced, [], [], [], timed=timed)
        for i, argv in enumerate(self.wl.calls(k)):
            spans_path = self.wl.workdir / f"spans{i}.json"
            if traced:
                cmd = [sys.executable, str(TRACER), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "ordmed.cli", *argv]
            wall, proc, rss_kib = self.child(cmd)
            unit.calls.append((argv[0], wall))
            self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
            if proc is None:
                unit.problems.append(f"{argv[0]} timed out after {wall:.1f} s")
                break
            if proc.returncode != 0:
                unit.problems.append(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
                break
            if traced:
                unit.spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        if not unit.problems:
            self.check(unit)
        if not self.stopped:  # past the deadline the probe could only time out
            self.probe()
        unit.probe_s = statistics.fmean(self.probes[-2:])
        self.units.append(unit)
        return unit

    def check(self, unit):
        try:
            unit.check = self.wl.check(unit.k)
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            unit.problems.append(f"output check raised {exc!r}")
            return
        unit.problems += unit.check.problems
        digest = hashlib.sha256()
        for name in self.wl.outputs:
            digest.update((self.wl.workdir / name).read_bytes())
        key = self.wl.repeat_key(unit.k)
        first = self.digests.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            unit.problems.append(f"outputs of unit {unit.k} differ from an earlier run with the same seed")

    def repeat_check(self):
        """Re-run unit 0 untimed unless some seed already ran twice."""
        keys = [self.wl.repeat_key(u.k) for u in self.units if u.check is not None]
        if keys and len(set(keys)) == len(keys) and not self.stopped:
            self.run_unit(0, timed=False)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "clients": 1,
    }


def profile(unit):
    """Per span name: calls, busy_s, self_s and the counts from the notes;
    per module: self_s. A span's self time is its duration minus its children's."""
    by_name = defaultdict(lambda: defaultdict(float))
    module_self = dict.fromkeys(MODULES, 0.0)
    import_s = 0.0
    for payload in unit.spans:
        import_s += payload["import_s"]
        spans = payload["spans"]
        inner = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for i, (name, start, end, _, note) in enumerate(spans):
            stats = by_name[name]
            stats["calls"] += 1
            stats["busy_s"] += end - start
            stats["self_s"] += end - start - inner[i]
            module_self[name.split(".")[0]] += end - start - inner[i]
            for key, value in (note or {}).items():
                if key == "error":
                    stats["failures"] += 1
                else:
                    stats[key] += value
    return by_name, module_self, import_s


def span_stat(by_name, metric):
    name, stat = metric.rsplit(".", 1)
    return by_name[name][stat] if name in by_name else 0.0


def import_probe(runner):
    """Wall s of ``python -c "import ordmed.cli"``, median of a few."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        wall, proc, _ = runner.child([sys.executable, "-c", "import ordmed.cli"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError("python -c 'import ordmed.cli' failed")
        walls.append(wall)
    return statistics.median(walls)


def score_probe(workload, budget_s=1.0):
    """Median µs of one public outcome_loglik_gradient call (the full score
    and Hessian kernel) on the workload's data at its fitted model."""
    import ordmed

    model, data = workload.probe_case()
    ordmed.outcome_loglik_gradient(model, data)
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < 5 or (time.perf_counter() < end and len(times) < 500):
        start = time.perf_counter()
        ordmed.outcome_loglik_gradient(model, data)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def end_to_end(runner, setups):
    wl = runner.wl
    timed = [u for u in runner.units if u.timed]
    checked = [u.check for u in runner.units if u.check is not None]
    tried = sum(c.tried for c in checked)
    ok = sum(not u.problems for u in runner.units)
    return {
        "items_per_probe": (wl.items * len(timed) / sum(u.rel for u in timed), "1/probe"),
        "call_p50_rel": (statistics.median(u.rel for u in timed), "probe"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (runner.peak_rss_kib / 1024.0, "MiB"),
        "ok_ratio": (ok / len(runner.units), "ratio"),
        "unit_ok_ratio": ((tried - sum(c.excluded for c in checked)) / tried if tried else 0.0, "ratio"),
    }


def per_layer(runner, import_s, score_us):
    """Per-layer metrics, and the mean self time per module of the traced
    units with import and interpreter start and exit, which sum to their wall."""
    traced = [u for u in runner.units if u.traced]
    plain = [u for u in runner.units if not u.traced and u.timed]
    profiles = [profile(u) for u in traced]
    first = profiles[0][0]
    metrics = {name: (span_stat(first, name), "count") for name in SPAN_COUNTS}
    for name in SPAN_TIMES:
        metrics[name] = (statistics.fmean(span_stat(p[0], name) for p in profiles), "s")
    resamples = span_stat(first, "inference.bootstrap_effects.resamples")
    failures = span_stat(first, "inference.bootstrap_effects.failures")
    metrics["inference.resample_ok_ratio"] = ((resamples - failures) / resamples if resamples else 0.0, "ratio")
    metrics["estimation.outcome_score.us_per_call"] = (score_us, "us")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["wall.items_per_s"] = (runner.wl.items * len(plain) / sum(u.wall for u in plain), "1/s")
    metrics["wall.call_p50_s"] = (statistics.median(u.wall for u in plain), "s")
    metrics["probe.wall_s"] = (statistics.median(runner.probes), "s")

    table = {m: statistics.fmean(p[1][m] for p in profiles) for m in MODULES}
    table["import ordmed.cli"] = statistics.fmean(p[2] for p in profiles)
    wall = statistics.fmean(u.wall for u in traced)
    table["interpreter start and exit"] = wall - sum(table.values())
    metrics["trace.unit_wall_s"] = (wall, "s")
    metrics["trace.accounted_ratio"] = ((wall - table["interpreter start and exit"]) / wall, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(u.wall for u in traced)
                                   - statistics.median(u.wall for u in plain), "s")
    return metrics, table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ordmed" / "cli.py").is_file():
        print(f"error: no ordmed package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread here and in every child, set before numpy loads. With
    # the default of one thread per CPU, a large matrix product waits for the
    # other CPU and took twice as long whenever load outside the VM held it.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not Path(workloads.ordmed.__file__).resolve().is_relative_to(SRC):
        print(f"error: ordmed was imported from {workloads.ordmed.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)

        runner = Runner(wl, started + RUN_DEADLINE_S)
        window = time.perf_counter()
        k = 0
        while not runner.stopped and (k == 0 or time.perf_counter() - window < args.seconds):
            runner.run_unit(k)
            if args.trace:
                runner.run_unit(k, traced=True)
            k += 1
        runner.repeat_check()

        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(), "setup_s": setups, "probes_s": runner.probes,
                  "units": [{"k": u.k, "traced": u.traced, "timed": u.timed, "calls": u.calls,
                             "probe_s": u.probe_s, "problems": u.problems} for u in runner.units]}
        if args.trace:
            metrics, table = per_layer(runner, import_probe(runner), score_probe(wl))
            wall = metrics["trace.unit_wall_s"][0]
            record["self_time_s"] = table
            print(f"self time per module, mean of {sum(u.traced for u in runner.units)} "
                  f"traced unit(s) of {wl.name}:")
            for name, value in table.items():
                print(f"  {name:<28} {value:10.4f} s  {100.0 * value / wall:6.2f} %")
            print(f"  {'sum = traced unit wall':<28} {wall:10.4f} s  "
                  f"(self times and import account for {100.0 * metrics['trace.accounted_ratio'][0]:.2f} %)")
            print(f"  trace.overhead_s = {metrics['trace.overhead_s'][0]:.4f} "
                  f"(median traced unit minus median plain unit)")
        else:
            metrics = end_to_end(runner, setups)
        failed = sum(bool(u.problems) for u in runner.units)
        record["metrics"] = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}

        print("environment:", json.dumps(record["environment"], sort_keys=True))
        timed = [u for u in runner.units if u.timed and not u.traced]
        print(f"{wl.name}: {len(timed)} timed unit(s) of {wl.items} {wl.item}, "
              f"{len(runner.units)} attempted, {failed} failed; median unit wall "
              f"{statistics.median(u.wall for u in timed):.3f} s, median probe wall "
              f"{statistics.median(runner.probes):.3f} s")
        for u in runner.units:
            for problem in u.problems:
                print(f"  unit {u.k}{' (traced)' if u.traced else ''}: {problem}")
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps({"correct": failed == 0, "attempted": len(runner.units), "failed": failed,
                          "metrics": record["metrics"]}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
