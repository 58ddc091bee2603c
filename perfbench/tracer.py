"""Run one ordmed CLI command with spans recorded around the package's
public functions.

Usage: python3 perfbench/tracer.py SPANS_JSON ARG...

ARG... is the argument list ``ordmed`` would get. The script imports
``ordmed.cli``, wraps the traced functions and calls ``ordmed.cli.main``.
Callers bind their imports by name (``from .estimation import fit_outcome``),
so every attribute of every ``ordmed`` module that refers to a traced function
is replaced, not only the one in the function's home module. Each span is
``[name, start, end, parent index, note]`` with ``perf_counter`` times; the
note carries counts read from the returned value, or the exception name.
Spans stay in memory and are written to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _iterations(result):
    return {"iterations": int(result.iterations)}


def _rows(result):
    return {"rows": int(result.n)}


# "<module>.<function>" -> what to record from the returned value
TRACED = {
    "estimation.fit_mediator": _iterations,
    "estimation.fit_outcome": _iterations,
    "effects.effect_table": None,
    "inference.bootstrap_effects": lambda r: {"resamples": int(r.B), "failures": int(r.failures)},
    "simulation.simulate_dataset": _rows,
    "simulation.monte_carlo_study": lambda r: {"replicates": int(r.replications),
                                               "failures": int(r.n_failures)},
    "models.validate_dataset": _rows,
    "numerics.keyed_stream": None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self):
        """Replace every binding of a traced function in the loaded ordmed modules."""
        modules = [m for n, m in sys.modules.items() if n == "ordmed" or n.startswith("ordmed.")]
        for name, note in TRACED.items():
            home, attr = name.split(".")
            original = getattr(importlib.import_module(f"ordmed.{home}"), attr)
            wrapper = self.wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("ordmed.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
