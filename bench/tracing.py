"""Per-layer tracing of the cvmdi package from outside its source.

`Tracer.patch()` replaces the public entry points listed in TRACED with
wrappers, in every cvmdi module that binds them, and restores the
originals on exit.  Each wrapper records a span (name, start, end,
parent) and, for a few functions, a work count read from the arguments
or the return value.  Self time is computed afterwards from the spans.

Only public entry points are wrapped: cheap scalars such as
`gaussian.entropy_term` would be swamped by the wrapper's own cost.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("cli", "optimizer", "finite_size", "keyrate", "gaussian", "channel",
           "estimation", "simulator")

TRACED = (
    "cli.main",
    "optimizer.optimize_key_rate",
    "optimizer.optimize_asymptotic",
    "finite_size.projected_key_rate",
    "finite_size.finite_size_key_rate",
    "keyrate.key_rate_breakdown",
    "keyrate.conditional_cms",
    "gaussian.symplectic_eigenvalues",
    "gaussian.von_neumann_entropy",
    "channel.noise_from_attack",
    "channel.eve_cm",
    "estimation.report_from_parameters",
    "estimation.estimate_channel",
    "estimation.estimate_covariances",
    "estimation.estimate_excess_noise",
    "simulator.run_trials",
    "simulator.sample_dataset",
)

_FLOAT_BYTES = 8
# Record columns read by one call: four dot products of two columns each,
# and two residuals built from three columns each.
_COLUMNS_READ = {"estimation.estimate_covariances": 8,
                 "estimation.estimate_excess_noise": 6}
# A dataset holds six float64 columns: a_q, a_p, b_q, b_p, r_q, r_p.
DATASET_BYTES_PER_RECORD = 6 * _FLOAT_BYTES


def _count_optimum(counts: Counter, args, result) -> None:
    counts["evaluations"] += result.evaluations
    counts["rate_computations"] += len({(v, r) for v, r, _ in result.trace})


def _count_asymptotic(counts: Counter, args, result) -> None:
    trace = result[2]
    counts["evaluations"] += len(trace)
    counts["rate_computations"] += len({v for v, _ in trace})


def _count_dataset(counts: Counter, args, result) -> None:
    counts["records_drawn"] += result.m


def _count_pass(name: str):
    def count(counts: Counter, args, result) -> None:
        counts["record_passes"] += 1
        counts["bytes_read"] += _COLUMNS_READ[name] * args[0].m * _FLOAT_BYTES
    return count


_OBSERVERS = {
    "optimizer.optimize_key_rate": _count_optimum,
    "optimizer.optimize_asymptotic": _count_asymptotic,
    "simulator.sample_dataset": _count_dataset,
    "estimation.estimate_covariances": _count_pass("estimation.estimate_covariances"),
    "estimation.estimate_excess_noise": _count_pass("estimation.estimate_excess_noise"),
}


class Tracer:
    """Span recorder for one traced job at a time.

    Spans live in flat arrays, so recording one allocates no object the
    garbage collector tracks; `spans` rebuilds (name, start, end, parent)
    tuples, parent being the index of the enclosing span or -1.  errors
    and counts accumulate per name.
    """

    def __init__(self):
        self._names = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def reset(self) -> None:
        for column in (self._names, self._starts, self._ends, self._parents):
            del column[:]
        self._stack.clear()
        self.errors.clear()
        self.counts.clear()

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(TRACED[n], s, e, p) for n, s, e, p in
                zip(self._names, self._starts, self._ends, self._parents)]

    def wrap(self, name: str, fn):
        code = TRACED.index(name)
        names, starts, ends, parents = self._names, self._starts, self._ends, self._parents
        stack, errors, counts = self._stack, self.errors, self.counts
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patch(self):
        """Swap every binding of a TRACED function in the cvmdi modules."""
        for module in MODULES:
            importlib.import_module(f"cvmdi.{module}")
        package = [m for n, m in list(sys.modules.items())
                   if n == "cvmdi" or n.startswith("cvmdi.")]
        swapped = []
        try:
            for qualname in TRACED:
                module_name, attr = qualname.split(".")
                original = getattr(sys.modules[f"cvmdi.{module_name}"], attr)
                wrapper = self.wrap(qualname, original)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            swapped.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(swapped):
                setattr(module, key, original)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: its duration minus its children's.

    Children run inside their parent's interval and never overlap each
    other, since every traced call is synchronous on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)
