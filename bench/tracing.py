"""Per-layer trace of the in-process workloads, taken from outside the program.

`install` rebinds the public functions of the six modules, as each
consumer module binds them, to wrappers that record into a Tracer.  Nothing
under src/ changes.  Wrappers record only while an op is open, so the
benchmark's own answer checks are not counted.

Calls into the layers become spans (name, start, end, parent span, op id)
kept in memory and written out at the end.  The hot leaves (`binomial`,
`forbidden_pair`) are too frequent for a span each; they add to counters.
Layer times are inclusive: a span's time contains the spans and leaf calls
below it, and the parent links give self time.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from chainweight import binom, chaincount, conditions, families, levelbounds

LARGE_N = 512  # first row past binom's Pascal-row cache

LAYER_METRICS = (
    "binom.calls",
    "binom.busy_s",
    "binom.calls_large_n",
    "conditions.compile_calls",
    "conditions.compile_misses",
    "conditions.compile_s",
    "conditions.forbidden_pair_calls",
    "levelbounds.dp_s",
    "levelbounds.bnb_s",
    "levelbounds.closed_form_s",
    "chaincount.optimize_calls",
    "chaincount.optimize_s",
    "chaincount.count_s",
    "chaincount.window_s",
    "chaincount.budget_exceeded",
    "families.build_s",
    "families.satisfies_s",
    "families.count_chains_s",
    "families.count_bigint_s",
    "families.max_family_s",
    "families.max_chains_s",
)


class Tracer:
    """Spans and layer totals for the ops of one traced phase."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list = []
        self.stack: list[int] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._misses_at_begin = 0

    def begin(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self._misses_at_begin = conditions.level_conflicts.cache_info().misses
        self._open(f"op.{kind}")

    def end(self) -> None:
        self._close(self.stack[-1])
        self.totals["conditions.compile_misses"] += (
            conditions.level_conflicts.cache_info().misses - self._misses_at_begin
        )
        self.op = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        return span[2] - span[1]

    def span(self, name: str, fn, attribute):
        """Wrap fn: one span per call; attribute(args, result, seconds) adds to totals."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            attribute(args, result, self._close(index))
            return result

        return wrapper

    def binomial(self, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(n, k):
            if self.op is None:
                return fn(n, k)
            start = perf_counter()
            result = fn(n, k)
            totals["binom.busy_s"] += perf_counter() - start
            totals["binom.calls"] += 1
            if n >= LARGE_N:
                totals["binom.calls_large_n"] += 1
            return result

        return wrapper

    def counted(self, metric: str, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args):
            if self.op is not None:
                totals[metric] += 1
            return fn(*args)

        return wrapper

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every layer total divided by the number of ops traced."""
        return {name: self.totals.get(name, 0.0) / max(ops, 1) for name in LAYER_METRICS}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "totals": dict(self.totals),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _add(tracer: Tracer, seconds_metric: str, calls_metric: str | None = None):
    def attribute(args, result, seconds):
        tracer.totals[seconds_metric] += seconds
        if calls_metric:
            tracer.totals[calls_metric] += 1

    return attribute


def install(tracer: Tracer):
    """Rebind the traced names; returns a function that restores them."""
    saved = []

    def rebind(owner, name, wrapper_for):
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        setattr(owner, name, wrapper_for(original))

    def spanned(name, attribute):
        return lambda fn: tracer.span(name, fn, attribute)

    def size_bound_attribute(args, result, seconds):
        kind = "levelbounds.bnb_s" if result.method == levelbounds.METHOD_BRANCH_AND_BOUND else "levelbounds.dp_s"
        tracer.totals[kind] += seconds

    def count_family_attribute(args, result, seconds):
        family, ell = args
        tracer.totals["families.count_chains_s"] += seconds
        # The same guard count_chains_family uses to leave int64.
        if ell > 1 and (ell + 1) ** family.n >= 2**62:
            tracer.totals["families.count_bigint_s"] += seconds

    for module in (binom, levelbounds, chaincount):
        rebind(module, "binomial", tracer.binomial)
    for module in (conditions, families):
        rebind(module, "forbidden_pair", lambda fn: tracer.counted("conditions.forbidden_pair_calls", fn))
    for module in (levelbounds, chaincount):
        rebind(module, "level_conflicts",
               spanned("conditions.level_conflicts", _add(tracer, "conditions.compile_s", "conditions.compile_calls")))
    rebind(levelbounds, "size_bound", spanned("levelbounds.size_bound", size_bound_attribute))
    for name in ("sperner_bound", "erdos_bound", "katona_bound", "best_ratio_window"):
        rebind(levelbounds, name, spanned(f"levelbounds.{name}", _add(tracer, "levelbounds.closed_form_s")))

    def optimize(fn):
        traced = tracer.span("chaincount.optimal_levels_for_chains", fn,
                             _add(tracer, "chaincount.optimize_s", "chaincount.optimize_calls"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except chaincount.SearchBudgetExceeded:
                if tracer.op is not None:
                    tracer.totals["chaincount.budget_exceeded"] += 1
                raise

        return wrapper

    rebind(chaincount, "optimal_levels_for_chains", optimize)
    rebind(chaincount, "count_chains_levels",
           spanned("chaincount.count_chains_levels", _add(tracer, "chaincount.count_s")))
    rebind(chaincount, "best_window_for_chains",
           spanned("chaincount.best_window_for_chains", _add(tracer, "chaincount.window_s")))
    for name in ("from_levels", "from_hex"):
        rebind(families.FamilyMask, name,
               lambda method, name=name: classmethod(
                   tracer.span(f"families.FamilyMask.{name}", method.__func__, _add(tracer, "families.build_s"))))
    rebind(families, "family_satisfies", spanned("families.family_satisfies", _add(tracer, "families.satisfies_s")))
    rebind(families, "count_chains_family", spanned("families.count_chains_family", count_family_attribute))
    rebind(families, "max_family", spanned("families.max_family", _add(tracer, "families.max_family_s")))
    rebind(families, "max_chains_family", spanned("families.max_chains_family", _add(tracer, "families.max_chains_s")))

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore
