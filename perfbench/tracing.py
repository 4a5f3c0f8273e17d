"""Spans around calls into each syncpaths layer, recorded from outside the package.

``Tracer.install`` replaces the module attributes that callers resolve at
call time with timing wrappers.  That reaches nested calls too:
``realizability`` imports ``ratlp.solve_feasibility`` inside its function
bodies, and ``density_export`` looks ``f_kn``/``f_knn`` up as module
globals.  A name bound at import time (``from .codes import encode_kn``
inside ``flows``) is not reached, so only the benchmark's own calls to
``codes`` are timed.

Each span records its name, start, end, parent and the numbers taken from
the call (LP rows and verdict, results, steps, bits, arrows).  Spans stay in memory; the run
writes them out when it ends.  Passes run under the speed probe (``speed.py``),
so a span's time includes the probes that fired inside it, 1-2% of it.
"""

from __future__ import annotations

import functools
import math
import time

from syncpaths import codes, diagram, distributions, flows, ratlp, realizability, witness


def _lp_rows(args, kwargs, result):
    rows = len(kwargs.get("ge_rows", ())) + len(kwargs.get("eq_rows", ()))
    return rows, int(result is None)


def _rows_emitted(args, kwargs, result):
    return (len(result),)


def _feasible_found(args, kwargs, result):
    return (int(result is not None),)


def _rk4_steps(args, kwargs, result):
    """Computed, not counted: final event time over the step size."""
    config, params, eps = args
    if not result.events:
        return (0,)
    return (math.ceil(result.events[-1].t / params.effective_step(float(eps), config.spec.n)),)


def _count_bits(args, kwargs, result):
    return (sum(c.bit_length() for c in result.counts),)


def _arrows(args, kwargs, result):
    return (len(result.arrows),)


# (module, attribute, span name, numbers recorded from the call)
HOOKS = (
    (ratlp, "solve_feasibility", "ratlp", _lp_rows),
    (realizability, "enumerate_realizable_orderings_kn", "realizability", _rows_emitted),
    (realizability, "enumerate_realizable_orderings_knn", "realizability", _rows_emitted),
    (realizability, "feasible", "realizability", _feasible_found),
    (flows, "kuramoto_sequence", "flows.kuramoto", _rk4_steps),
    (distributions, "f_kn", "distributions.f_kn", _count_bits),
    (distributions, "f_knn", "distributions.f_knn", _count_bits),
    (distributions, "density_export", "distributions.density", None),
    (diagram, "build_diagram", "diagram.build", _arrows),
    (diagram, "count_admissible_paths", "diagram.count", None),
    (witness, "witness_kn", "witness", None),
    (witness, "witness_knn", "witness", None),
    (codes, "encode_kn", "codes.encode", None),
    (codes, "encode_knn", "codes.encode", None),
)

PER_LAYER = (  # (metric, unit)
    ("ratlp.calls", "count"),
    ("ratlp.infeasible", "count"),
    ("ratlp.busy_s", "s"),
    ("ratlp.mean_rows", "rows"),
    ("realizability.self_s", "s"),
    ("realizability.results", "count"),
    ("realizability.lp_per_result", "ratio"),
    ("flows.kuramoto_calls", "count"),
    ("flows.kuramoto_busy_s", "s"),
    ("flows.rk4_steps", "computed_steps"),
    ("flows.steps_per_s", "1/s"),
    ("distributions.f_kn_busy_s", "s"),
    ("distributions.f_knn_busy_s", "s"),
    ("distributions.density_busy_s", "s"),
    ("distributions.count_bits", "bit"),
    ("diagram.build_busy_s", "s"),
    ("diagram.count_busy_s", "s"),
    ("diagram.count_calls", "count"),
    ("diagram.arrows", "count"),
    ("witness.calls", "count"),
    ("witness.busy_s", "s"),
    ("codes.encode_busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# span fields
NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, value in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, value):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if value is not None:
                span[VALUE] = value(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (trace.overhead_s excepted).

    busy is the summed duration of a layer's spans; self time subtracts the
    time its direct child spans cover.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        name, dur = span[NAME], span[END] - span[START]
        busy[name] = busy.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if span[VALUE] is not None:
            sums = values.setdefault(name, [0] * len(span[VALUE]))
            for i, v in enumerate(span[VALUE]):
                sums[i] += v
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += dur
    realizability_self = sum(
        s[END] - s[START] - child_time[i] for i, s in enumerate(spans) if s[NAME] == "realizability"
    )
    lp_under_realizability = sum(
        1 for s in spans if s[NAME] == "ratlp" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "realizability"
    )

    def total(name: str, i: int = 0) -> int:
        return values[name][i] if name in values else 0

    lp_calls = calls.get("ratlp", 0)
    results = total("realizability")
    steps = total("flows.kuramoto")
    kuramoto_busy = busy.get("flows.kuramoto", 0.0)
    return {
        "ratlp.calls": lp_calls,
        "ratlp.infeasible": total("ratlp", 1),
        "ratlp.busy_s": busy.get("ratlp", 0.0),
        "ratlp.mean_rows": total("ratlp") / lp_calls if lp_calls else 0.0,
        "realizability.self_s": realizability_self,
        "realizability.results": results,
        "realizability.lp_per_result": lp_under_realizability / results if results else 0.0,
        "flows.kuramoto_calls": calls.get("flows.kuramoto", 0),
        "flows.kuramoto_busy_s": kuramoto_busy,
        "flows.rk4_steps": steps,
        "flows.steps_per_s": steps / kuramoto_busy if kuramoto_busy else 0.0,
        "distributions.f_kn_busy_s": busy.get("distributions.f_kn", 0.0),
        "distributions.f_knn_busy_s": busy.get("distributions.f_knn", 0.0),
        "distributions.density_busy_s": busy.get("distributions.density", 0.0),
        "distributions.count_bits": total("distributions.f_kn") + total("distributions.f_knn"),
        "diagram.build_busy_s": busy.get("diagram.build", 0.0),
        "diagram.count_busy_s": busy.get("diagram.count", 0.0),
        "diagram.count_calls": calls.get("diagram.count", 0),
        "diagram.arrows": total("diagram.build"),
        "witness.calls": calls.get("witness", 0),
        "witness.busy_s": busy.get("witness", 0.0),
        "codes.encode_busy_s": busy.get("codes.encode", 0.0),
    }
