#!/usr/bin/env python3
"""Benchmark of syncpaths: seeded workloads whose every output is checked.

Run from the repository root:

    python3 perfbench/run.py --workload query-tables --seed 1 --seconds 40 --trace 0

Workloads (defined, with the reason for each, in ``workloads.py``):
``enumerate-kuramoto`` and ``query-tables``.

A run first measures set-up several times, each in a fresh process started
from this file (interpreter start, import, input generation, reference load
and warm-up), then sets up once in this process and repeats passes over the
seed's operation list until ``--seconds`` would be exceeded.  Before each
pass, memoized distributions are cleared and garbage is collected, outside
the timed region.  Every output of every pass is compared with
``reference.json``; a mismatch or an unexpected exception counts as a failed
operation, is printed to stderr, and makes the run exit with 1.

Every end-to-end time, and ``trace.overhead_s``, is normalized by the
machine's speed, sampled while it was measured (see ``speed.py``): it is the
time the work would take where the speed probe takes ``speed.REFERENCE_S``.
The raw times are in the environment line.  Per-layer times are raw span
durations.

With ``--trace 0`` the last stdout line reports the end-to-end metrics: the
median pass time, per-operation latency percentiles pooled over the passes,
the median set-up time and the peak RSS of this process.  With ``--trace 1``
untraced and traced passes alternate (see ``tracing.py``) and the line reports
the per-layer metrics, medians over traced passes, plus the tracing overhead;
the spans are written to ``.perfbench/`` when the run ends.  The line before
it records the environment: cores, Python version, numba, commit, ``src/``
line count, raw times, probe times, pass and sample counts, and the error
rate.

``make_reference.py`` regenerates the reference; ``selftest.py`` checks this
script at a tiny size.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("enumerate-kuramoto", "query-tables")
SETUP_RUNS = 5
END_TO_END = (  # (metric, unit)
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's small subset of each workload")
    p.add_argument("--reference", type=Path, default=REFERENCE)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (one timed set-up)")
    return p.parse_args(argv)


def set_up(args):
    """Import, generate the seed's inputs, load the reference and warm up."""
    if not (SRC / "syncpaths").is_dir():
        raise BenchError(f"no syncpaths package under {SRC}")
    sys.path.insert(0, str(SRC))
    import syncpaths

    if Path(syncpaths.__file__).resolve().parent != SRC / "syncpaths":
        raise BenchError(f"imported syncpaths from {syncpaths.__file__}, not {SRC}")
    import workloads

    with open(args.reference) as fh:
        answers = json.load(fh)["answers"]
    reference = {k: v for part in workloads.WORKLOADS[args.workload] for k, v in answers[part].items()}
    ops = workloads.prepare(args.workload, args.seed, tiny=args.size == "tiny")
    missing = [op.key for op in ops if op.key not in reference]
    if missing:
        raise BenchError(f"no reference answer for {missing[:3]} ...")
    workloads.warm_up(args.workload)
    return ops, reference


def set_up_only(args) -> None:
    """Set up under the speed probe; print 'ready', the probes' seconds and the speed factor."""
    with speed.SpeedProbe() as probe:
        set_up(args)
    print("ready", sum(probe.times), probe.factor(), flush=True)


def time_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh process to its 'ready' line.

    Returns (raw, normalized): the normalized time leaves out the child's
    probes and scales by the child's speed factor.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--reference", str(args.reference), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    words = line.split()
    if code != 0 or len(words) != 3 or words[0] != "ready":
        raise BenchError(f"set-up run failed with exit code {code}")
    probes, factor = float(words[1]), float(words[2])
    return elapsed, (elapsed - probes) * factor


def run_pass(workload: str, ops):
    """One timed pass under the speed probe.

    Returns the raw wall seconds, the per-op seconds normalized by
    ``speed``, the mean probe time and the outputs.
    """
    import workloads

    workloads.before_pass(workload)
    clock = time.perf_counter
    spans, outputs = [], []
    with speed.SpeedProbe() as probe:
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # counted as a failed operation, not fatal
                out = exc
            spans.append((t0, clock()))
            outputs.append(out)
        wall = clock() - start
    latencies = [probe.normalize(t0, t1) for t0, t1 in spans]
    return wall, latencies, statistics.fmean(probe.times), outputs


def mismatches(ops, outputs, reference) -> list[str]:
    bad = []
    for op, out in zip(ops, outputs):
        want = reference[op.key]
        if isinstance(out, Exception):
            bad.append(f"{op.key}: raised {out!r}")
            continue
        got = json.loads(json.dumps(op.summarize(out)))
        if not op.matches(got, want):
            bad.append(f"{op.key}: got {got!r}, want {want!r}")
    return bad


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown: git failed"


@dataclass
class Measurement:
    """What the passes of one run gave; times are normalized (``speed.py``)."""

    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # pooled over passes
    raw_walls: list[float] = field(default_factory=list)
    probe_means: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    attempted: int = 0
    bad: list[str] = field(default_factory=list)

    def add_pass(self, ops, reference, raw_wall, latencies, probe_mean, outputs) -> float:
        self.raw_walls.append(raw_wall)
        self.probe_means.append(probe_mean)
        self.attempted += len(ops)
        self.bad += mismatches(ops, outputs, reference)
        return sum(latencies)


def environment(args, m: Measurement, raw_setup: list[float]) -> dict:
    from syncpaths import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_walls_s": m.walls,
        "raw_pass_walls_s": m.raw_walls,
        "probe_mean_s": m.probe_means,
        "raw_setup_s": raw_setup,
        "op_samples": len(m.latencies),
        "error_rate": len(m.bad) / m.attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_kernel": bool(_kernels.NUMBA_ENABLED),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def measure(args, ops, reference) -> Measurement:
    """Passes until the next one would overrun --seconds; traced ones alternate in."""
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    m = Measurement()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        raw, lat, probe_mean, outputs = run_pass(args.workload, ops)
        m.walls.append(m.add_pass(ops, reference, raw, lat, probe_mean, outputs))
        m.latencies += lat
        if tracer:
            tracer.install()
            try:
                raw, lat, probe_mean, outputs = run_pass(args.workload, ops)
            finally:
                tracer.uninstall()
            m.traced_walls.append(m.add_pass(ops, reference, raw, lat, probe_mean, outputs))
            m.layers.append(tracing.layer_metrics(tracer.spans))
            m.spans.append(list(tracer.spans))
            tracer.spans.clear()
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up_only(args)
        return 0
    setup = [] if args.trace else [time_setup(args) for _ in range(SETUP_RUNS)]
    ops, reference = set_up(args)
    m = measure(args, ops, reference)
    for line in m.bad[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)

    if args.trace:
        import tracing

        metrics = {
            name: statistics.median(layer[name] for layer in m.layers)
            for name, _unit in tracing.PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(m.traced_walls) - statistics.median(m.walls)
        units = dict(tracing.PER_LAYER)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "values"], "passes": m.spans}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(m.walls),
            "op_p50_ms": 1e3 * statistics.median(m.latencies),
            "op_p90_ms": 1e3 * statistics.quantiles(m.latencies, n=10)[8],
            "setup_s": statistics.median(norm for _raw, norm in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    print(json.dumps({"environment": environment(args, m, [raw for raw, _norm in setup])}))
    print(json.dumps({
        "correct": not m.bad,
        "attempted": m.attempted,
        "failed": len(m.bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if m.bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
