#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that a tiny run passes the correctness gate and
prints exactly the metrics ``BENCHMARK.json`` names, with their units; that
a traced run records spans in each layer the workload is meant to exercise;
that a corrupted reference makes the gate fail, while a Kuramoto event time
moved by less than the stated tolerance does not; and that a package error
other than the desync verdict is not taken for a verdict.  Last, it checks that
the benchmark refuses to run, printing no result, where only
``BENCHMARK.json`` and the benchmark's own files exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, HERE, REFERENCE, ROOT, SRC, WORKLOAD_NAMES

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402  (needs SRC on the path)
from workloads import TIME_TOL, WORKLOADS  # noqa: E402

# Metrics that must be nonzero in a traced tiny run: one per exercised layer.
EXERCISED = {
    "enumerate-kuramoto": (
        "ratlp.calls",
        "realizability.results",
        "realizability.self_s",
        "flows.kuramoto_calls",
        "flows.rk4_steps",
    ),
    "query-tables": (
        "ratlp.calls",
        "realizability.self_s",
        "witness.calls",
        "codes.encode_busy_s",
        "distributions.f_kn_busy_s",
        "distributions.f_knn_busy_s",
        "distributions.density_busy_s",
        "diagram.arrows",
        "diagram.count_calls",
    ),
}


def corrupt(answers: dict) -> None:
    """Change one answer per part; move one event time within tolerance."""
    answers["enumerate"]["kn4"]["count"] += 1
    first = next(k for k in answers["query"] if k.startswith("feasible/"))
    answers["query"][first] = not answers["query"][first]
    times = answers["kuramoto"]["knn3/seed11/eps0.01"]["times"]
    times[0] += 100 * TIME_TOL
    times[1] += TIME_TOL / 2
    answers["tables"]["count/kn10/identity"] = str(int(answers["tables"]["count/kn10/identity"]) + 1)


def other_errors_fail() -> bool:
    """A package error other than the desync verdict escapes ``_kuramoto``."""
    import workloads
    from syncpaths import flows
    from syncpaths.errors import InvalidCodeError

    def broken(*args):
        raise InvalidCodeError("injected")

    original = flows.kuramoto_sequence
    flows.kuramoto_sequence = broken
    try:
        workloads._kuramoto(None, workloads.K4_EPS)
    except InvalidCodeError:
        return True
    finally:
        flows.kuramoto_sequence = original
    return False


def run(workload: str, trace: int, cwd: Path = ROOT, *extra: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES),
          "BENCHMARK.json lists the workloads", failures)
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json lists the end-to-end metrics", failures)
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER),
          "BENCHMARK.json lists the per-layer metrics", failures)
    check(other_errors_fail(), "a Kuramoto error other than desync is a failed operation", failures)

    with tempfile.TemporaryDirectory() as tmp:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        corrupt(reference["answers"])
        bad_reference = Path(tmp) / "reference.json"
        bad_reference.write_text(json.dumps(reference))

        for workload in WORKLOAD_NAMES:
            for trace, expected in ((0, END_TO_END), (1, tracing.PER_LAYER)):
                code, lines, err = run(workload, trace)
                result = json.loads(lines[-1]) if lines else {}
                check(code == 0 and result.get("correct") is True
                      and sorted(result) == ["attempted", "correct", "failed", "metrics"],
                      f"{workload} trace={trace}: passes the gate", failures)
                metrics = result.get("metrics", {})
                check({k: v["unit"] for k, v in metrics.items()} == dict(expected),
                      f"{workload} trace={trace}: prints every metric with its unit", failures)
                if trace:
                    check(all(metrics.get(m, {}).get("value", 0) > 0 for m in EXERCISED[workload]),
                          f"{workload}: spans recorded in {', '.join(EXERCISED[workload])}", failures)
                if code:
                    print(err, file=sys.stderr)

            code, lines, err = run(workload, 0, ROOT, "--reference", str(bad_reference))
            result = json.loads(lines[-1]) if lines else {}
            passes = len(json.loads(lines[-2])["environment"]["pass_walls_s"]) if len(lines) > 1 else 0
            check(code == 1 and result.get("correct") is False
                  and result.get("failed") == len(WORKLOADS[workload]) * passes,
                  f"{workload}: corrupted reference fails the gate once per part and pass", failures)

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, err = run(WORKLOAD_NAMES[0], 0, bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "without the program: nonzero exit, no result", failures)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
