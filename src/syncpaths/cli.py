"""Command-line interface: simulate | encode | diagram | count | dist | witness | verify.

Exit codes: 0 success, 2 invalid or degenerate input (an unreadable or
malformed file included), 3 resource guard exceeded, 1 internal error,
failed verification, or a Kuramoto regime failure (exhausted horizon,
desynchronized pair).  `count --jobs` sets the worker processes of the
K_n realizable-path count (default os.cpu_count(), at most that many are
started); the K_{n,n} ordering enumeration runs in one process and ignores it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .codes import CODES, parse_code_text
from .diagram import build_diagram, count_admissible_paths, export_dot, export_json
from .diagram import guarded_code_count, kn_admissible_paths
from .distributions import density_export, length_distribution, summary
from .errors import InvalidCodeError, NotTypicalError, SizeGuardError, SyncPathsError
from .flows import (
    KuramotoParams,
    kuramoto_sequence,
    switching_times_kn,
    switching_times_knn_balanced,
)
from .graphs import (
    Configuration,
    Family,
    GraphSpec,
    configuration_from_json,
    edges_to_json,
    sync_subnetwork,
)
from .realizability import (
    GOLOMB_TABLE,
    ORDERING_LIMIT_KNN,
    count_realizable_paths_kn,
    enumerate_realizable_orderings_knn,
    golomb_bounds,
    knn_path_upper_bound,
)
from .verify import report_to_json, run_verify
from .witness import witness_kn, witness_knn

# the realizable-path search took 1.4-1.5 s serially at n=6, end to end
# (2026-10-19, 2-core VM, CPython 3.11), and grows steeply with n; above it
# `count` reports the Golomb reference instead
COUNT_SEARCH_MAX_N = 6


def _converter(parse, ok, requirement: str):
    """An argparse type whose every rejection names the option and the requirement."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value

    return convert


_positive_float = _converter(float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")
_positive_int = _converter(int, lambda v: v >= 1, "must be >= 1")
# decimal or p/q text, kept exact
_positive_fraction = _converter(Fraction, lambda v: v > 0, "must be a decimal or p/q > 0")


def _check_finite(values, source: str) -> tuple:
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{source} values must be finite, got {v}")
    return tuple(values)


def _parse_values(text: str) -> tuple:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            vals.append(Fraction(tok) if "/" in tok else float(tok))
        except ZeroDivisionError:
            raise ValueError(f"--x values must be finite, got {tok}") from None
    return _check_finite(vals, "--x")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def sample_configuration(
    spec: GraphSpec, seed: int, for_kuramoto: bool = False, balanced: bool = False
) -> Configuration:
    """Seeded uniform sample in [0,1]^V, party-sorted; optional projections.

    The balanced projection shifts the second party by the exact rational
    mean difference (the balance predicate is exact, so a float shift would
    land one ulp off).
    """
    rng = np.random.default_rng(seed)
    x = rng.random(spec.vertex_count)
    n = spec.n
    if spec.family is Family.COMPLETE:
        x = np.sort(x)
    else:
        x = np.concatenate([np.sort(x[:n]), np.sort(x[n:])])
    if for_kuramoto:
        mean = x.mean()
        dev = np.max(np.abs(x - mean))
        bound = 0.5 * (math.pi / 4)
        if dev >= bound:
            x = mean + (x - mean) * (0.9 * bound / dev)
    if balanced and spec.family is Family.BIPARTITE:
        exact = [Fraction(float(v)) for v in x]
        shift = (sum(exact[:n]) - sum(exact[n:])) / n
        values = tuple(exact[:n]) + tuple(v + shift for v in exact[n:])
        return Configuration(spec, values)
    return Configuration(spec, tuple(float(v) for v in x))


def cmd_simulate(args) -> int:
    spec = GraphSpec(Family(args.family), args.n)
    if args.x:
        config = Configuration(spec, _parse_values(args.x))
    elif args.x_file:
        with open(args.x_file) as fh:
            config = configuration_from_json(fh.read())
        _check_finite(config.values, "--x-file")
        if config.spec != spec:
            raise ValueError("configuration file does not match --family/--n")
    else:
        config = sample_configuration(
            spec, args.seed, for_kuramoto=args.flow == "kuramoto", balanced=args.balanced
        )
    if args.flow == "kuramoto":
        params = KuramotoParams(sigma=args.sigma, step=args.step)
        seq = kuramoto_sequence(config, params, args.eps)
    elif spec.family is Family.COMPLETE:
        seq = switching_times_kn(config, args.eps)
    else:
        seq = switching_times_knn_balanced(config, args.eps)
    _write(seq.to_json() + "\n", args.out)
    print(
        f"{len(seq.events)} events; initial {seq.code_text(seq.initial_code)} "
        f"-> final {seq.code_text(seq.final_code)}",
        file=sys.stderr,
    )
    return 0


def cmd_encode(args) -> int:
    spec = GraphSpec(Family(args.family), args.n)
    config = Configuration(spec, _parse_values(args.x))
    family = CODES[spec.family]
    payload = {
        "code": family.text(family.encode(config, args.eps)),
        "edges": json.loads(edges_to_json(sync_subnetwork(config, args.eps))),
    }
    _write(json.dumps(payload) + "\n", args.out)
    return 0


def cmd_diagram(args) -> int:
    spec = GraphSpec(Family(args.family), args.n)
    diagram = build_diagram(spec)
    text = export_dot(diagram) if args.format == "dot" else export_json(diagram) + "\n"
    _write(text, args.out)
    print(
        f"{len(diagram.vertices)} vertices, {len(diagram.targets)} arrows, "
        f"{len(diagram.starts)} start codes",
        file=sys.stderr,
    )
    return 0


def cmd_count(args) -> int:
    spec = GraphSpec(Family(args.family), args.n)
    if spec.family is Family.COMPLETE:
        # closed forms; the diagram is not built, but its size guard still refuses
        codes, paths = guarded_code_count(spec), kn_admissible_paths(spec.n)
    else:
        # the bipartite bound refuses n >= 5 before the diagram is built
        bound = knn_path_upper_bound(spec.n)
        diagram = build_diagram(spec)
        codes = len(diagram.vertices)
        paths = sum(count_admissible_paths(diagram, s) for s in diagram.starts)
    report: dict = {"family": spec.family.value, "n": spec.n, "admissible_paths": str(paths)}
    if spec.family is Family.COMPLETE:
        if spec.n > COUNT_SEARCH_MAX_N:
            report["realizable_paths"] = None
            if spec.n in GOLOMB_TABLE:
                report["realizable_reference"] = str(GOLOMB_TABLE[spec.n])
        else:
            report["realizable_paths"] = str(count_realizable_paths_kn(spec.n, jobs=args.jobs))
        if spec.n >= 2:
            bounds = golomb_bounds(spec.n)
            report["bounds"] = {
                "lower_factorial": str(bounds.lower),
                "upper_thrall": str(bounds.upper_thrall),
                "upper_factorial": str(bounds.upper_factorial),
            }
        report["codes"] = str(codes)
    else:
        report["codes"] = str(codes)
        report["start_codes"] = len(diagram.starts)
        report["interleaving_bound"] = str(bound)
        if spec.n <= ORDERING_LIMIT_KNN:
            rows = enumerate_realizable_orderings_knn(spec.n, balanced=args.balanced)
            report["realizable_orderings"] = len(rows)
    if args.format == "json":
        _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{k}: {v}" for k, v in report.items()]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_dist(args) -> int:
    spec = GraphSpec(Family(args.family), args.n)
    if args.bins:
        _write(density_export(spec.family, spec.n, args.bins), args.out)
        return 0
    dist = length_distribution(spec.family, spec.n)
    stats = summary(dist)
    if args.format == "json":
        payload = json.loads(dist.to_json())
        payload["modes"] = list(stats.modes)
        payload["mean"] = str(stats.mean)
        _write(json.dumps(payload) + "\n", args.out)
    else:
        lines = [
            "lengths: " + ",".join(str(c) for c in dist.counts),
            f"modes: {list(stats.modes)} (ratio {[str(r) for r in stats.mode_ratios]})",
            f"mean: {stats.mean} = {float(stats.mean):.6f} "
            f"(ratio {float(stats.mean_ratio):.6f})",
        ]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_witness(args) -> int:
    family = Family(args.family)
    code = parse_code_text(args.code, family)
    config = (witness_kn if family is Family.COMPLETE else witness_knn)(code, args.eps)
    roundtrip = CODES[family].encode(config, args.eps) == code
    _write(config.to_json() + "\n", args.out)
    print(f"roundtrip {'confirmed' if roundtrip else 'FAILED'}", file=sys.stderr)
    return 0 if roundtrip else 1


def cmd_verify(args) -> int:
    report = run_verify(quick=args.quick)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report_to_json(report))
    unexplained = [
        c["name"]
        for c in report["checks"]
        if not c["passed"] and c["name"] not in report["documented_discrepancies"]
    ]
    if report["documented_discrepancies"]:
        print(
            "documented discrepancies: "
            + ", ".join(report["documented_discrepancies"]),
            file=sys.stderr,
        )
    if unexplained:
        print("failed checks: " + ", ".join(unexplained), file=sys.stderr)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncpaths",
        description="Synchronization-path combinatorics for complete and complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps_default=None):
        p.add_argument("--family", choices=["kn", "knn"], required=True)
        p.add_argument("--n", type=int, required=True)
        if eps_default is not None:
            p.add_argument("--eps", type=_positive_float, default=eps_default)
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("simulate", help="event sequence of a flow")
    common(p, eps_default=1e-3)
    p.add_argument("--flow", choices=["laplacian", "kuramoto"], default="laplacian")
    p.add_argument("--sigma", type=_positive_float, default=1.0)
    p.add_argument("--step", type=_positive_float, default=None)
    p.add_argument("--x", help="comma-separated positions (overrides --seed)")
    p.add_argument("--x-file", help="configuration JSON file (overrides --seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balanced", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("encode", help="code and edge set of a configuration")
    common(p, eps_default=1e-3)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("diagram", help="export the transition diagram")
    common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("count", help="admissible and realizable path counts")
    common(p)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes of the K_n realizable-path count "
                        "(default and cap: os.cpu_count())")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("dist", help="length distribution and statistics")
    common(p)
    p.add_argument("--bins", type=int, default=0, help="emit a density CSV instead")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("witness", help="construct a configuration realizing a code")
    p.add_argument("--family", choices=["kn", "knn"], required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--eps", type=_positive_fraction, default="1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--report", help="write the JSON report to a file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotTypicalError, InvalidCodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SyncPathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
