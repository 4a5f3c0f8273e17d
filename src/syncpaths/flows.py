"""Linear (Laplacian) and Kuramoto flows, switching times, and event sequences.

The linear flow admits closed forms on both graph families; the event
sequence of an ordered typical configuration is produced from them exactly,
never by integration.  The Kuramoto flow is integrated by classical RK4
with bisection-refined threshold crossings (see ``_kernels``).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .codes import (
    KnCode,
    KnnCode,
    encode_kn,
    encode_knn,
    kn_code_text,
    knn_code_text,
)
from .errors import NotTypicalError, SyncPathsError, UnsynchronizedError
from .graphs import Configuration, Edge, Family, GraphSpec, laplacian


@dataclass(frozen=True)
class KuramotoParams:
    """Coupling strength plus integration controls.

    step defaults to min(1e-3, eps / (10 * sigma * n)) so that event
    resolution beats the smallest expected inter-event gap.
    """

    sigma: float = 1.0
    step: float | None = None
    crossing_tol: float = 1e-10
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.crossing_tol <= 0:
            raise ValueError("crossing_tol must be positive")

    def effective_step(self, eps: float, n: int) -> float:
        if self.step is not None:
            return self.step
        return min(1e-3, eps / (10.0 * self.sigma * n))


@dataclass(frozen=True)
class OrderParameter:
    r: float
    theta: float


@dataclass(frozen=True)
class SyncEvent:
    t: float
    site: int
    sign: int  # 0 for the complete family, else -1 / +1
    edge: Edge


@dataclass(frozen=True)
class SyncSequence:
    spec: GraphSpec
    eps: float
    initial_code: KnCode | KnnCode
    events: tuple[SyncEvent, ...]
    final_code: KnCode | KnnCode

    def jump_sites(self) -> tuple[int, ...]:
        return tuple(e.site for e in self.events)

    def edge_order(self) -> tuple[Edge, ...]:
        return tuple(e.edge for e in self.events)

    def code_text(self, code) -> str:
        if self.spec.family is Family.COMPLETE:
            return kn_code_text(code)
        return knn_code_text(code)

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_code": self.code_text(self.initial_code),
                "events": [
                    {
                        "t": f"{e.t:.12g}",
                        "site": e.site,
                        "sign": e.sign,
                        "edge": list(e.edge),
                    }
                    for e in self.events
                ],
                "final_code": self.code_text(self.final_code),
            }
        )


# ---------------------------------------------------------------------------
# closed-form linear trajectories
# ---------------------------------------------------------------------------

def laplacian_trajectory_kn(config: Configuration, t: float) -> Configuration:
    """Exact linear flow on the complete graph: contraction to the mean at rate n."""
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("complete-graph configuration required")
    x = config.as_array()
    mean = x.mean()
    decay = math.exp(-config.spec.n * t)
    return Configuration(config.spec, tuple(mean + decay * (x - mean)))


def laplacian_trajectory_knn(config: Configuration, t: float) -> Configuration:
    """Exact linear flow on the bipartite family.

    Within-party offsets contract at rate n; the party-mean gap contracts at
    rate 2n, so the cross difference of vertices n and N+m evolves as
    exp(-n t) * (x_n - x_{N+m} - (1 - exp(-n t)) * (mean_1 - mean_2)).
    """
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("bipartite configuration required")
    n = config.spec.n
    x = config.as_array()
    mean = x.mean()
    m1 = x[:n].mean()
    m2 = x[n:].mean()
    u = math.exp(-n * t)
    u2 = math.exp(-2 * n * t)
    out = np.empty_like(x)
    out[:n] = mean + u2 * (m1 - mean) + u * (x[:n] - m1)
    out[n:] = mean + u2 * (m2 - mean) + u * (x[n:] - m2)
    return Configuration(config.spec, tuple(out))


def rk4_linear_trajectory(config: Configuration, t: float, step: float = 1e-3) -> Configuration:
    """RK4 integration of the linear flow; cross-validates the closed forms."""
    mat = laplacian(config.spec).astype(np.float64)
    x = config.as_array()
    remaining = t
    while remaining > 1e-15:
        h = min(step, remaining)
        k1 = mat @ x
        k2 = mat @ (x + 0.5 * h * k1)
        k3 = mat @ (x + 0.5 * h * k2)
        k4 = mat @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        remaining -= h
    return Configuration(config.spec, tuple(x))


# ---------------------------------------------------------------------------
# switching times of the linear flow
# ---------------------------------------------------------------------------

def _event_increments(values, eps) -> dict[Edge, object]:
    """Increments exceeding eps, keyed by edge; ties among them are ambiguous.

    Increments at or below eps never generate events (their pairs belong to
    the initial code), so they are exempt from the typicality requirement;
    in particular a diagonal configuration yields an empty event list.
    """
    n = len(values)
    incs: dict[Edge, object] = {}
    for a in range(n):
        for b in range(a + 1, n):
            inc = values[b] - values[a]
            if inc > eps:
                incs[(a + 1, b + 1)] = inc
    if len(set(incs.values())) != len(incs):
        raise NotTypicalError("event-generating increments must be pairwise distinct")
    return incs


def switching_times_kn(config: Configuration, eps) -> SyncSequence:
    """Event sequence of the linear flow on the complete graph, from the closed form.

    The edge {n, m} with increment d > eps appears at (log d - log eps) / n;
    sorting by increment therefore sorts by time exactly.
    """
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("complete-graph configuration required")
    if not config.is_ordered():
        raise ValueError("configuration must be sorted ascending")
    n = config.spec.n
    incs = _event_increments(config.values, eps)

    initial = encode_kn(config, eps)
    code = list(initial)
    events = []
    for (u, v), inc in sorted(incs.items(), key=lambda kv: kv[1]):
        t = (math.log(inc) - math.log(eps)) / n
        if code[u - 1] != v - 1:
            raise SyncPathsError(f"edge {(u, v)} arrived out of reach order")
        code[u - 1] = v
        events.append(SyncEvent(t=t, site=u, sign=0, edge=(u, v)))
    return SyncSequence(config.spec, float(eps), initial, tuple(events), tuple(code))


def switching_times_knn_balanced(config: Configuration, eps) -> SyncSequence:
    """Event sequence of the linear flow on the bipartite family, balanced case.

    With equal party means every cross difference decays monotonically at
    rate n, so events are the cross pairs sorted by initial magnitude, each
    signed by which side of its row the column joins from.  Unbalanced
    configurations are rejected: their cross distances need not be monotone
    and edges may detach (no single event sequence exists).
    """
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("bipartite configuration required")
    if not config.is_ordered():
        raise ValueError("both parties must be sorted ascending")
    if not config.is_balanced():
        raise ValueError("party means must be equal; use the Kuramoto flow otherwise")
    n = config.spec.n
    diffs: dict[Edge, Fraction] = {}
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            d = Fraction(config[n + col]) - Fraction(config[row])
            if abs(d) > eps:
                diffs[(row, n + col)] = d
    mags = [abs(d) for d in diffs.values()]
    if len(set(mags)) != len(mags):
        raise NotTypicalError("event-generating magnitudes must be pairwise distinct")

    initial = encode_knn(config, eps)
    code = initial
    events = []
    for edge, d in sorted(diffs.items(), key=lambda kv: abs(kv[1])):
        t = float((math.log(abs(d)) - math.log(eps)) / n)
        site, sign, code = apply_edge_knn(code, edge, n)
        if sign != (1 if d > 0 else -1):
            raise SyncPathsError(f"edge {edge} joined from the side opposite its sign")
        events.append(SyncEvent(t=t, site=site, sign=sign, edge=edge))
    return SyncSequence(config.spec, float(eps), initial, tuple(events), code)


def cross_party_crossing_times(config: Configuration, eps, row: int, col: int) -> tuple[float, ...]:
    """Times t > 0 at which |x_row(t) - x_{n+col}(t)| equals eps (bipartite).

    Substituting u = exp(-n t) turns the closed form into the quadratic
    b u^2 + (d - b) u = +-eps with d the initial cross difference and b the
    party-mean gap; roots with u in (0, 1) are kept, sorted by increasing t.
    Strongly unbalanced inputs can produce up to three crossings.
    """
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("bipartite configuration required")
    n = config.spec.n
    d = float(config[row]) - float(config[n + col])
    m1, m2 = config.party_means()
    b = float(m1 - m2)
    eps = float(eps)

    roots: list[float] = []
    for rhs in (eps, -eps):
        # b*u^2 + (d - b)*u - rhs = 0
        roots.extend(_quadratic_roots(b, d - b, -rhs))
    keep = sorted({u for u in roots if 0.0 < u < 1.0}, reverse=True)
    return tuple(-math.log(u) / n for u in keep)


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if b != 0.0 else math.sqrt(disc) / 2.0
    if q == 0.0:
        return [0.0, -b / a]
    return [q / a, c / q]


# ---------------------------------------------------------------------------
# Kuramoto flow
# ---------------------------------------------------------------------------

def order_parameter(config: Configuration) -> OrderParameter | tuple[OrderParameter, OrderParameter]:
    """Unnormalized complex sum of phases; per party for the bipartite family."""

    def summed(values) -> OrderParameter:
        z = sum(cmath.exp(1j * float(v)) for v in values)
        r = abs(z)
        if r <= 4e-15 * len(values):  # exact cancellation up to rounding dust
            return OrderParameter(0.0, 0.0)
        return OrderParameter(r, cmath.phase(z))

    if config.spec.family is Family.COMPLETE:
        return summed(config.values)
    return summed(config.party(1)), summed(config.party(2))


def _monitored_pairs(spec: GraphSpec) -> list[Edge]:
    return list(spec.edges())


def apply_edge_kn(code: KnCode, edge: Edge) -> tuple[int, int, KnCode]:
    """(site, sign, new code) after the edge joins; edges must arrive in reach order."""
    u, v = edge
    if code[u - 1] != v - 1:
        raise NotTypicalError(f"edge {edge} is not the next reach step of {code}")
    return u, 0, code[: u - 1] + (v,) + code[u:]


def apply_edge_knn(code: KnnCode, edge: Edge, n: int) -> tuple[int, int, KnnCode]:
    """(site, sign, new code): the new column must extend one end of its row."""
    alpha, omega = code
    row, col = edge[0], edge[1] - n
    if col == alpha[row - 1] - 1:
        return row, -1, (alpha[: row - 1] + (col,) + alpha[row:], omega)
    if col == omega[row - 1] + 1:
        return row, +1, (alpha, omega[: row - 1] + (col,) + omega[row:])
    raise NotTypicalError(f"edge {edge} does not border row {row} of {code}")


def check_kuramoto_precondition(config: Configuration) -> None:
    """Phases must stay within pi/4 of their (party) mean for monotone contraction."""
    bound = math.pi / 4
    if config.spec.family is Family.COMPLETE:
        groups = [config.values]
    else:
        groups = [config.party(1), config.party(2)]
    for vals in groups:
        mean = sum(float(v) for v in vals) / len(vals)
        if max(abs(float(v) - mean) for v in vals) >= bound:
            raise ValueError("phases must lie within pi/4 of the (party) mean")


def kuramoto_sequence(config: Configuration, params: KuramotoParams, eps) -> SyncSequence:
    """Event sequence of the Kuramoto flow, RK4 + bisection event location."""
    check_kuramoto_precondition(config)
    if not config.is_ordered():
        raise ValueError("configuration must be (party-)ordered")
    spec = config.spec
    eps = float(eps)
    n_party = 0 if spec.family is Family.COMPLETE else spec.n
    x0 = [float(v) for v in config.values]

    pairs = _monitored_pairs(spec)
    ends = [(u - 1, v - 1) for u, v in pairs]
    gaps = [abs(x0[u] - x0[v]) for u, v in ends]
    active0 = [gap <= eps for gap in gaps]

    step = params.effective_step(eps, spec.n)
    if params.horizon is not None:
        horizon = params.horizon
    else:
        worst = max([*gaps, eps])  # a single vertex has no pairs
        horizon = 20.0 * (math.log(worst / eps) + 1.0) / (params.sigma * spec.n)
    max_steps = int(math.ceil(horizon / step)) + 1

    ev_t, ev_p, status, _, _ = _kernels.integrate_events(
        x0, params.sigma, eps, n_party, step, params.crossing_tol, max_steps, ends, active0
    )
    if status == 1:
        raise UnsynchronizedError(f"horizon {horizon:.3g} exhausted")
    if status == 2:
        raise NotTypicalError("two crossings within crossing_tol")
    if status == 3:
        raise SyncPathsError("a synchronized pair desynchronized (outside monotone regime)")

    if spec.family is Family.COMPLETE:
        initial = encode_kn(config, eps)
    else:
        initial = encode_knn(config, eps)
    code = initial
    events = []
    for t, p in zip(ev_t, ev_p):
        edge = pairs[p]
        if spec.family is Family.COMPLETE:
            site, sign, code = apply_edge_kn(code, edge)
        else:
            site, sign, code = apply_edge_knn(code, edge, spec.n)
        events.append(SyncEvent(t=t, site=site, sign=sign, edge=edge))
    return SyncSequence(spec, eps, initial, tuple(events), code)


def replay_code_sequence(seq: SyncSequence):
    """Codes visited along a sequence, including the initial one."""
    spec = seq.spec
    code = seq.initial_code
    codes = [code]
    for e in seq.events:
        if spec.family is Family.COMPLETE:
            _, _, code = apply_edge_kn(code, e.edge)
        else:
            _, _, code = apply_edge_knn(code, e.edge, spec.n)
        codes.append(code)
    return codes


def sync_edges_of_code(spec: GraphSpec, code) -> frozenset[Edge]:
    from .codes import decode_kn, decode_knn

    return decode_kn(code) if spec.family is Family.COMPLETE else decode_knn(code)
