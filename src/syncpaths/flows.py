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
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import _kernels
from .codes import CODES, Code, apply_edge
from .errors import NotTypicalError, SyncPathsError
from .graphs import Configuration, Edge, Family, GraphSpec, check_positive


@dataclass(frozen=True)
class KuramotoParams:
    """Coupling strength sigma and the RK4 step.

    step defaults to min(1e-3, eps / (10 * sigma * n)) so that event
    resolution beats the smallest expected inter-event gap.
    """

    sigma: float = 1.0
    step: float | None = None
    crossing_tol: ClassVar[float] = _kernels.CROSSING_TOL

    def __post_init__(self) -> None:
        check_positive(self.sigma, "sigma")
        if self.step is not None:  # None: the default step below
            check_positive(self.step, "step")

    def effective_step(self, eps: float, n: int) -> float:
        if self.step is not None:
            return self.step
        return min(1e-3, eps / (10.0 * self.sigma * n))


@dataclass(frozen=True)
class OrderParameter:
    r: float
    theta: float


class SyncEvent(NamedTuple):
    t: float
    site: int
    sign: int  # 0 for the complete family, else -1 / +1
    edge: Edge


@dataclass(frozen=True)
class SyncSequence:
    spec: GraphSpec
    eps: float
    initial_code: Code
    events: tuple[SyncEvent, ...]
    final_code: Code

    def jump_sites(self) -> tuple[int, ...]:
        return tuple(e.site for e in self.events)

    def edge_order(self) -> tuple[Edge, ...]:
        return tuple(e.edge for e in self.events)

    def code_text(self, code) -> str:
        return CODES[self.spec.family].text(code)

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

def linear_flow(config: Configuration) -> Callable[[float], np.ndarray]:
    """The exact linear flow from config as a function of t; means are taken once.

    On the complete graph it contracts to the mean at rate n.  On the
    bipartite family within-party offsets contract at rate n and the
    party-mean gap at rate 2n, so the cross difference of vertices n and N+m
    evolves as exp(-n t) * (x_n - x_{N+m} - (1 - exp(-n t)) * (mean_1 - mean_2)).
    """
    n, x = config.spec.n, config.as_array()
    mean = x.mean()
    if config.spec.family is Family.COMPLETE:
        return lambda t: mean + math.exp(-n * t) * (x - mean)
    party = np.repeat([x[:n].mean(), x[n:].mean()], n)  # each vertex's party mean
    return lambda t: mean + math.exp(-2 * n * t) * (party - mean) + math.exp(-n * t) * (x - party)


def laplacian_trajectory_kn(config: Configuration, t: float) -> Configuration:
    """Exact linear flow on the complete graph at time t (see ``linear_flow``)."""
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("complete-graph configuration required")
    return Configuration(config.spec, tuple(linear_flow(config)(t)))


def laplacian_trajectory_knn(config: Configuration, t: float) -> Configuration:
    """Exact linear flow on the bipartite family at time t (see ``linear_flow``)."""
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("bipartite configuration required")
    return Configuration(config.spec, tuple(linear_flow(config)(t)))


def rk4_linear_step(mat: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of size h of the linear flow x' = mat @ x."""
    k1 = mat @ x
    k2 = mat @ (x + 0.5 * h * k1)
    k3 = mat @ (x + 0.5 * h * k2)
    k4 = mat @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# switching times of the linear flow
# ---------------------------------------------------------------------------

def _sequence(config: Configuration, eps, timed_edges, *args) -> SyncSequence:
    """Encode config at eps, the only check of eps and order, then replay the
    (t, edge, direction) events of timed_edges(config, eps, *args) from its code.

    direction is the sign of the edge's initial difference, or 0 where it
    is not checked; a bipartite edge must join from that side.
    """
    initial = code = CODES[config.spec.family].encode(config, eps)
    events = []
    for t, edge, direction in timed_edges(config, eps, *args):
        site, sign, code, _ = apply_edge(config.spec.family, code, edge)
        if sign * direction < 0:
            raise SyncPathsError(f"edge {edge} joined from the side opposite its sign")
        events.append(SyncEvent(t, site, sign, edge))
    return SyncSequence(config.spec, float(eps), initial, tuple(events), code)


def _linear_events(config: Configuration, eps) -> list:
    """Timed events of a linear flow whose every difference decays at rate n.

    The edge with exact difference d, |d| > eps, appears at
    (log |d| - log eps) / n, so sorting by |d| sorts by time exactly.
    Differences at or below eps never generate events (their pairs belong
    to the initial code), so they are exempt from the typicality
    requirement; in particular a diagonal configuration has no events.
    """
    n = config.spec.n
    values = [Fraction(v) for v in config.values]
    events = []  # (|d|, edge, sign of d)
    for u, v in config.spec.edges():
        d = values[v - 1] - values[u - 1]
        if abs(d) > eps:
            events.append((abs(d), (u, v), 1 if d > 0 else -1))
    events.sort()
    if any(a[0] == b[0] for a, b in zip(events, events[1:])):
        raise NotTypicalError("event-generating increments must be pairwise distinct")
    log_eps = math.log(eps)
    return [((math.log(mag) - log_eps) / n, edge, sign) for mag, edge, sign in events]


def switching_times_kn(config: Configuration, eps) -> SyncSequence:
    """Event sequence of the linear flow on the complete graph, from the closed form.

    Every increment contracts at rate n (see ``_linear_events``).
    """
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("complete-graph configuration required")
    return _sequence(config, eps, _linear_events)


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
    if not config.is_balanced():
        raise ValueError("party means must be equal; use the Kuramoto flow otherwise")
    return _sequence(config, eps, _linear_events)


def cross_party_crossing_times(config: Configuration, eps, row: int, col: int) -> tuple[float, ...]:
    """Times t > 0 at which |x_row(t) - x_{n+col}(t)| equals eps (bipartite).

    Substituting u = exp(-n t) turns the closed form into the quadratic
    b u^2 + (d - b) u = +-eps with d the initial cross difference and b the
    party-mean gap; roots with u in (0, 1) are kept, sorted by increasing t.
    Strongly unbalanced inputs can produce up to three crossings.
    """
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("bipartite configuration required")
    check_positive(eps)
    n = config.spec.n
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"row and col must lie in 1..{n}, got {row} and {col}")
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

    parts = tuple(summed(group) for group in config.groups())
    return parts if len(parts) == 2 else parts[0]


def check_kuramoto_precondition(config: Configuration) -> None:
    """Phases must be finite and stay within pi/4 of their (party) mean for
    monotone contraction."""
    if not all(math.isfinite(float(v)) for v in config.values):
        raise ValueError("phases must be finite")
    bound = math.pi / 4
    for vals in config.groups():
        mean = sum(float(v) for v in vals) / len(vals)
        if max(abs(float(v) - mean) for v in vals) >= bound:
            raise ValueError("phases must lie within pi/4 of the (party) mean")


def kuramoto_sequence(config: Configuration, params: KuramotoParams, eps) -> SyncSequence:
    """Event sequence of the Kuramoto flow, RK4 + bisection event location."""
    return _sequence(config, eps, _kuramoto_events, params)


def _kuramoto_events(config: Configuration, eps, params: KuramotoParams):
    """Timed events of the Kuramoto flow; eps and the order are already checked."""
    check_kuramoto_precondition(config)
    spec = config.spec
    eps = float(eps)
    n_party = 0 if spec.family is Family.COMPLETE else spec.n
    x0 = [float(v) for v in config.values]

    pairs = list(spec.edges())
    step = params.effective_step(eps, spec.n)
    # a single vertex has no pairs
    worst = max([*(abs(x0[u - 1] - x0[v - 1]) for u, v in pairs), eps])
    horizon = 20.0 * (math.log(worst / eps) + 1.0) / (params.sigma * spec.n)
    ev_t, ev_p = _kernels.integrate_events(x0, params.sigma, eps, n_party, step, horizon)
    return ((t, pairs[p], 0) for t, p in zip(ev_t, ev_p))
