"""Hot numeric kernel: fixed-step RK4 with threshold-crossing detection.

The integrator below dominates the runtime of every nonlinear-flow
computation.  Every caller integrates one configuration with a handful of
vertices, so the cost of a step is interpreter overhead, not ``sin``.  The
kernel therefore compiles one straight-line RK4 step per graph size
``(n, n_party)``: no loops, no lists between stages, plain float locals.

Each stage computes ``sin(x_u - x_v)`` once per coupled pair with u > v and
uses its negation for the mirrored term.  That is exact: IEEE subtraction
is antisymmetric, ``x_v - x_u == -(x_u - x_v)``, and libm's ``sin`` is odd.
Each velocity is one flat left-to-right sum over the other vertices in
vertex order, never ``sum()`` (compensated since Python 3.12), so a run's
event times are reproducible bit for bit.  The self term sin(0) = 0 is left
out; adding it could only change the sign of a zero sum.

Status codes returned by ``integrate_events``:
    0  subnetwork completed
    1  horizon exhausted before completion
    2  two crossings closer than the bisection tolerance (not typical)
    3  a synchronized pair desynchronized (outside the monotone regime)
"""

from __future__ import annotations

from functools import lru_cache
from math import sin

# No numba variant exists; perfbench/run.py still reports this flag.
NUMBA_ENABLED = False


def _velocities(n, n_party, pos, out):
    """Source lines of one RK4 stage: velocities ``out<v>`` at positions ``pos<v>``."""
    if n_party == 0:
        coupled = [[u for u in range(n) if u != v] for v in range(n)]
    else:
        coupled = [range(n_party, n) if v < n_party else range(n_party) for v in range(n)]
    lines = [
        f"    s{u}_{v} = sin({pos}{u} - {pos}{v})"
        for v in range(n) for u in coupled[v] if u > v
    ]
    for v in range(n):
        terms = [f"s{u}_{v}" if u > v else f"-s{v}_{u}" for u in coupled[v]]
        total = " + ".join(terms).replace(" + -", " - ") or "0.0"
        lines.append(f"    {out}{v} = sigma * ({total})")
    return lines


@lru_cache
def _step_function(n, n_party):
    """Compile the RK4 step ``(x, sigma, h) -> new x`` of one graph size.

    For K_3 the first stage reads ``s1_0 = sin(x1 - x0)``, ``s2_0 = ...``,
    ``s2_1 = ...``, then ``a1 = sigma * (-s1_0 + s2_1)`` and so on; the next
    stages do the same at ``y``, ``z`` and ``w``.
    """
    xs = ", ".join(f"x{v}" for v in range(n))
    lines = ["def step(x, sigma, h):", f"    {xs}, = x", "    half = 0.5 * h"]
    for pos, out, nxt, scale in (("x", "a", "y", "half"), ("y", "b", "z", "half"),
                                 ("z", "c", "w", "h"), ("w", "d", None, None)):
        lines += _velocities(n, n_party, pos, out)
        if nxt:
            lines += [f"    {nxt}{v} = x{v} + {scale} * {out}{v}" for v in range(n)]
    lines.append("    sixth = h / 6.0")
    lines.append("    return [" + ", ".join(
        f"x{v} + sixth * (a{v} + 2.0 * b{v} + 2.0 * c{v} + d{v})" for v in range(n)
    ) + "]")
    namespace = {"sin": sin}
    exec(compile("\n".join(lines), f"<rk4 step n={n} n_party={n_party}>", "exec"), namespace)
    return namespace["step"]


def rk4_step(x, sigma, n_party, h):
    """One classical RK4 step of size h from state x; returns the new state.

    n_party == 0 means all-to-all coupling, else bipartite parties of sizes
    n_party and len(x) - n_party.
    """
    return _step_function(len(x), n_party)(x, sigma, h)


def integrate_events(x0, sigma, eps, n_party, step, crossing_tol, max_steps, pairs, active0):
    """Integrate until every monitored pair is within eps.

    pairs lists the 0-based endpoints (u, v) of the monitored pairs; active0
    marks pairs already within eps at t=0.  Crossing times are refined by
    bisection (re-stepping from the pre-step state) to crossing_tol.

    Returns (event_times, event_pairs, status), the events as lists of times
    and pair indices in order of occurrence.
    """
    x = list(x0)
    active = [(u, v) for (u, v), on in zip(pairs, active0) if on]
    pending = [(i, u, v) for i, ((u, v), on) in enumerate(zip(pairs, active0)) if not on]
    ev_t: list[float] = []
    ev_p: list[int] = []
    t = 0.0
    if not pending:
        return ev_t, ev_p, 0

    for _ in range(max_steps):
        xnew = rk4_step(x, sigma, n_party, step)
        for u, v in active:
            if abs(xnew[u] - xnew[v]) - eps > 0.0:
                return ev_t, ev_p, 3

        crossed = []
        for i, u, v in pending:
            if abs(xnew[u] - xnew[v]) - eps <= 0.0:
                # bisect tau in (0, step]: the crossing of |x_u - x_v| = eps
                lo = 0.0
                hi = step
                while hi - lo > crossing_tol:
                    mid = 0.5 * (lo + hi)
                    xb = rk4_step(x, sigma, n_party, mid)
                    if abs(xb[u] - xb[v]) - eps > 0.0:
                        lo = mid
                    else:
                        hi = mid
                crossed.append((t + hi, i, u, v))

        if crossed:
            crossed.sort(key=lambda c: c[0])  # stable: ties keep pair order
            for a in range(1, len(crossed)):
                if crossed[a][0] - crossed[a - 1][0] < crossing_tol:
                    return ev_t, ev_p, 2
            for tc, i, u, v in crossed:
                ev_t.append(tc)
                ev_p.append(i)
                active.append((u, v))
            pending = [p for p in pending if p[0] not in ev_p]

        x = xnew
        t += step
        if not pending:
            return ev_t, ev_p, 0

    return ev_t, ev_p, 1
