"""Hot numeric kernel: fixed-step RK4 with threshold-crossing detection.

The integrator below dominates the runtime of every nonlinear-flow
computation.  It runs over plain Python float lists: every caller integrates
one configuration with a handful of vertices, where per-element numpy access
costs more than the arithmetic.  Each sum is accumulated left to right in a
fixed vertex order, never with ``sum()`` (compensated since Python 3.12), so
a run's event times are reproducible bit for bit.

Status codes returned by ``integrate_events``:
    0  subnetwork completed
    1  horizon exhausted before completion
    2  two crossings closer than the bisection tolerance (not typical)
    3  a synchronized pair desynchronized (outside the monotone regime)
"""

from __future__ import annotations

from math import sin

# No compiled variant exists; perfbench/run.py still reports this flag.
NUMBA_ENABLED = False


def kuramoto_rhs(x, sigma, n_party):
    """Phase velocities; n_party == 0 means all-to-all, else bipartite parties."""
    if n_party == 0:  # the hot case: its own loop is ~7% faster than the shared one
        out = []
        for xv in x:
            acc = 0.0
            for xu in x:
                acc += sin(xu - xv)
            out.append(sigma * acc)
        return out
    first, second = x[:n_party], x[n_party:]
    out = []
    for own, others in ((first, second), (second, first)):
        for xv in own:
            acc = 0.0
            for xu in others:
                acc += sin(xu - xv)
            out.append(sigma * acc)
    return out


def rk4_step(x, sigma, n_party, h):
    """One classical RK4 step of size h from state x; returns the new state."""
    half = 0.5 * h
    k1 = kuramoto_rhs(x, sigma, n_party)
    k2 = kuramoto_rhs([xi + half * ki for xi, ki in zip(x, k1)], sigma, n_party)
    k3 = kuramoto_rhs([xi + half * ki for xi, ki in zip(x, k2)], sigma, n_party)
    k4 = kuramoto_rhs([xi + h * ki for xi, ki in zip(x, k3)], sigma, n_party)
    sixth = h / 6.0
    return [
        xi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def integrate_events(x0, sigma, eps, n_party, step, crossing_tol, max_steps, pairs, active0):
    """Integrate until every monitored pair is within eps.

    pairs lists the 0-based endpoints (u, v) of the monitored pairs; active0
    marks pairs already within eps at t=0.  Crossing times are refined by
    bisection (re-stepping from the pre-step state) to crossing_tol.

    Returns (event_times, event_pairs, status, x_final, t_final), the events
    as lists of times and pair indices in order of occurrence.
    """
    x = list(x0)
    active = [(u, v) for (u, v), on in zip(pairs, active0) if on]
    pending = [(i, u, v) for i, ((u, v), on) in enumerate(zip(pairs, active0)) if not on]
    ev_t: list[float] = []
    ev_p: list[int] = []
    t = 0.0
    if not pending:
        return ev_t, ev_p, 0, x, t

    for _ in range(max_steps):
        xnew = rk4_step(x, sigma, n_party, step)
        for u, v in active:
            if abs(xnew[u] - xnew[v]) - eps > 0.0:
                return ev_t, ev_p, 3, x, t

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
                    return ev_t, ev_p, 2, x, t
            for tc, i, u, v in crossed:
                ev_t.append(tc)
                ev_p.append(i)
                active.append((u, v))
            pending = [p for p in pending if p[0] not in ev_p]

        x = xnew
        t += step
        if not pending:
            return ev_t, ev_p, 0, x, ev_t[-1]

    return ev_t, ev_p, 1, x, t
