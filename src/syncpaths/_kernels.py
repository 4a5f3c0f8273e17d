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

Negated terms come first, and each sum is written without a unary minus by
the IEEE identities ``(-p) - q == -(p + q)`` and ``-P + r == r - P``:
``-p - q + r`` becomes ``r - (p + q)``, and a vertex with only negated terms
subtracts its sum in the updates.  Only the sign of an exact zero can
differ, and no nonzero value, comparison or event time sees it.  For sigma
1.0 the step has no ``sigma *``, as ``1.0 * v == v`` for every float.

A pair is synchronized at x when ``abs(x_u - x_v) - eps <= 0.0``; its
status is read from the positions, never kept beside them.  Most steps of a
run are quiet: no pair changes side of eps.  From the same stage lines the
kernel also compiles a loop that takes quiet steps with the state in locals.

``integrate_events`` owns a run: it refuses a horizon above ``MAX_RK4_STEPS``
before any work, looks the compiled step up once per run, watches every
coupled pair, runs the quiet stretches in the compiled loop and takes each
event step itself (re-step, desync check, bisection, tie check), so its
event times are those of a step-by-step loop, bit for bit.  It raises the regime errors itself:
``NotTypicalError`` for two crossings within the bisection tolerance,
``UnsynchronizedError`` for an exhausted horizon, and the bare
``SyncPathsError`` for a synchronized pair that separates.  A step so large
that a stage overflows to inf raises ``ValueError`` naming the step.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, inf, sin

from .errors import NotTypicalError, SizeGuardError, SyncPathsError, UnsynchronizedError

# No numba variant exists; perfbench/run.py still reports this flag.
NUMBA_ENABLED = False

# Upper bound on the RK4 steps a Kuramoto horizon may need, checked before the
# kernel starts.  The largest bound the tests, the verify checks and the
# benchmark compute is 1474522 (`simulate --family kn --n 4 --flow kuramoto
# --seed 7 --eps 0.001`); the benchmark's K_{3,3} run at eps 1e-3 needs 1426476.
MAX_RK4_STEPS = 10**7

# A crossing time's bisection bracket, and the least gap between two crossings.
CROSSING_TOL = 1e-10


def _coupled(n, n_party):
    """The vertices coupled to each vertex v, in vertex order."""
    if n_party == 0:
        return [[u for u in range(n) if u != v] for v in range(n)]
    return [range(n_party, n) if v < n_party else range(n_party) for v in range(n)]


def _velocities(n, n_party, pos, out, mul):
    """Source lines of one RK4 stage: velocities ``out<v>`` at ``pos<v>`` ("g": sine ``g<u>_<v>``)."""
    coupled = _coupled(n, n_party)
    lines = [
        f"    s{u}_{v} = sin({f'g{u}_{v}' if pos == 'g' else f'{pos}{u} - {pos}{v}'})"
        for v in range(n) for u in coupled[v] if u > v
    ]
    for v in range(n):
        highs = [f"s{u}_{v}" for u in coupled[v] if u > v]
        lows = " + ".join(f"s{v}_{u}" for u in coupled[v] if u < v)
        if highs and lows:  # -(p + q) + r == r - (p + q)
            highs[0] += f" - ({lows})" if " " in lows else f" - {lows}"
        lines.append(f"    {out}{v} = {mul}({' + '.join(highs) or lows or '0.0'})")
    return lines


def _stages(n, n_party, mul, first):
    """Source lines of one RK4 step from ``x<v>`` (sines at ``first``) to ``nx<v>``."""
    coupled = _coupled(n, n_party)
    # a vertex coupled only to lower vertices sums its terms positive: subtract its velocity
    sign = ["-" if coupled[v] and max(coupled[v]) < v else "+" for v in range(n)]
    lines = []
    for pos, out, nxt, scale in ((first, "a", "y", "half"), ("y", "b", "z", "half"),
                                 ("z", "c", "w", "h"), ("w", "d", None, None)):
        lines += _velocities(n, n_party, pos, out, mul)
        if nxt:
            lines += [f"    {nxt}{v} = x{v} {sign[v]} {scale} * {out}{v}" for v in range(n)]
    lines += [
        f"    nx{v} = x{v} {sign[v]} sixth * (a{v} + 2.0 * b{v} + 2.0 * c{v} + d{v})"
        for v in range(n)
    ]
    return lines


@lru_cache
def _step_function(n, n_party, unit_sigma=False):
    """Compile the RK4 step ``(x, sigma, h) -> new x`` of one graph size.

    For K_3 the first stage reads ``s1_0 = sin(x1 - x0)``, ``s2_0 = ...``,
    ``s2_1 = ...``, then ``a0 = sigma * (s1_0 + s2_0)``,
    ``a1 = sigma * (s2_1 - s1_0)``, ``a2 = sigma * (s2_0 + s2_1)`` and
    ``y2 = x2 - half * a2``; the next stages do the same at ``y``, ``z`` and
    ``w``.  The ``unit_sigma`` step is for sigma 1.0: it has no ``sigma *``.

    The step carries, as ``step.quiet``, a loop compiled from the same stage
    lines: ``quiet(x, sigma, h, eps, t, budget)`` takes RK4 steps, adding
    ``h`` to ``t`` and taking one off the budget for each, and returns
    ``(x, t, budget)``.  It watches the coupled pairs (u, v), u > v, listed
    in edge order as the tuple ``step.pairs``.  It stops when the budget runs
    out, or before the first step on which some pair changes side of eps:
    a pair with ``abs(xu - xv) - eps <= 0.0`` at entry gets
    ``g > eps or g < -eps`` at the new ``g = xu - xv``, or any other pair
    gets ``-eps <= g <= eps``.  For eps finite and > 0 these are the event
    step's ``abs(g) - eps > 0.0`` and ``<= 0.0`` for every g (with gradual
    underflow ``abs(g) - eps`` is 0 only at ``abs(g) == eps``): inf breaks
    and NaN is quiet in both.  Each checked g is the next step's first sine
    argument, so the loop takes ``x1 - x0`` and the like at entry only.
    """
    xs = ", ".join(f"x{v}" for v in range(n))
    nxs = ", ".join(f"nx{v}" for v in range(n))
    scales = ["    half = 0.5 * h", "    sixth = h / 6.0"]
    mul = "" if unit_sigma else "sigma * "
    step = ["def step(x, sigma, h):", f"    {xs}, = x", *scales,
            *_stages(n, n_party, mul, "x"), f"    return [{nxs}]"]

    coupled = _coupled(n, n_party)
    watched = [(u, v) for v in range(n) for u in coupled[v] if u > v]
    # sin as a default: locals are read faster than globals
    quiet = ["def quiet(x, sigma, h, eps, t, budget, sin=sin):", f"    {xs}, = x"]
    quiet += [f"    g{u}_{v} = x{u} - x{v}" for u, v in watched]
    quiet += [f"    on{u}_{v} = abs(g{u}_{v}) - eps <= 0.0" for u, v in watched]
    quiet += [*scales, "    neps = -eps", "    while budget > 0:"]
    quiet += ["    " + line for line in _stages(n, n_party, mul, "g")]
    for u, v in watched:
        quiet += [f"        g{u}_{v} = nx{u} - nx{v}",
                  f"        if on{u}_{v}:",
                  f"            if g{u}_{v} > eps or g{u}_{v} < neps:",
                  "                break",
                  f"        elif neps <= g{u}_{v} <= eps:",
                  "            break"]
    quiet += [f"        {xs}, = {nxs},", "        t += h", "        budget -= 1",
              f"    return [{xs}], t, budget"]

    namespace = {"sin": sin}
    name = f"<rk4 kernel n={n} n_party={n_party} unit_sigma={unit_sigma}>"
    exec(compile("\n".join(step + quiet), name, "exec"), namespace)
    namespace["step"].quiet = namespace["quiet"]
    namespace["step"].pairs = tuple(watched)
    return namespace["step"]


def integrate_events(x0, sigma, eps, n_party, step, horizon):
    """Integrate from x0 until every coupled pair is within eps.

    n_party is 0 for all-to-all coupling, else the size of the first
    bipartite party.  The pairs are those of ``_step_function(...).pairs``,
    in edge order; a pair is synchronized wherever
    ``abs(x_u - x_v) - eps <= 0.0``.  Crossing times are refined by
    bisection (re-stepping from the pre-step state) to ``CROSSING_TOL``.
    Returns (event_times, event_pairs), the events as lists of times and
    pair indices in order of occurrence.
    """
    steps = horizon / step if step else inf  # a zero step never ends
    if steps > MAX_RK4_STEPS:
        raise SizeGuardError(
            f"horizon {horizon:.3g} at step {step:.3g} needs {steps:.3g} RK4 steps, "
            f"above the guard {MAX_RK4_STEPS}"
        )
    budget = int(ceil(steps)) + 1
    rk4 = _step_function(len(x0), n_party, sigma == 1.0)
    x = list(x0)
    ev_t, ev_p, t = [], [], 0.0
    try:
        while not all(abs(x[u] - x[v]) - eps <= 0.0 for u, v in rk4.pairs):
            x, t, budget = rk4.quiet(x, sigma, step, eps, t, budget)
            if budget <= 0:
                raise UnsynchronizedError(f"horizon {horizon:.3g} exhausted")
            # the step the quiet stretch stopped before: something happens on it
            xnew = rk4(x, sigma, step)
            crossed = []
            for i, (u, v) in enumerate(rk4.pairs):
                gap = abs(xnew[u] - xnew[v]) - eps
                if abs(x[u] - x[v]) - eps <= 0.0:
                    if gap > 0.0:
                        raise SyncPathsError(
                            "a synchronized pair desynchronized (outside monotone regime)"
                        )
                elif gap <= 0.0:
                    # bisect tau in (0, step]: the crossing of |x_u - x_v| = eps
                    lo, hi = 0.0, step
                    while hi - lo > CROSSING_TOL:
                        mid = 0.5 * (lo + hi)
                        xb = rk4(x, sigma, mid)
                        if abs(xb[u] - xb[v]) - eps > 0.0:
                            lo = mid
                        else:
                            hi = mid
                    crossed.append((t + hi, i))

            crossed.sort(key=lambda c: c[0])  # stable: ties keep pair order
            if any(b[0] - a[0] < CROSSING_TOL for a, b in zip(crossed, crossed[1:])):
                raise NotTypicalError("two crossings within crossing_tol")
            for tc, i in crossed:
                ev_t.append(tc)
                ev_p.append(i)

            x = xnew
            t += step
            budget -= 1
    except ValueError:  # sin(inf): a stage overflowed
        raise ValueError(f"RK4 step {step:.3g} at sigma {sigma:.3g} overflows to inf") from None
    return ev_t, ev_p
