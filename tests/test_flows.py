import math
from fractions import Fraction

import numpy as np
import pytest

from syncpaths.codes import encode_kn, encode_knn
from syncpaths.errors import NotTypicalError
from syncpaths.flows import (
    KuramotoParams,
    cross_party_crossing_times,
    kuramoto_sequence,
    laplacian_trajectory_kn,
    laplacian_trajectory_knn,
    order_parameter,
    rk4_linear_step,
    switching_times_kn,
)
from syncpaths.graphs import Configuration, Family, bipartite, complete, laplacian
from syncpaths import _kernels


def cfg_kn(*values):
    return Configuration(complete(len(values)), tuple(values))


def cfg_knn(*values):
    return Configuration(bipartite(len(values) // 2), tuple(values))


def rk4_linear(cfg, t, step):
    """RK4 steps of the linear flow over laplacian(cfg.spec); t / step is whole."""
    mat, x = laplacian(cfg.spec).astype(np.float64), cfg.as_array()
    for _ in range(round(t / step)):
        x = rk4_linear_step(mat, x, step)
    return x


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_trajectory_kn_two_oscillators():
    for t in (0.0, 0.3, 1.7):
        got = laplacian_trajectory_kn(cfg_kn(0.0, 1.0), t).values
        want = (0.5 * (1 - math.exp(-2 * t)), 0.5 * (1 + math.exp(-2 * t)))
        assert got == pytest.approx(want, abs=1e-15)


def test_trajectory_fixes_diagonal():
    flat = cfg_kn(*([2.5] * 4))
    assert laplacian_trajectory_kn(flat, 3.0).values == pytest.approx(flat.values)
    assert laplacian_trajectory_kn(cfg_kn(0, 2, 5, 9), 0.0).values == pytest.approx(
        (0, 2, 5, 9)
    )
    flat_b = cfg_knn(*([1.0] * 6))
    assert laplacian_trajectory_knn(flat_b, 2.0).values == pytest.approx(flat_b.values)


def test_trajectory_kn_scales_differences():
    cfg = cfg_kn(0, 2, 5, 9)
    t = 0.37
    out = laplacian_trajectory_kn(cfg, t).as_array()
    x = cfg.as_array()
    scale = math.exp(-4 * t)
    for a in range(4):
        for b in range(4):
            assert out[a] - out[b] == pytest.approx(scale * (x[a] - x[b]), abs=1e-12)


def test_trajectory_knn_balanced_cross_decay():
    cfg = cfg_knn(0, 4, 1, 3)  # party means both 2
    assert cfg.is_balanced()
    t = 0.9
    out = laplacian_trajectory_knn(cfg, t)
    scale = math.exp(-2 * t)
    assert float(out[1]) - float(out[3]) == pytest.approx(scale * (0 - 1), abs=1e-12)


def test_trajectory_knn_matches_rk4_unbalanced():
    cfg = cfg_knn(0.0, 0.9, 0.2, 1.7)
    for t in (0.2, 0.8):
        closed = laplacian_trajectory_knn(cfg, t).as_array()
        rk = rk4_linear(cfg, t, step=2e-4)
        assert np.max(np.abs(closed - rk)) < 1e-11


def test_order_preserved_by_linear_flows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = np.sort(rng.random(5))
        cfg = cfg_kn(*x)
        for t in (0.1, 1.0, 4.0):
            out = laplacian_trajectory_kn(cfg, t).values
            assert all(a <= b for a, b in zip(out, out[1:]))
    for _ in range(20):
        x = rng.random(6)
        cfg = cfg_knn(*np.concatenate([np.sort(x[:3]), np.sort(x[3:])]))
        for t in (0.1, 1.0):
            out = laplacian_trajectory_knn(cfg, t)
            assert out.is_ordered()


# ---------------------------------------------------------------------------
# switching times
# ---------------------------------------------------------------------------

def test_switching_times_table_row():
    seq = switching_times_kn(cfg_kn(0, 2, 5, 9), 1)
    assert seq.edge_order() == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    times = [e.t for e in seq.events]
    assert times == pytest.approx([math.log(k) / 4 for k in (2, 3, 4, 5, 7, 9)])
    assert seq.jump_sites() == (1, 2, 3, 1, 2, 1)
    assert seq.initial_code == (1, 2, 3, 4)
    assert seq.final_code == (4, 4, 4, 4)


def test_switching_single_pair():
    seq = switching_times_kn(cfg_kn(0.0, 1.0), math.exp(-2))
    assert len(seq.events) == 1
    assert seq.events[0].t == pytest.approx(1.0)


def test_switching_not_typical():
    with pytest.raises(NotTypicalError):
        switching_times_kn(cfg_kn(0, 1, 3, 4), 0.5)  # x2-x1 == x4-x3


def test_switching_replay_matches_subnetwork():
    from syncpaths.graphs import sync_subnetwork

    rng = np.random.default_rng(4)
    for _ in range(50):
        x = np.sort(rng.random(5))
        cfg = cfg_kn(*x)
        try:
            seq = switching_times_kn(cfg, 0.05)
        except NotTypicalError:
            continue
        code_edges = set(
            e for e in sync_subnetwork(cfg, 0.05)
        )
        times = [e.t for e in seq.events]
        for i, ev in enumerate(seq.events):
            mid = (
                (times[i] + times[i + 1]) / 2
                if i + 1 < len(times)
                else times[i] + 1.0
            )
            code_edges.add(ev.edge)
            state = laplacian_trajectory_kn(cfg, mid)
            assert sync_subnetwork(state, 0.05) == code_edges


def test_switching_knn_balanced():
    from fractions import Fraction as F
    from syncpaths.flows import switching_times_knn_balanced

    vals = tuple(F(v, 1000) for v in (0, 10, 29, 2, 15, 22))
    cfg = Configuration(bipartite(3), vals)
    assert cfg.is_balanced()
    seq = switching_times_knn_balanced(cfg, F(1, 1000))
    assert len(seq.events) == 9
    assert seq.final_code == ((1, 1, 1), (3, 3, 3))
    times = [e.t for e in seq.events]
    assert all(a < b for a, b in zip(times, times[1:]))
    # the nonlinear flow follows the same path near the diagonal
    kur = kuramoto_sequence(cfg, KuramotoParams(), 1e-3)
    assert kur.edge_order() == seq.edge_order()
    assert [e.sign for e in kur.events] == [e.sign for e in seq.events]


def test_switching_knn_balanced_rejects_unbalanced():
    from syncpaths.flows import switching_times_knn_balanced

    with pytest.raises(ValueError):
        switching_times_knn_balanced(cfg_knn(0, 3, 0.5, 3.5), 1)


def test_switching_knn_balanced_n2_always_tied():
    from fractions import Fraction as F
    from syncpaths.flows import switching_times_knn_balanced

    # party size 2 + exact balance forces |d11| = |d22|: no typical sequence
    cfg = Configuration(bipartite(2), (F(0), F(4), F(1), F(3)))
    with pytest.raises(NotTypicalError):
        switching_times_knn_balanced(cfg, F(1, 100))


def test_cross_party_crossing_balanced_single():
    cfg = cfg_knn(0, 4, 1, 3)
    ts = cross_party_crossing_times(cfg, 0.5, 2, 1)  # |x3 - x2| = 3
    assert len(ts) == 1
    assert ts[0] == pytest.approx(math.log(3 / 0.5) / 2)
    # already-synchronized pair, monotone decay: no crossings
    assert cross_party_crossing_times(cfg, 1.5, 1, 1) == ()
    # rows and columns are 1-based; 0 must not wrap round to the last vertex
    for row, col in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(ValueError, match="^row and col must lie in 1..2"):
            cross_party_crossing_times(cfg, 0.5, row, col)
    for vertex in (0, 5, -1):
        with pytest.raises(IndexError, match=f"^vertex {vertex} outside 1..4$"):
            cfg[vertex]


def test_cross_party_crossing_two():
    # opposite-sign difference and mean gap: leaves and re-enters the band
    cfg = cfg_knn(0.0, 12.0, -0.1, 0.3)
    ts = cross_party_crossing_times(cfg, 0.4, 1, 1)
    assert len(ts) == 2
    # verify against a dense scan of the closed form
    n = 2
    d0 = 0.0 - (-0.1)
    beta = 6.0 - 0.1
    tt = np.linspace(1e-9, 8, 400000)
    u = np.exp(-n * tt)
    vals = np.abs(u * (d0 - (1 - u) * beta)) - 0.4
    changes = np.nonzero(np.diff(np.sign(vals)))[0]
    assert len(changes) == 2
    assert ts == pytest.approx(list(tt[changes]), abs=1e-4)


def test_cross_party_crossing_three():
    # enter the band, overshoot past zero out of it, return: three crossings
    cfg = cfg_knn(0.0, 21.0, -1.0, 1.0)
    ts = cross_party_crossing_times(cfg, 0.5, 1, 1)
    assert len(ts) == 3
    n, d0, beta = 2, 1.0, 10.5
    tt = np.linspace(1e-9, 8, 400000)
    u = np.exp(-n * tt)
    vals = np.abs(u * (d0 - (1 - u) * beta)) - 0.5
    changes = np.nonzero(np.diff(np.sign(vals)))[0]
    assert ts == pytest.approx(list(tt[changes]), abs=1e-4)


def test_rk4_matches_closed_form_tightly():
    cfg = cfg_kn(0.1, 0.4, 0.45, 0.9)
    t = 1.3
    rk = rk4_linear(cfg, t, step=1e-3)
    exact = laplacian_trajectory_kn(cfg, t).as_array()
    assert np.max(np.abs(rk - exact)) < 1e-10


# ---------------------------------------------------------------------------
# order parameter
# ---------------------------------------------------------------------------

def test_order_parameter_examples():
    flat = cfg_kn(*([0.7] * 5))
    op = order_parameter(flat)
    assert op.r == pytest.approx(5.0)
    assert op.theta == pytest.approx(0.7)

    anti = cfg_kn(0.0, math.pi)
    op = order_parameter(anti)
    assert op.r == pytest.approx(0.0, abs=1e-12)
    assert op.theta == 0.0

    pair = cfg_kn(0.0, math.pi / 2)
    op = order_parameter(pair)
    assert op.r == pytest.approx(math.sqrt(2))
    assert op.theta == pytest.approx(math.pi / 4)


def test_order_parameter_per_party():
    cfg = cfg_knn(0.1, 0.1, 0.5, 0.5)
    p1, p2 = order_parameter(cfg)
    assert p1.r == pytest.approx(2.0)
    assert p1.theta == pytest.approx(0.1)
    assert p2.theta == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Kuramoto
# ---------------------------------------------------------------------------

def test_kuramoto_diagonal_is_trivial():
    seq = kuramoto_sequence(cfg_kn(*([1.2] * 4)), KuramotoParams(), 1e-3)
    assert seq.events == ()
    assert seq.initial_code == (4, 4, 4, 4)
    # a single vertex has no pairs to monitor
    assert kuramoto_sequence(cfg_kn(0.3), KuramotoParams(), 1e-3).events == ()


def test_kuramoto_matches_linear_near_diagonal():
    x = tuple(0.01 * v for v in (0, 2, 5, 9))
    seq = kuramoto_sequence(cfg_kn(*x), KuramotoParams(sigma=1.0), 1e-3)
    lin = switching_times_kn(cfg_kn(*x), 1e-3)
    assert seq.edge_order() == lin.edge_order()
    assert seq.jump_sites() == lin.jump_sites()


def test_kuramoto_event_count():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = np.sort(rng.random(4))
        x = 0.05 * (u - u.mean())
        cfg = cfg_kn(*x)
        seq = kuramoto_sequence(cfg, KuramotoParams(), 1e-3)
        from syncpaths.graphs import sync_subnetwork

        initial_edges = len(sync_subnetwork(cfg, 1e-3))
        assert len(seq.events) == 6 - initial_edges


def test_kuramoto_rejects_wide_phases():
    with pytest.raises(ValueError):
        kuramoto_sequence(cfg_kn(0.0, 2.0, 4.0, 6.0), KuramotoParams(), 1e-3)


def test_kuramoto_bipartite():
    # mildly unbalanced: exact balance at party size 2 forces tied crossings
    x = (0.0, 0.02, 0.004, 0.013)
    cfg = cfg_knn(*x)
    seq = kuramoto_sequence(cfg, KuramotoParams(), 1e-3)
    assert seq.final_code == ((1, 1), (2, 2))
    # signs recorded on each event
    assert all(e.sign in (-1, 1) for e in seq.events)


def test_kuramoto_desync_detected():
    # a pair starting inside the band is dragged out by a large party-mean
    # gap; the monotone-regime contract reports this instead of mislabeling
    from syncpaths.errors import SyncPathsError

    cfg = cfg_knn(0.0, 0.001, 0.0005, 0.35)
    with pytest.raises(SyncPathsError):
        kuramoto_sequence(cfg, KuramotoParams(), 1e-3)


def test_kuramoto_balanced_pair_party_is_tied():
    # party size 2 + exact balance pins |x3-x1| = |x4-x2| for all time, so
    # the two edges appear simultaneously and the run reports non-typicality
    cfg = cfg_knn(0.0, 0.02, 0.005, 0.015)
    with pytest.raises(NotTypicalError):
        kuramoto_sequence(cfg, KuramotoParams(), 1e-3)


def _oracle_rhs(x, sigma, n_party):
    """Reference phase velocities: one loop per vertex, self term included."""
    if n_party == 0:
        groups = ((x, x),)
    else:
        groups = ((x[:n_party], x[n_party:]), (x[n_party:], x[:n_party]))
    out = []
    for own, others in groups:
        for xv in own:
            acc = 0.0
            for xu in others:
                acc += math.sin(xu - xv)
            out.append(sigma * acc)
    return out


def _oracle_rk4_step(x, sigma, n_party, h):
    """Reference RK4 step over lists, stage by stage."""
    half = 0.5 * h
    k1 = _oracle_rhs(x, sigma, n_party)
    k2 = _oracle_rhs([xi + half * ki for xi, ki in zip(x, k1)], sigma, n_party)
    k3 = _oracle_rhs([xi + half * ki for xi, ki in zip(x, k2)], sigma, n_party)
    k4 = _oracle_rhs([xi + h * ki for xi, ki in zip(x, k3)], sigma, n_party)
    sixth = h / 6.0
    return [
        xi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def test_rk4_step_is_bit_identical_to_loop_oracle():
    # The compiled step takes one sine per coupled pair and negates it for
    # the mirrored term; sin is odd and subtraction antisymmetric, so every
    # output must equal the per-vertex loop exactly, not approximately.
    rng = np.random.default_rng(12)
    shapes = [(n, 0) for n in range(1, 9)] + [(2 * n, n) for n in range(1, 5)]
    for size, n_party in shapes:
        for trial in range(60):
            scale = rng.choice([1e-4, 0.05, 0.7])
            x = [float(v) for v in rng.uniform(-scale, scale, size)]
            if trial % 5 == 0 and size > 1:
                x[1] = x[0]  # an exact tie: sin(+0.0) on both sides
            sigma = float(rng.choice([1.0, 0.37, 2.5]))
            h = float(rng.choice([1e-2, 2.5e-5, rng.random()]))
            got = _kernels._step_function(size, n_party)(x, sigma, h)
            assert got == _oracle_rk4_step(x, sigma, n_party, h), (size, n_party, x, sigma, h)
            # the variant compiled for sigma 1.0, which leaves out sigma * (...)
            got = _kernels._step_function(size, n_party, True)(x, 1.0, h)
            assert got == _oracle_rk4_step(x, 1.0, n_party, h), (size, n_party, x, h)
    x = [float(v) for v in rng.uniform(-0.5, 0.5, 40)]
    assert _kernels._step_function(40, 0)(x, 1.0, 1e-3) == _oracle_rk4_step(x, 1.0, 0, 1e-3)


def test_kuramoto_never_swaps_coordinates():
    rng = np.random.default_rng(21)
    n = 5
    u = np.sort(rng.random(n))
    x = 0.3 * (u - u.mean())
    state = [float(v) for v in x]
    h = 1e-3
    step = _kernels._step_function(n, 0)
    for _ in range(2000):
        state = step(state, 1.0, h)
        assert all(state[i] <= state[i + 1] for i in range(n - 1))


def test_kuramoto_kernel_output_is_pinned():
    # Exact event times (==, not approx): the kernel sums left to right in a
    # fixed vertex order, so any change of rounding shows here.
    seq = kuramoto_sequence(cfg_kn(0.0, 0.003, 0.007, 0.012), KuramotoParams(), 1e-3)
    assert seq.edge_order() == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    assert [e.t for e in seq.events] == [
        0.2746551278114057,
        0.3465748696326869,
        0.4023617781638697,
        0.4864792719840509,
        0.5493080579758222,
        0.6212286796571873,
    ]

    cfg = cfg_knn(0.0, 0.004, 0.011, 0.002, 0.006, 0.015)
    seq = kuramoto_sequence(cfg, KuramotoParams(), 1e-3)
    assert seq.edge_order() == (
        (2, 5), (1, 4), (3, 6), (2, 4), (1, 5), (3, 5), (2, 6), (3, 4), (1, 6)
    )
    assert [e.sign for e in seq.events] == [1, 1, 1, -1, 1, -1, 1, -1, 1]
    assert [e.t for e in seq.events] == [
        0.09589510409037193,
        0.09589666894276858,
        0.29603703257240555,
        0.46210120061234494,
        0.4621013041813757,
        0.662694193267759,
        0.7188778794605832,
        0.8121836949029761,
        0.8431347112654809,
    ]

    # Event times are bisection brackets and rarely see the last bit of the
    # state; 100 steps near zero pin the rounding of the stages and sums.
    for x, n_party, want in (
        ((-0.21, -0.07, 0.04, 0.24), 0, [
            -0.0038885530649494706,
            -0.0012930608834881235,
            0.000736072073666479,
            0.004445541874771138,
        ]),
        ((-0.2, -0.05, 0.22, -0.15, 0.02, 0.16), 3, [
            -0.009559809397438434,
            -0.002027004034132612,
            0.011513087216494062,
            -0.008016843722548036,
            0.0005245742409224241,
            0.007565995696702666,
        ]),
    ):
        state = list(x)
        step = _kernels._step_function(len(x), n_party)
        for _ in range(100):
            state = step(state, 1.0, 1e-2)
        assert state == want

    # desync raises the bare base class; the tie raises NotTypicalError
    from syncpaths.errors import SyncPathsError

    with pytest.raises(SyncPathsError) as desync:
        kuramoto_sequence(cfg_knn(0.0, 0.001, 0.0005, 0.35), KuramotoParams(), 1e-3)
    assert type(desync.value) is SyncPathsError
    with pytest.raises(NotTypicalError):
        kuramoto_sequence(cfg_knn(0.0, 0.02, 0.005, 0.015), KuramotoParams(), 1e-3)


def test_kuramoto_horizon_exhausted():
    # the same K4 run completes at t = 0.62 with the default step; at step
    # 0.69 (h sigma n = 2.76, near the end of RK4's stability interval) a
    # step shrinks the differences by only about 4%, too little to bring
    # them within eps by the horizon 17.4
    from syncpaths.errors import UnsynchronizedError

    cfg = cfg_kn(0.0, 0.003, 0.007, 0.012)
    with pytest.raises(UnsynchronizedError, match="^horizon 17.4 exhausted$"):
        kuramoto_sequence(cfg, KuramotoParams(step=0.69), 1e-3)


def test_kuramoto_run_looks_the_step_up_once():
    # one _step_function lookup per run, however many RK4 and bisection
    # steps it takes, also when the horizon runs out
    from syncpaths.errors import UnsynchronizedError

    def lookups():
        info = _kernels._step_function.cache_info()
        return info.hits + info.misses

    k4 = cfg_kn(0.0, 0.003, 0.007, 0.012)
    for config in (k4, cfg_knn(0.0, 0.004, 0.011, 0.002, 0.006, 0.015)):
        before = lookups()
        assert kuramoto_sequence(config, KuramotoParams(), 1e-3).events
        assert lookups() == before + 1
    before = lookups()
    with pytest.raises(UnsynchronizedError):
        kuramoto_sequence(k4, KuramotoParams(step=0.69), 1e-3)
    assert lookups() == before + 1


def _oracle_integrate_events(x0, sigma, eps, n_party, step, horizon, crossing_tol, pairs):
    """Reference event loop: one compiled step and two pair scans per step."""
    from syncpaths.errors import SizeGuardError, SyncPathsError, UnsynchronizedError

    steps = horizon / step if step else math.inf
    if steps > _kernels.MAX_RK4_STEPS:
        raise SizeGuardError(
            f"horizon {horizon:.3g} at step {step:.3g} needs {steps:.3g} RK4 steps, "
            f"above the guard {_kernels.MAX_RK4_STEPS}"
        )
    budget = int(math.ceil(steps)) + 1
    rk4 = _kernels._step_function(len(x0), n_party)
    x = list(x0)
    active = [(u, v) for u, v in pairs if abs(x[u] - x[v]) <= eps]
    pending = [(i, u, v) for i, (u, v) in enumerate(pairs) if not abs(x[u] - x[v]) <= eps]
    ev_t, ev_p, t = [], [], 0.0
    if not pending:
        return ev_t, ev_p

    try:
        for _ in range(budget):
            xnew = rk4(x, sigma, step)
            for u, v in active:
                if abs(xnew[u] - xnew[v]) - eps > 0.0:
                    raise SyncPathsError(
                        "a synchronized pair desynchronized (outside monotone regime)"
                    )

            crossed = []
            for i, u, v in pending:
                if abs(xnew[u] - xnew[v]) - eps <= 0.0:
                    lo, hi = 0.0, step
                    while hi - lo > crossing_tol:
                        mid = 0.5 * (lo + hi)
                        xb = rk4(x, sigma, mid)
                        if abs(xb[u] - xb[v]) - eps > 0.0:
                            lo = mid
                        else:
                            hi = mid
                    crossed.append((t + hi, i, u, v))

            if crossed:
                crossed.sort(key=lambda c: c[0])
                if any(b[0] - a[0] < crossing_tol for a, b in zip(crossed, crossed[1:])):
                    raise NotTypicalError("two crossings within crossing_tol")
                for tc, i, u, v in crossed:
                    ev_t.append(tc)
                    ev_p.append(i)
                    active.append((u, v))
                pending = [p for p in pending if p[0] not in ev_p]

            x = xnew
            t += step
            if not pending:
                return ev_t, ev_p
    except ValueError:
        raise ValueError(f"RK4 step {step:.3g} at sigma {sigma:.3g} overflows to inf") from None

    raise UnsynchronizedError(f"horizon {horizon:.3g} exhausted")


def _event_args(spec, values, eps, horizon=None, step=None, sigma=1.0):
    """The oracle's arguments for a Kuramoto run: the kernel's six, as
    kuramoto_sequence builds them, then the tolerance and the edges' ends."""
    params = KuramotoParams(sigma=sigma, step=step)
    x0 = [float(v) for v in values]
    ends = [(u - 1, v - 1) for u, v in spec.edges()]
    n_party = 0 if spec.family is Family.COMPLETE else spec.n
    if horizon is None:
        worst = max([*(abs(x0[u] - x0[v]) for u, v in ends), eps])
        horizon = 20.0 * (math.log(worst / eps) + 1.0) / (params.sigma * spec.n)
    step = params.effective_step(eps, spec.n)
    return x0, params.sigma, eps, n_party, step, horizon, params.crossing_tol, ends


def _outcome(integrate, args):
    try:
        return integrate(*args)
    except Exception as exc:  # the type and the message must agree too
        return type(exc), str(exc)


def test_event_loop_matches_per_step_oracle():
    # The compiled quiet stretches hand every event step back to the same
    # re-step, desync check, bisection and tie check, so event times, pair
    # indices and errors must equal the per-step loop's exactly.
    rng = np.random.default_rng(29)
    runs = []
    for spec in [complete(n) for n in range(1, 9)] + [bipartite(n) for n in range(1, 5)]:
        for _ in range(3):
            scale = float(rng.choice([0.01, 0.05]))
            eps = float(rng.choice([0.3, 0.1])) * scale
            values = rng.uniform(-scale, scale, spec.vertex_count)
            # a coarser step than the default eps / (10 n) keeps this fast and
            # lands several crossings in one step now and then
            runs.append(_event_args(spec, values, eps, step=eps / (3 * spec.n)))
    # sigma other than 1.0 runs the general compiled loop; the oracle always
    # steps with the general variant
    rng = np.random.default_rng(31)
    for sigma in (0.37, 2.5):
        for spec in (complete(3), complete(4), complete(6), bipartite(2), bipartite(3)):
            values = rng.uniform(-0.05, 0.05, spec.vertex_count)
            runs.append(_event_args(spec, values, 0.005, step=0.005 / (3 * spec.n), sigma=sigma))
    eps = 2.0**-10
    runs += [
        _event_args(bipartite(2), (0.0, 0.001, 0.0005, 0.35), 1e-3),  # desync
        _event_args(bipartite(2), (0.0, 0.02, 0.005, 0.015), 1e-3),  # tie
        _event_args(complete(4), (0.0, 0.003, 0.007, 0.012), 1e-3, horizon=0.05),  # horizon
        _event_args(complete(3), (0.0, 0.05, 0.15), 1e-3, step=1e308),  # overflow
        _event_args(complete(3), (0.0, math.nan, 0.01), 1e-3, horizon=0.05),  # NaN is quiet
        # pair (1,2) sits exactly at eps: synchronized, since a pair's status
        # is abs(xu - xv) - eps <= 0.0; pair (2,3) crosses on the first step
        _event_args(complete(3), (0.0, eps, eps + eps * (1 + 1e-6)), eps),
    ]
    # the fifth step lands the nearest pair exactly on +eps or on -eps
    for x in ((0.0, 0.01, 0.03), (0.03, 0.01, 0.0)):
        xk = list(x)
        for _ in range(5):
            xk = _kernels._step_function(3, 0)(xk, 1.0, 1e-3)
        eps = min(abs(xk[1] - xk[0]), abs(xk[2] - xk[1]))
        runs.append(_event_args(complete(3), x, eps, step=1e-3))
    outcomes = []
    for args in runs:
        want = _outcome(_oracle_integrate_events, args)
        assert _outcome(_kernels.integrate_events, args[:6]) == want, args
        outcomes.append(want[0] if isinstance(want[0], type) else "events")
    kinds = {o if isinstance(o, str) else o.__name__ for o in outcomes}
    assert kinds >= {"events", "SyncPathsError", "NotTypicalError", "UnsynchronizedError",
                     "ValueError"}


def test_kernel_pairs_follow_edge_order():
    # integrate_events reports pair indices into step.pairs, which
    # kuramoto_sequence maps through spec.edges()
    for spec in [complete(n) for n in range(1, 9)] + [bipartite(n) for n in range(1, 6)]:
        n_party = 0 if spec.family is Family.COMPLETE else spec.n
        pairs = _kernels._step_function(spec.vertex_count, n_party).pairs
        assert [(v + 1, u + 1) for u, v in pairs] == list(spec.edges()), spec


def test_params_validation():
    with pytest.raises(ValueError):
        KuramotoParams(sigma=-1)
    with pytest.raises(ValueError):
        KuramotoParams(step=0)
    for field in ("sigma", "step"):
        for bad in (math.nan, math.inf, 0.0, -1.0, True, "1", 1j):
            with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
                KuramotoParams(**{field: bad})
    with pytest.raises(ValueError, match="^sigma must be finite and > 0, got None$"):
        KuramotoParams(sigma=None)  # step=None is the default step; sigma has none
    # every eps entry meets one check and one message before any work; the
    # int-valued K_{2,2} takes exact eps through the encoder's integer unit;
    # a bool is refused though 0 < True < inf
    from syncpaths.flows import switching_times_knn_balanced
    from syncpaths.graphs import sync_subnetwork
    from syncpaths.witness import witness_kn, witness_knn

    k4, k22 = cfg_kn(0.0, 0.003, 0.007, 0.012), cfg_knn(0, 4, 1, 3)
    entries = [
        lambda e: switching_times_kn(k4, e),
        lambda e: switching_times_knn_balanced(k22, e),
        lambda e: kuramoto_sequence(k4, KuramotoParams(), e),
        lambda e: encode_kn(k4, e),
        lambda e: encode_knn(k22, e),
        lambda e: cross_party_crossing_times(k22, e, 1, 1),
        lambda e: sync_subnetwork(k4, e),
        lambda e: witness_kn((1, 2, 3), e),
        lambda e: witness_knn(((1, 2), (1, 2)), e),
    ]
    for entry in entries:
        for bad in (math.nan, math.inf, 0.0, -1.0, 0, -1, Fraction(0), Fraction(-1), True,
                    "1", None, 1j):
            with pytest.raises(ValueError, match=rf"^eps must be finite and > 0, got {bad}$"):
                entry(bad)
    assert KuramotoParams(sigma=1.0).effective_step(1e-3, 4) == pytest.approx(2.5e-5)


def test_kuramoto_refuses_non_finite_positions():
    # a one-vertex group counts as sorted and within pi/4 of its own mean, so
    # without the finiteness check a NaN reached int(ceil(nan)) in the
    # kernel, an inf an "horizon inf" size guard, and K_1 at inf a sequence
    for config in (
        Configuration(bipartite(1), (math.nan, 0.0)),
        Configuration(bipartite(1), (math.inf, 0.0)),
        Configuration(complete(1), (math.inf,)),
    ):
        with pytest.raises(ValueError, match="^phases must be finite$"):
            kuramoto_sequence(config, KuramotoParams(), 1e-3)
