"""Integrator: jumps, dense output, fundamental matrix, convergence."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from impulsedde import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    MatrixTable,
    NumericalError,
    RepresentationInput,
    StepControl,
    SystemSpec,
    VectorTable,
    fundamental_grid,
    fundamental_matrix,
    represent_solution,
    solve,
    vec_norm,
)
from impulsedde import integrate
from impulsedde.integrate import (_hermite_weights, kernel_rows, locate,
                                  read_piecewise)
from corpus import (CORPUS, multi_piece_history, planar_rotation,
                    planar_singular_reset, scalar_forced,
                    scalar_table_homogeneous, two_off_lattice_lags)


def _decay(a=1.0, horizon=2.0, x0=1.0):
    """x' + a x = 0: the zero-lag scalar with solution x0 e^{-a t}."""
    return SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[a]]), ConstantLag(0.0))],
                      x0=[x0], horizon=horizon)


# ---------------------------------------------------------------------------
# basic correctness


def test_zero_lag_matches_exponential():
    traj = solve(_decay(), StepControl(1e-3))
    for t in (0.5, 1.0, 1.7, 2.0):
        assert traj.value(t)[0] == pytest.approx(math.exp(-t), abs=1e-12)


def test_solution_is_exact_for_piecewise_polynomial_profiles():
    # unit lag, zero history, unit start: the solution is a polynomial of
    # degree k on [k, k+1), which one-step RK4 with cubic dense output
    # reproduces to roundoff even at a coarse step
    spec = SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[1.0]]), ConstantLag(1.0))],
                      x0=[1.0], horizon=3.0)
    traj = solve(spec, StepControl(0.125))
    # x = 1 on [0,1); x = 2 - t on [1,2); x = ((t-3)^2 - 1)/2 on [2,3)
    assert traj.value(0.5)[0] == pytest.approx(1.0, abs=1e-14)
    assert traj.value(1.5)[0] == pytest.approx(0.5, abs=1e-13)
    assert traj.value(2.5)[0] == pytest.approx(-0.375, abs=1e-13)


def test_jump_applies_matrix_and_offset():
    spec = SystemSpec(
        dim=1,
        impulses=ImpulseSchedule([1.0], [[[0.25]]], [[3.0]], 1),
        x0=[2.0],
        horizon=2.0,
    )
    traj = solve(spec, StepControl(0.1))
    assert traj.value(1.0, side="left")[0] == pytest.approx(2.0, abs=1e-14)
    assert traj.value(1.0, side="right")[0] == pytest.approx(0.25 * 2.0 + 3.0,
                                                             abs=1e-14)


def test_singular_jump_forgets_the_past_state():
    traj = solve(planar_singular_reset(), StepControl(1e-3))
    # B = 0 with offset v at tau = 1.2: the state right after is exactly v
    npt.assert_allclose(traj.value(1.2, side="right"), [0.5, -0.25],
                        atol=1e-14)


def test_history_reads_come_from_phi_below_zero():
    spec = scalar_forced()
    traj = solve(spec, StepControl(1e-3))
    assert traj.value(-0.2)[0] == 0.3


def test_history_reads_at_lag_images_of_phi_breaks_take_the_next_piece():
    # x' = -a phi(t - theta) on [0, theta) with a three-piece phi: x is
    # piecewise linear with kinks at b + theta, and x' = -a x(t - theta)
    # makes it piecewise quadratic on [theta, 2 theta); RK4 with cubic
    # dense output reproduces both to roundoff.  The reads at
    # fl(fl(b + theta) - theta), one ulp off b, must take phi's piece from
    # b on, or the error is first order in dt.
    spec = multi_piece_history()
    a, theta, x0 = 0.4571, 0.261, 0.1062
    kinks = [0.0, -0.141 + theta, -0.074 + theta, theta]
    slopes = [-a * v for v in (-0.1567, -0.4336, 0.7044)]

    def x_first(t):  # exact x on [0, theta]
        return x0 + sum(m * max(0.0, min(t, hi) - lo)
                        for m, lo, hi in zip(slopes, kinks[:-1], kinks[1:]))

    w = 0.5 - theta  # x(0.5) = x(theta) - a int_0^w x(v) dv, w < theta
    knots = [v for v in kinks[:-1] if v < w] + [w]
    area = sum(0.5 * (x_first(p) + x_first(q)) * (q - p)
               for p, q in zip(knots[:-1], knots[1:]))
    exact = x_first(theta) - a * area
    for dt in (1e-3, 5e-4, 2.5e-4):
        got = solve(spec, StepControl(dt)).value(0.5)[0]
        assert got == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("make", [multi_piece_history, two_off_lattice_lags])
def test_source_table_holds_forcing_minus_history_reads_per_piece(make):
    # g = r - sum_i A_i phi(. - theta_i), phi = 0 on [0, inf), read by the
    # tables' own `value` at each piece's midpoint; phi's breaks b enter
    # as fl(b + theta), which need not round-trip to b
    spec = make()
    g = integrate.source_table(spec)
    lags = [term.delay.theta for term in spec.terms]
    images = [b + theta for b in spec.phi.breaks for theta in lags]
    assert g.breaks[0] == 0.0 and g.breaks[-1] < spec.horizon
    assert set(lags + [b for b in images if b >= 0.0]) <= set(g.breaks)
    mids = 0.5 * (g.breaks + np.append(g.breaks[1:], spec.horizon))
    for mid, got in zip(mids, g.values):
        want = (np.zeros(1) if spec.forcing is None
                else spec.forcing.value(mid))
        for term in spec.terms:
            theta = term.delay.theta
            if mid < theta:
                want = want - term.coefficient @ spec.phi.value(mid - theta)
        npt.assert_allclose(got, want, rtol=0, atol=1e-15)
    # constant on every panel of the quadrature grid: the left value at
    # node i + 1 is the right value at node i
    nodes = integrate.quadrature_nodes(spec, np.array([spec.horizon]), 1e-2)
    assert np.array_equal(read_piecewise(g, nodes[1:], "left"),
                          read_piecewise(g, nodes[:-1], "right"))


def test_source_table_is_none_without_forcing_or_lagged_history_reads():
    # phi is set, but a zero lag and a frozen time never read it
    spec = SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[1.0]]), ConstantLag(0.0)),
                             DelayTerm(np.array([[0.5]]), FrozenTime(0.0))],
                      phi=VectorTable([-1.0], [[0.5]]), x0=[1.0], horizon=1.0)
    assert integrate.source_table(spec) is None


def _singular_jumps_with_offsets() -> SystemSpec:
    """Planar, two lags, forced: a rank-one jump, a full reset and a
    regular jump, each with a nonzero offset."""
    return SystemSpec(
        dim=2,
        terms=[DelayTerm(np.array([[0.3, -0.2], [0.1, 0.4]]),
                         ConstantLag(0.25)),
               DelayTerm(np.array([[-0.1, 0.0], [0.2, 0.1]]),
                         ConstantLag(0.6))],
        impulses=ImpulseSchedule(
            [0.5, 1.1, 1.6],
            [[[1.0, 2.0], [0.5, 1.0]], np.zeros((2, 2)),
             [[0.8, 0.1], [-0.3, 0.9]]],
            [[0.3, -0.7], [-0.2, 0.4], [0.05, 0.15]], 2),
        forcing=VectorTable([0.0, 0.9], [[0.2, -0.1], [-0.4, 0.3]]),
        phi=VectorTable([-0.6], [[0.5, -0.5]]), x0=[1.0, -0.5],
        horizon=2.0)


@pytest.mark.parametrize("make", list(CORPUS.values())
                         + [_singular_jumps_with_offsets])
def test_each_jump_adds_its_offset_after_its_matrix(make):
    # x(tau_j) = B_j x(tau_j - 0) + alpha_j at every jump node, and
    # alpha_j exactly where B_j = 0
    spec = make()
    sch = spec.impulses
    traj = solve(spec, StepControl(1e-2))
    assert sorted(traj.jump_nodes.values()) == list(range(len(sch.points)))
    for i, j in traj.jump_nodes.items():
        want = sch.matrices[j] @ traj.y_pre[i] + sch.offsets[j]
        npt.assert_allclose(traj.y_post[i], want, rtol=0,
                            atol=1e-15 * max(1.0, np.max(np.abs(want))))
        if not sch.matrices[j].any():
            assert np.array_equal(traj.y_post[i], sch.offsets[j])


def test_a_source_break_is_a_node_with_two_derivatives():
    # x' = -0.6 x(t - 1) + r(t): g = r - A phi(t - 1) breaks at phi's
    # image 0.6 and at r's break 1.37, where the delayed read is smooth.
    # x is continuous there, and x' jumps by the step of g
    spec = SystemSpec(
        dim=1, terms=[DelayTerm(np.array([[0.6]]), ConstantLag(1.0))],
        forcing=VectorTable([0.0, 1.37], [[0.4], [-0.9]]),
        phi=VectorTable([-1.0, -0.4], [[0.7], [-0.2]]), x0=[1.0],
        horizon=2.0)
    g = integrate.source_table(spec)
    traj = solve(spec, StepControl(1e-2))
    for b in (0.6, 1.37):
        i = int(locate(traj.t_nodes, b))
        assert i > 0
        assert np.array_equal(traj.y_pre[i], traj.y_post[i])
        step = read_piecewise(g, b) - read_piecewise(g, b, "left")
        assert abs(step[0]) > 0.1
        npt.assert_allclose(traj.f_right[i] - traj.f_left[i], step, rtol=0,
                            atol=1e-13)


def test_queries_beyond_horizon_raise():
    traj = solve(_decay(horizon=1.0), StepControl(0.1))
    with pytest.raises(ValueError):
        traj.value(1.5)


def test_solve_rejects_invalid_specs():
    bad = SystemSpec(dim=2, x0=[1.0])
    with pytest.raises(ValueError, match="invalid spec"):
        solve(bad)


def test_blowup_raises_numerical_error():
    spec = SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[-1e8]]), ConstantLag(0.0))],
                      x0=[1.0], horizon=1.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite"):
        solve(spec, StepControl(1e-3))


def test_dense_output_is_continuous_except_at_jump_nodes():
    traj = solve(scalar_forced(), StepControl(0.01))
    for k in range(1, len(traj.t_nodes)):
        gap = abs(traj.y_post[k, 0] - traj.y_pre[k, 0])
        if k in traj.jump_nodes:
            assert gap > 0.01  # both impulses move the state visibly
        else:
            assert gap == 0.0
    # interpolants meet the nodal values from both sides
    for k in (5, 97, 200):
        t = traj.t_nodes[k]
        assert traj.value(t - 1e-9)[0] == pytest.approx(traj.y_pre[k, 0],
                                                        abs=1e-8)
        assert traj.value(t + 1e-9)[0] == pytest.approx(traj.y_post[k, 0],
                                                        abs=1e-8)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
def test_both_sides_agree_bit_for_bit_away_from_the_mandatory_breaks(
        corpus_spec, dt):
    # away from the segment ends of the grid (jumps, table breaks and their
    # lag images, the start and the end) nothing jumps, so the left and
    # right values and derivatives at a node are the same numbers: a dense
    # solve and the dense columns of X(., 0.3).  No corpus lag is short.
    assert min(integrate._positive_lags(corpus_spec)) >= \
        integrate._SHORT_LAG * dt
    grid = StepControl(dt)
    hom = integrate._curtailed(corpus_spec)
    runs = [(solve(corpus_spec, grid), corpus_spec, 0.0)]
    runs += [(col, hom, 0.3)
             for col in fundamental_matrix(corpus_spec, 0.3, grid)]
    for traj, spec, t0 in runs:
        breaks = integrate._collect_breaks(spec, t0, spec.horizon)
        off = np.ones(len(traj.t_nodes), dtype=bool)
        off[locate(traj.t_nodes, breaks)] = False
        assert off.sum() > 0.95 * len(off)
        assert np.array_equal(_bits(traj.y_pre[off]), _bits(traj.y_post[off]))
        assert np.array_equal(_bits(traj.f_left[off]),
                              _bits(traj.f_right[off]))


def _scalar_read(traj, t, side):
    """One dense-output read by a scalar lookup and blend: the oracle for
    the vector query."""
    nodes = traj.t_nodes
    i = int(locate(nodes, t))
    if i > 0 or (i == 0 and side == "right"):
        return (traj.y_post if side == "right" else traj.y_pre)[i]
    if i == 0 or t < traj.start:
        return read_piecewise(traj.phi, traj.start if i == 0 else t, side,
                              traj.dim)
    i = int(np.searchsorted(nodes, t, side="right")) - 1
    h = nodes[i + 1] - nodes[i]
    w0, w1, w2, w3 = _hermite_weights((t - nodes[i]) / h, h)
    return (w0 * traj.y_post[i] + w1 * traj.f_right[i]
            + w2 * traj.y_pre[i + 1] + w3 * traj.f_left[i + 1])


@pytest.mark.parametrize("side", ["right", "left"])
def test_vector_query_equals_stacked_scalar_queries(side):
    # the solution reads phi (a table) below 0; the columns of X(., s) read
    # zero below s.  Queries cover interior times, plain and jump nodes,
    # node 0, the last node and times below the start.
    spec = planar_rotation()
    grid = StepControl(0.01)
    for traj in [solve(spec, grid), *fundamental_matrix(spec, 0.6, grid)]:
        nodes = traj.t_nodes
        jumps = np.array(sorted(traj.jump_nodes), dtype=int)
        assert len(jumps) == 2
        ts = np.concatenate((0.5 * (nodes[:-1] + nodes[1:])[::9],
                             nodes[::11], nodes[jumps], nodes[[0, -1]],
                             nodes[0] - np.array([1e-3, 0.3, 0.7])))
        got = traj.value(ts, side)
        stacked = np.stack([traj.value(float(t), side) for t in ts])
        oracle = np.stack([_scalar_read(traj, float(t), side) for t in ts])
        assert got.shape == (len(ts), spec.dim)
        assert got.tobytes() == stacked.tobytes() == oracle.tobytes()
        assert traj.value(ts.reshape(-1, 1), side).shape == \
            (len(ts), 1, spec.dim)


def test_vector_query_past_the_horizon_raises():
    traj = solve(planar_rotation(), StepControl(0.01))
    ts = np.array([0.5, traj.t_end, traj.t_end + 0.1])
    with pytest.raises(ValueError, match="beyond horizon"):
        traj.value(ts)
    npt.assert_array_equal(traj.value(ts[:2])[1], traj.y_post[-1])


@pytest.mark.parametrize("side", ["Right", "LEFT", "", None])
def test_one_sided_reads_refuse_an_unknown_side(side):
    # a misspelt side used to read as "left"
    spec = scalar_forced()
    traj = solve(spec, StepControl(0.01))
    reads = [lambda: traj.value(0.9, side),
             lambda: read_piecewise(spec.forcing, [0.6], side),
             lambda: read_piecewise(None, [0.6], side, 1),
             lambda: spec.forcing.value(0.6, side)]
    for read in reads:
        with pytest.raises(ValueError, match=f"got {side!r}"):
            read()
    assert spec.forcing.value(0.6, "left")[0] == 0.5
    assert spec.forcing.value(0.6, "right")[0] == -0.25


# ---------------------------------------------------------------------------
# grids and read plans


def _loop_nodes(breaks, dt):
    """Each inter-break segment by its own np.linspace: the oracle for
    `_build_nodes`."""
    parts = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        steps = max(1, int(math.ceil((b - a) / dt - 1e-9)))
        parts.append(np.linspace(a, b, steps + 1)[1:])
    return np.concatenate(parts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8, unique=True),
       st.floats(0.01, 20.0), st.lists(st.floats(1e-15, 1e-6), max_size=3))
def test_build_nodes_matches_a_linspace_per_segment(points, dt, gaps):
    # near neighbours too: segments far shorter than dt take one step
    breaks = np.unique(np.concatenate((points, points[0] + np.asarray(gaps))))
    got, want = integrate._build_nodes(breaks, dt), _loop_nodes(breaks, dt)
    assert got.tobytes() == want.tobytes()


def _three_candidate_locate(points, ts):
    """The snap rule tried on the three entries around a left-sided
    search: the oracle for `locate`."""
    base = np.searchsorted(points, ts)
    scale = np.maximum(1.0, np.abs(ts))
    out = np.full(ts.shape, -1, dtype=np.intp)
    for off in (1, 0, -1):  # the lowest index is written last
        j = base + off
        p = points.take(j, mode="clip")
        hit = np.abs(p - ts) <= integrate._SNAP * np.maximum(scale, np.abs(p))
        out = np.where(hit & (j >= 0) & (j < len(points)), j, out)
    return out


def _searchsorted_plan(nodes, us):
    """The three-candidate lookup, a second search and the Hermite weights
    on the clipped interval: the oracle for `_read_plan`."""
    exact = _three_candidate_locate(nodes, us)
    interval = np.searchsorted(nodes, us, side="right") - 1
    ic = np.clip(interval, 0, max(len(nodes) - 2, 0))
    h = nodes[ic + 1] - nodes[ic] if len(nodes) > 1 else np.ones(us.shape)
    weights = np.stack(_hermite_weights((us - nodes[ic]) / h, h), axis=1)
    return exact, interval, weights


def _check_read_plan(nodes, us):
    exact, interval, weights = integrate._read_plan(nodes, us)
    want_exact, want_interval, want_weights = _searchsorted_plan(nodes, us)
    npt.assert_array_equal(exact, want_exact)
    npt.assert_array_equal(locate(nodes, us), want_exact)
    npt.assert_array_equal(interval, want_interval)
    inside = (exact < 0) & (interval >= 0) & (interval < len(nodes) - 1)
    assert weights[inside].tobytes() == want_weights[inside].tobytes()
    snapped = np.zeros((np.count_nonzero(exact >= 0), 4))
    snapped[:, 0] = 1.0
    assert weights[exact >= 0].tobytes() == snapped.tobytes()
    assert np.isfinite(weights).all()


_SNAP_STEPS = st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0, 1.1, 1.5, 2.0, -0.4,
                               -0.9, -1.0, -1.2])


@st.composite
def _snap_grids(draw):
    """Grids from `_collect_breaks` and `_build_nodes` whose jump points,
    frozen times and extras cluster within a few merge tolerances, so
    merging and anchor pinning leave nodes closer than a snap window, and
    reads on, near and between nodes, below node 0 and past the end."""
    t_end = draw(st.sampled_from([0.75, 1.0, 3.0, 40.0]))
    tol = integrate._SNAP * max(1.0, t_end)
    centres = draw(st.lists(st.integers(1, 19).map(lambda k: k * t_end / 20),
                            min_size=1, max_size=3))

    def cluster():
        return [c + k * tol for c in centres
                for k in draw(st.lists(_SNAP_STEPS, max_size=3))]

    taus = sorted({p for p in cluster() if 0.0 < p < t_end})
    frozen = [p for p in cluster() if 0.0 <= p <= t_end]
    extra = [p for p in cluster() if 0.0 <= p <= t_end]
    lags = draw(st.lists(st.sampled_from([0.1, 0.25, 1 / 3]), max_size=2,
                         unique=True))
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.5]]), ConstantLag(lag)) for lag in lags]
        + [DelayTerm(np.array([[0.5]]), FrozenTime(c)) for c in frozen],
        impulses=ImpulseSchedule(taus, [[[0.5]]] * len(taus), None, 1),
        horizon=t_end)
    dt = draw(st.sampled_from([0.01, 0.1, 0.37]))
    nodes = integrate._build_nodes(
        integrate._collect_breaks(spec, 0.0, t_end, extra), dt)
    picks = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1,
                          max_size=20))
    near = [nodes[i] + draw(_SNAP_STEPS) * integrate._SNAP
            * max(1.0, abs(nodes[i])) for i in picks]
    ulps = [np.nextafter(nodes[i], draw(st.sampled_from([-np.inf, np.inf])))
            for i in picks]
    between = draw(st.lists(st.floats(-1.0, t_end + 1.0), max_size=10))
    us = np.concatenate((nodes[picks], near, ulps, between,
                         [nodes[0] - 0.5, nodes[-1] + 0.5]))
    return nodes, us


@settings(max_examples=200, deadline=None)
@given(_snap_grids())
def test_read_plan_and_locate_match_three_candidates_and_a_second_search(
        grid):
    _check_read_plan(*grid)


def test_read_plan_tries_the_node_below_a_pinned_anchor():
    # the frozen time 0.5 + 1.1 eps' survives the merge, and the extra
    # 0.5 + 0.9 eps' (eps' = _SNAP) is pinned onto it, within one snap
    # window of the jump point 0.5: `locate` answers a read on the pinned
    # node with the node before it
    eps = integrate._SNAP
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.5]]), FrozenTime(0.5 + 1.1 * eps))],
        impulses=ImpulseSchedule([0.5], [[[0.5]]], None, 1), horizon=1.0)
    nodes = integrate._build_nodes(
        integrate._collect_breaks(spec, 0.0, 1.0, [0.5 + 0.9 * eps]), 0.1)
    i = int(np.flatnonzero(nodes == 0.5 + 0.9 * eps)[0])
    assert nodes[i - 1] == 0.5
    us = nodes[i - 1:i + 2]
    npt.assert_array_equal(integrate._read_plan(nodes, us)[0],
                           [i - 1, i - 1, i + 1])
    _check_read_plan(nodes, us)


def _rk4_stage_maps(h, M):
    """P - I and G of RK4 steps of lengths h on y' = -M y plus a delayed
    part, by the stage chain k1 .. k4: the oracle for `_rk4_maps`."""
    hh, eye = h[:, None, None], np.eye(M.shape[-1])
    k1 = -M
    k2 = -(M @ (eye + k1 * (0.5 * hh)))
    k3 = -(M @ (eye + k2 * (0.5 * hh)))
    k4 = -(M @ (eye + k3 * hh))
    P = (k2 * 2.0 + k1 + k3 * 2.0 + k4) * (hh / 6.0)
    hM = M * hh
    hM2 = hM @ hM
    G = np.concatenate((hM - 0.5 * hM2 + 0.25 * (hM2 @ hM) - eye,
                        2.0 * hM - 0.5 * hM2 - 4.0 * eye,
                        np.broadcast_to(-eye, hM.shape)), axis=2) * (hh / 6.0)
    return np.concatenate((P, G), axis=2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_rk4_maps_match_the_stage_chain(n, seed):
    # every step its own h; M changes twice, so three runs share tables
    rng = np.random.default_rng(seed)
    w = 9
    M = rng.uniform(-2.0, 2.0, (w, n, n))
    M[1:4], M[5:] = M[0], M[4]
    h = rng.uniform(1e-4, 0.25, w)
    got = integrate._rk4_maps(h, M, n)
    want = _rk4_stage_maps(h, M)
    # each entry within a few ulps of the sum of its terms' magnitudes
    scale = _rk4_stage_maps(h, -np.abs(M))
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps
                  * np.abs(scale))
    # without a zero-lag part G equals the stages' (zeros up to sign)
    got = integrate._rk4_maps(h, None, n)
    npt.assert_array_equal(got[:, :, n:],
                           _rk4_stage_maps(h, np.zeros((w, n, n)))[:, :, n:])
    assert not got[:, :, :n].any()


# ---------------------------------------------------------------------------
# linearity


@settings(max_examples=20, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_homogeneous_solutions_superpose(u, v):
    # same terms and jump matrices as scalar-forced, but no forcing, no
    # history and no jump offsets: the solution is linear in x(0)
    base = scalar_forced()
    jumps = ImpulseSchedule(base.impulses.points, base.impulses.matrices,
                            None, 1)
    grid = StepControl(0.05)

    def run(x0):
        return solve(SystemSpec(dim=1, terms=base.terms, impulses=jumps,
                                x0=[x0], horizon=base.horizon), grid)

    xu, xv, xsum = run(u), run(v), run(u + v)
    for t in (0.5, 1.3, 2.4):
        assert xsum.value(t)[0] == pytest.approx(
            xu.value(t)[0] + xv.value(t)[0], abs=1e-10)


# ---------------------------------------------------------------------------
# fundamental matrix


def test_fundamental_starts_at_identity_and_is_zero_before_s():
    spec = scalar_forced()
    fm = fundamental_grid(spec, [0.5, 1.5], [0.0, 0.5, 1.5, 2.0],
                          StepControl(1e-2))
    npt.assert_allclose(fm.at(0.5, 0.5), np.eye(1), atol=0)
    npt.assert_allclose(fm.at(1.5, 1.5), np.eye(1), atol=0)
    npt.assert_allclose(fm.at(0.0, 0.5), 0.0, atol=0)
    npt.assert_allclose(fm.at(0.5, 1.5), 0.0, atol=0)


def test_fundamental_ignores_forcing_offsets_and_phi():
    spec = scalar_forced()
    bare = SystemSpec(dim=1, terms=spec.terms,
                      impulses=ImpulseSchedule(spec.impulses.points,
                                               spec.impulses.matrices,
                                               None, 1),
                      x0=[1.0], horizon=spec.horizon)
    grid = StepControl(1e-2)
    full = fundamental_grid(spec, [0.2], [2.0], grid)
    hom = fundamental_grid(bare, [0.2], [2.0], grid)
    npt.assert_allclose(full.at(2.0, 0.2), hom.at(2.0, 0.2), atol=0)


def test_fundamental_jump_identity_in_t():
    spec = planar_singular_reset()
    fm = fundamental_grid(spec, [0.3], [2.1], StepControl(1e-2))
    cols = fundamental_matrix(spec, 0.3, StepControl(1e-2))
    left = np.column_stack([c.value(2.1, side="left") for c in cols])
    B = spec.impulses.matrices[1]
    npt.assert_allclose(fm.at(2.1, 0.3), B @ left, atol=1e-12)


def _unit_lag():
    """x' + x(t - 1) = 0: X(t, s) is piecewise polynomial in t - s."""
    return SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[1.0]]), ConstantLag(1.0))],
                      horizon=3.0)


def _unit_lag_kernel(t, s):
    u = t - s
    if u < 1.0:
        return 1.0
    if u < 2.0:
        return 2.0 - u
    u -= 2.0
    return -u + 0.5 * u * u


@pytest.mark.parametrize("dt", [0.125, 1e-3])
def test_fundamental_is_exact_across_second_generation_kinks(dt):
    # X(., s) jumps at s, so x' jumps at s + 1 and x'' at s + 2; RK4 with
    # cubic dense output reproduces the piecewise polynomial to roundoff
    # only if both kinks are grid nodes; the probes split [0, 3] into
    # pieces off the dt lattice, so only the planner can put them there
    spec = _unit_lag()
    s_grid = [0.3, 0.7]
    t_grid = np.linspace(0.31, 2.99, 17)
    fm = fundamental_grid(spec, s_grid, t_grid, StepControl(dt))
    for b, s in enumerate(s_grid):
        (col,) = fundamental_matrix(spec, s, StepControl(dt))
        for a, t in enumerate(t_grid):
            if t < s:
                continue
            want = _unit_lag_kernel(t, s)
            assert abs(col.value(t)[0] - want) <= 1e-13, (s, t)
            assert abs(fm.samples[a, b, 0, 0] - want) <= 1e-13, (s, t)


def test_fundamental_resolves_lag_images_of_table_breaks():
    # the coefficient of scalar-table-homogeneous jumps at b = 1.2, so x'
    # jumps there and x'' at b + 0.5; off the dt lattice, a step across
    # that image costs O(dt^3) (1.6e-8 here) unless the planner pins it
    spec = scalar_table_homogeneous()
    s, t = 0.3137, 2.79
    ref = fundamental_grid(spec, [s], [t], StepControl(1.25e-4)).at(t, s)
    grid = StepControl(2e-3)
    (col,) = fundamental_matrix(spec, s, grid)
    npt.assert_allclose(fundamental_grid(spec, [s], [t], grid).at(t, s), ref,
                        rtol=0, atol=1e-10)
    npt.assert_allclose(col.value(t), ref[:, 0], rtol=0, atol=1e-10)


_OMEGA = np.array([[0.0, -0.8], [0.8, 0.0]])


def _rotation(u):
    """exp(-Omega u) for Omega = 0.8 J: a rotation by -0.8 u."""
    c, s = math.cos(0.8 * u), math.sin(0.8 * u)
    return np.array([[c, s], [-s, c]])


def _rotation_system():
    """x' + Omega x = r with planar-rotation's jumps and offsets and a
    two-piece forcing: exact solutions are products of rotations and
    jump matrices."""
    jumps = planar_rotation().impulses
    return SystemSpec(dim=2,
                      terms=[DelayTerm(_OMEGA, ConstantLag(0.0))],
                      impulses=jumps,
                      forcing=VectorTable([0.0, 1.4],
                                          [[0.1, 0.05], [-0.2, 0.3]]),
                      x0=[1.0, 0.5], horizon=2.5)


def _rotation_exact(spec, t):
    """x(t) by exact propagation x -> E x + Omega^-1 (I - E) r over the
    pieces between forcing breaks and jump points, jumping at the latter."""
    sch = spec.impulses
    x, a = np.array(spec.x0, dtype=float), 0.0
    for b in sorted({t, *sch.points, *spec.forcing.breaks[1:]}):
        if b > t:
            break
        E = _rotation(b - a)
        x = E @ x + np.linalg.solve(_OMEGA, (np.eye(2) - E)
                                    @ spec.forcing.value(a))
        for tau, B, alpha in zip(sch.points, sch.matrices, sch.offsets):
            if tau == b:
                x = B @ x + alpha
        a = b
    return x


def _rotation_kernel(spec, t, s):
    """X(t, s) = E(t - tau_k) B_k ... B_1 E(tau_1 - s) over s < tau <= t."""
    X, a = np.eye(2), s
    for tau, B in zip(spec.impulses.points, spec.impulses.matrices):
        if s < tau <= t:
            X = B @ _rotation(tau - a) @ X
            a = tau
    return _rotation(t - a) @ X


def test_solve_matches_rotation_closed_form():
    spec = _rotation_system()
    traj = solve(spec, StepControl(1e-3))
    for t in (0.3, 1.0, 1.4, 1.9, 2.2, 2.5):
        npt.assert_allclose(traj.value(t), _rotation_exact(spec, t),
                            rtol=0, atol=1e-12)


def test_fundamental_matches_rotation_products():
    spec = _rotation_system()
    grid = StepControl(1e-3)
    s_grid = [0.0, 0.6, 1.0, 1.7]
    t_grid = [0.6, 1.0, 1.3, 2.2, 2.5]
    fm = fundamental_grid(spec, s_grid, t_grid, grid)
    for s in s_grid:
        cols = fundamental_matrix(spec, s, grid)
        for t in t_grid:
            if t < s:
                continue
            want = _rotation_kernel(spec, t, s)
            npt.assert_allclose(fm.at(t, s), want, rtol=0, atol=1e-12)
            direct = np.column_stack([c.value(t) for c in cols])
            npt.assert_allclose(direct, want, rtol=0, atol=1e-12)


def test_fundamental_grid_matches_per_column_solves(corpus_spec):
    spec = corpus_spec
    s_vals = [0.0, 0.35 * spec.horizon, 0.7 * spec.horizon]
    t_vals = np.linspace(0.0, spec.horizon, 7)
    grid = StepControl(2e-3)
    fm = fundamental_grid(spec, s_vals, t_vals, grid)
    # one engine on two grids: the product grid starts at 0 and carries
    # every restart and probe, the per-column grid starts at s.  Both pin
    # the kinks of order <= 2 (s + theta_i, s + theta_i + theta_l) but
    # subdivide differently around the deeper ones, which separates them
    # by at most 7e-12 on the corpus; the tolerance sits far above that
    # and far below any structural disagreement
    for s in s_vals:
        cols = fundamental_matrix(spec, s, grid)
        for t in t_vals:
            if t < s:
                continue
            direct = np.column_stack([c.value(float(t)) for c in cols])
            npt.assert_allclose(fm.at(float(t), s), direct, atol=1e-6)


def test_adjoint_rows_match_fundamental_grid(corpus_spec):
    # rows s -> X(t, s) from the one reflected sweep against forward
    # columns on the same lattice.  Targets include every jump point
    # (planar-singular-reset's B = 0 at 1.2 among them): a row for t = tau
    # carries B for s < t, and at s = tau it holds X(t, tau), not the
    # s-left limit X(t, tau) B.
    spec = corpus_spec
    horizon = spec.horizon
    targets = np.unique(np.concatenate((spec.impulses.points,
                                        [0.5 * horizon, horizon])))
    grid = StepControl(2e-3)
    nodes = RepresentationInput(spec, tuple(targets), grid=grid).quad_grid
    rows = kernel_rows(spec, nodes, targets)[0]
    s_grid = np.unique(np.concatenate((nodes[::97], spec.impulses.points,
                                       targets)))
    fm = fundamental_grid(spec, s_grid, targets, grid)
    s_idx = locate(nodes, s_grid)
    npt.assert_allclose(rows[:, s_idx], fm.samples, rtol=0, atol=1e-12)


def test_adjoint_rows_resolve_cross_lag_images():
    # with lags 0.3713 and 0.6127 the rows s -> X(t, s) have second-order
    # kinks at a - theta_1 - theta_2 for every target and jump point a; a
    # quadrature grid without them is off by O(h^3) per kink (1.25e-7 here)
    spec = two_off_lattice_lags()
    targets = np.array([0.77, 1.25, 1.53, 2.5])
    grid = StepControl(2e-3)
    nodes = RepresentationInput(spec, tuple(targets), grid=grid).quad_grid
    rows = kernel_rows(spec, nodes, targets)[0]
    s_grid = np.unique(np.concatenate((nodes[::97], spec.impulses.points,
                                       targets)))
    fm = fundamental_grid(spec, s_grid, targets, grid)
    npt.assert_allclose(rows[:, locate(nodes, s_grid)], fm.samples,
                        rtol=0, atol=1e-9)


def test_kernel_rows_reject_decreasing_targets():
    # the sweep restarts at the targets from the last one back, which
    # needs them in increasing order
    spec = planar_rotation()
    nodes = integrate.quadrature_nodes(spec, np.array([0.5, 1.5]), 0.01)
    with pytest.raises(ValueError, match="must increase"):
        kernel_rows(spec, nodes, [1.5, 0.5])


def _lag_and_zero_lag():
    """x' = -0.5 x(t - 0.1) + 0.3 x: one scalar column per restart, a
    zero-lag term, and on a chunk of four columns with one active, a
    derivative written with a stride of 64 bytes."""
    return SystemSpec(dim=1, terms=[DelayTerm(np.array([[0.5]]),
                                              ConstantLag(0.1)),
                                    DelayTerm(np.array([[-0.3]]),
                                              ConstantLag(0.0))],
                      x0=[1.0], horizon=2.0)


def test_kernel_rows_of_several_targets_match_each_target_alone():
    # numpy 2.4.6's `negative` on an AVX-512 host wrote -0.0 into such a
    # strided derivative, and the four targets' rows were off by 5.5e-6
    spec, targets = _lag_and_zero_lag(), np.array([0.5, 1.0, 1.5, 2.0])
    nodes = integrate.quadrature_nodes(spec, targets, 0.01)
    rows = kernel_rows(spec, nodes, targets)[0]
    for k, target in enumerate(targets):
        alone = kernel_rows(spec, nodes, [target])[0][0]
        assert np.all(np.abs(rows[k] - alone)
                      <= 1e-15 * np.maximum(1.0, np.abs(alone)))


def test_fundamental_grid_of_several_restarts_matches_each_restart_alone():
    # the same strided derivative in the forward order: restarts 0, 0.5,
    # 1 and 1.5 were off by up to 8.8e-7 against each restart alone
    spec, grid = _lag_and_zero_lag(), StepControl(0.01)
    s_grid, t_grid = np.array([0.0, 0.5, 1.0, 1.5]), np.linspace(0.0, 2.0, 9)
    samples = fundamental_grid(spec, s_grid, t_grid, grid).samples
    for k, s in enumerate(s_grid):
        alone = fundamental_grid(spec, [s], t_grid, grid).samples[:, 0]
        assert np.all(np.abs(samples[:, k] - alone)
                      <= 1e-15 * np.maximum(1.0, np.abs(alone)))


def _sized(monkeypatch, depth=None, window=None):
    """Replace the ring depth of every sweep by depth(nodes), and its
    longest window by window(cap), where given (`integrate._reach`)."""
    real = integrate._reach

    def reach(nodes, thetas, long, events, coef_breaks, cap, dense):
        D, wmax, cand = real(nodes, thetas, long, events, coef_breaks, cap,
                             dense)
        return (D if depth is None else depth(nodes),
                wmax if window is None else window(cap), cand)

    monkeypatch.setattr(integrate, "_reach", reach)


def test_shallow_history_ring_raises(monkeypatch):
    # the ring-depth check is an error, not an assert, so it holds under -O
    _sized(monkeypatch, depth=lambda nodes: 2)
    with pytest.raises(RuntimeError, match="history ring too shallow"):
        fundamental_grid(scalar_forced(), [0.0], [2.0], StepControl(1e-2))


def test_dense_sweep_refuses_more_than_one_chunk():
    # dense output keeps every column's whole history in one chunk's ring;
    # under a tiny memory cap a chunk holds the minimum of 16 columns
    nodes = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="more than one chunk"):
        integrate._batch_columns(_decay(), nodes, {}, np.zeros(17, dtype=int),
                                 [], dense=True, mem_cap=1)


def _estimated_bytes(sweep) -> int:
    """The bytes a sweep estimates it holds, for one chunk of at most 16
    columns, read from its refusal under a budget of one byte:
    `sweep(mem_cap)` runs `_batch_columns` with that budget."""
    with pytest.raises(ValueError, match=r"sweep needs about \d+ bytes, "
                       r"more than the memory budget of 1 bytes$") as err:
        sweep(1)
    return int(re.search(r"needs about (\d+) bytes", str(err.value))[1])


def _twenty_columns():
    """A sweep of planar-rotation's curtailed system, which has a zero-lag
    term, a lag and two jumps, over 20 restart columns, as the arguments
    of `_batch_columns`."""
    hom = integrate._curtailed(planar_rotation())
    nodes, jump_nodes = integrate._prepare_grid(hom, 0.0, hom.horizon, 0.01)
    jumps = integrate._jump_matrices(hom, jump_nodes)
    s_idx = np.arange(0, len(nodes) - 1, (len(nodes) - 1) // 20)[:20]
    return hom, nodes, jumps, s_idx, np.arange(len(nodes))


def test_chunked_sweep_matches_one_chunk(monkeypatch):
    # a memory cap that admits 16 columns, the estimate for a chunk of 16,
    # splits 20 restart columns into chunks of 16 and 4
    args = _twenty_columns()
    whole = integrate._batch_columns(*args)
    cap = _estimated_bytes(
        lambda mem_cap: integrate._batch_columns(*args, mem_cap=mem_cap))
    widths, real = [], integrate._Sweep

    def sweep(shared, c0, c1):
        widths.append(c1 - c0)
        return real(shared, c0, c1)

    monkeypatch.setattr(integrate, "_Sweep", sweep)
    parts = integrate._batch_columns(*args, mem_cap=cap)
    assert widths == [16, 4]
    npt.assert_allclose(parts, whole, rtol=0, atol=1e-14)


def test_shallow_history_ring_names_the_step_and_the_depth(monkeypatch):
    _sized(monkeypatch, depth=lambda nodes: 2)
    with pytest.raises(RuntimeError, match=r"^history ring too shallow: "
                       r"step \d+ reads interval \d+ with depth 2$"):
        fundamental_grid(scalar_forced(), [0.0], [2.0], StepControl(1e-2))


def _rk4_step_minus_identity(hM):
    """P - I of one RK4 step of y' = -M y, for hM = h M."""
    hM2 = hM @ hM
    return -hM + 0.5 * hM2 - (hM2 @ hM) / 6.0 + (hM2 @ hM2) / 24.0


@pytest.mark.parametrize("length", [1, 2, 3, 17, 256])
def test_affine_scan_matches_the_step_loop(length):
    # the zero-lag recurrence y_{k+1} = y_k + D_k y_k + C_k, composed by
    # the doubling scan, against a step-by-step loop as the reference; the
    # zero-lag coefficient, and with it D_k, changes halfway
    rng = np.random.default_rng(length)
    n, width = 3, 5
    M = rng.uniform(-1.0, 1.0, (2, n, n))
    D = np.empty((length, n, n))
    D[:length // 2] = _rk4_step_minus_identity(1e-2 * M[0])
    D[length // 2:] = _rk4_step_minus_identity(1e-2 * M[1])
    C = rng.uniform(-1e-2, 1e-2, (length, n, width))
    y0 = rng.uniform(-1.0, 1.0, (n, width))
    want, y = np.empty((length, n, width)), y0
    for k in range(length):
        y = want[k] = y + D[k] @ y + C[k]
    D, C = integrate._affine_scan(D, C)
    got = y0 + D @ y0 + C
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _three_lags_frozen_and_zero_lag():
    rng = np.random.default_rng(11)
    A = rng.uniform(-0.5, 0.5, (6, 2, 2))
    return SystemSpec(
        dim=2,
        terms=[DelayTerm(A[0], ConstantLag(0.0)),
               DelayTerm(A[1], ConstantLag(0.13)),
               DelayTerm(A[2], ConstantLag(0.31)),
               DelayTerm(MatrixTable([0.0, 0.6], A[3:5]), ConstantLag(0.47)),
               DelayTerm(A[5], FrozenTime(0.0))],
        impulses=ImpulseSchedule([0.5, 1.1], [0.5 * np.eye(2),
                                              -0.8 * np.eye(2)],
                                 [[0.1, 0.0], [0.0, 0.2]], 2),
        forcing=VectorTable([0.0, 0.9], [[0.1, -0.2], [0.3, 0.0]]),
        phi=VectorTable([-1.0], [[1.0, -1.0]]),
        x0=[1.0, 0.5], horizon=1.5)


def test_block_length_does_not_change_the_sweep(monkeypatch):
    # a 4 KiB plan budget cuts blocks of four steps, so every lag
    # window and every scan segment also ends at a block end
    spec = _three_lags_frozen_and_zero_lag()
    grid = StepControl(1e-2)
    s_grid, t_grid = np.linspace(0.0, 1.4, 8), np.linspace(0.1, 1.5, 15)

    def sweeps():
        return (fundamental_grid(spec, s_grid, t_grid, grid).samples,
                solve(spec, grid).y_post)

    default = sweeps()
    monkeypatch.setattr(integrate, "_PLAN_BYTES", 4096)
    for got, want in zip(sweeps(), default):
        npt.assert_allclose(got, want, rtol=0,
                            atol=1e-13 * np.max(np.abs(want)))


def test_the_sweep_plans_two_reads_per_step_and_lag(monkeypatch):
    # a node's read serves the step it ends and the step it starts, so a
    # block of w steps plans 2 w + 1 reads per lag, and a node where the
    # two sides differ plans at most one more; three reads per step, one
    # at each step's start, mid and end, would be 3 w.  Three long lags,
    # the restart columns of fundamental_grid and the reflected rows.
    spec = _three_lags_frozen_and_zero_lag()
    lags, dt = len(integrate._positive_lags(spec)), 2e-3
    reads, steps, blocks, breaks = [], [], [], []
    real = integrate._plan, integrate._read_plan, integrate._collect_breaks

    def plan(st, p0, p1):
        steps.append(p1 - p0)
        return real[0](st, p0, p1)

    def read_plan(nodes, us):
        reads.append(len(us))
        return real[1](nodes, us)

    def collect(*args, **kwargs):
        breaks.append(len(real[2](*args, **kwargs)))
        return real[2](*args, **kwargs)

    for name, wrapper in zip(("_plan", "_read_plan", "_collect_breaks"),
                             (plan, read_plan, collect)):
        monkeypatch.setattr(integrate, name, wrapper)
    targets = np.array([0.7, 1.5])
    for sweep in (lambda: fundamental_grid(spec, np.linspace(0.0, 1.4, 8),
                                           np.linspace(0.1, 1.5, 15),
                                           StepControl(dt)),
                  lambda: integrate.kernel_rows(
                      spec, integrate.quadrature_nodes(spec, targets, dt),
                      targets)):
        reads.clear(), steps.clear(), breaks.clear()
        sweep()
        assert sum(steps) >= 700 and breaks
        assert sum(reads) <= lags * (2 * sum(steps) + len(steps)
                                     + breaks[-1])


@pytest.mark.parametrize("length", [1, 2, 3, 17, 256, 400])
def test_lift_scan_matches_the_step_loop(length):
    # z_{k+1} = S z_k + Psi z_k + C_k, with S the exact shift and carry of
    # depth 4 and Psi the rows a step writes (O(h) on the carried y),
    # composed in blocks, against a step-by-step loop as the reference,
    # on a batch of columns
    rng = np.random.default_rng(length)
    n, width = 2, 3
    d = 10 * n
    S = integrate._LiftMap(4, n, np.zeros((2 * n, d))).step[:, :d]
    Psi = np.zeros_like(S)
    Psi[-2 * n:] = rng.uniform(-1.0, 1.0, (2 * n, len(S)))
    Psi[-2 * n:-n] *= 1e-2
    C = rng.uniform(-1e-2, 1e-2, (length, 2 * n, width))
    z = z0 = rng.uniform(-1.0, 1.0, (len(S), width))
    want = np.empty_like(C)
    for k in range(length):
        z = S @ z + Psi @ z
        z[-2 * n:] += C[k]
        want[k] = z[-2 * n:]
    got = integrate._lift_scan(integrate._LiftMap(4, n, Psi[-2 * n:]), C, z0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _short_lag_spec(theta, zero_lag, long_break=None):
    """A short lag whose coefficient table breaks at 1.3, a long lag, a
    jump at 0.8 with an offset, forcing and a history: with steps of
    0.005, long uniform stretches hold a jump and a table break.  With
    `long_break`, the long lag's coefficient changes sign there."""
    rng = np.random.default_rng(5)
    A = rng.uniform(-0.8, 0.8, (4, 2, 2))
    long = A[2] if long_break is None else MatrixTable([0.0, long_break],
                                                       [A[2], -A[2]])
    terms = [DelayTerm(MatrixTable([0.0, 1.3], A[:2]), ConstantLag(theta)),
             DelayTerm(long, ConstantLag(0.37))]
    if zero_lag:
        terms.append(DelayTerm(A[3], ConstantLag(0.0)))
    return SystemSpec(
        dim=2, terms=terms,
        impulses=ImpulseSchedule([0.8], [[[0.6, 0.2], [-0.1, 0.9]]],
                                 [[0.1, -0.05]], 2),
        forcing=VectorTable([0.0, 1.7], [[0.2, -0.1], [0.0, 0.3]]),
        phi=VectorTable([-1.0], [[1.0, -0.5]]),
        x0=[1.0, 0.5], horizon=3.0)


@pytest.mark.parametrize(
    "steps, zero_lag, long_break",
    [(steps, zero_lag, None) for zero_lag in (False, True)
     for steps in (1.0, 3.0, 2.5)] + [(3.0, True, 2.4)],
    ids=[f"{steps}-{zero_lag}" for zero_lag in (False, True)
         for steps in (1.0, 3.0, 2.5)] + ["3.0-True-long-break"])
def test_the_short_lag_lift_does_not_change_the_sweep(monkeypatch, steps,
                                                      zero_lag, long_break):
    # theta = h, 3h and 2.5h: solve (dense), fundamental_grid on a ring
    # with several columns, and kernel_rows (the reflected order), with
    # the lift on and switched off; the long-break case puts a node with
    # two sides that no event's image reaches inside a lifted stretch
    dt = 0.005
    spec = _short_lag_spec(steps * dt, zero_lag, long_break)
    grid = StepControl(dt)
    s_grid, t_grid = np.linspace(0.0, 2.0, 5), np.linspace(0.5, 3.0, 26)
    targets = np.array([1.1, 2.2, 3.0])
    nodes = integrate.quadrature_nodes(spec, targets, dt)
    lifted, real = [], integrate._lifted

    def counted(st, a, b, *rest):
        lifted.append(b - a)
        real(st, a, b, *rest)

    monkeypatch.setattr(integrate, "_lifted", counted)

    def sweeps():
        lifted.clear()
        out = (solve(spec, grid).y_post,
               fundamental_grid(spec, s_grid, t_grid, grid).samples,
               *integrate.kernel_rows(spec, nodes, targets)[:1])
        return out, sum(lifted)

    got, steps_lifted = sweeps()
    monkeypatch.setattr(integrate, "_SHORT_LAG", 0)
    want, steps_plain = sweeps()
    # most steps of the three sweeps are lifted; none is without the lift
    assert steps_lifted > 0.6 * (len(nodes) - 1) * 3 and steps_plain == 0
    for a, b in zip(got, want):
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("zero_lag", [False, True])
@pytest.mark.parametrize("steps", [1.0, 3.0, 2.5])
def test_both_sides_agree_bit_for_bit_with_a_lifted_short_lag(monkeypatch,
                                                             steps, zero_lag):
    # the nodes of lifted runs keep one side unless the sweep marks them
    # two-sided, so away from the segment ends of the grid their left and
    # right values and derivatives are the same numbers, as without a
    # short lag: a dense solve and the dense columns of X(., 0.3)
    dt = 0.005
    spec = _short_lag_spec(steps * dt, zero_lag)
    grid = StepControl(dt)
    lifted, real = [], integrate._lifted

    def counted(st, a, b, *rest):
        lifted.append(b - a)
        real(st, a, b, *rest)

    monkeypatch.setattr(integrate, "_lifted", counted)
    hom = integrate._curtailed(spec)
    runs = [(solve(spec, grid), spec, 0.0)]
    runs += [(col, hom, 0.3) for col in fundamental_matrix(spec, 0.3, grid)]
    # most steps of the two sweeps, the solve's and the columns', are lifted
    assert sum(lifted) > 0.6 * (len(runs[0][0].t_nodes)
                                + len(runs[1][0].t_nodes))
    for traj, sys_spec, t0 in runs:
        breaks = integrate._collect_breaks(sys_spec, t0, sys_spec.horizon)
        off = np.ones(len(traj.t_nodes), dtype=bool)
        off[locate(traj.t_nodes, breaks)] = False
        assert off.sum() > 0.95 * len(off)
        assert np.array_equal(_bits(traj.y_pre[off]), _bits(traj.y_post[off]))
        assert np.array_equal(_bits(traj.f_left[off]),
                              _bits(traj.f_right[off]))


@pytest.mark.parametrize("zero_lag", [False, True])
@pytest.mark.parametrize("horizon", [3.0, 0.005])
def test_blocks_and_grids_of_one_step_with_a_short_lag(monkeypatch,
                                                       zero_lag, horizon):
    # a one-byte plan budget cuts blocks of one step, and a horizon of one
    # step makes a grid of one step; solve always has a zero-lag term
    # (forcing and history), fundamental_grid only with zero_lag.  Neither
    # may change the sweeps, lifted or not.
    dt = 0.005
    spec = dataclasses.replace(_short_lag_spec(3 * dt, zero_lag),
                               horizon=horizon)
    grid = StepControl(dt)
    s_grid = np.linspace(0.0, horizon, 5)[:-1]
    t_grid = np.linspace(0.0, horizon, 26)[1:]

    def sweeps():
        return (solve(spec, grid).y_post,
                fundamental_grid(spec, s_grid, t_grid, grid).samples)

    want = sweeps()
    monkeypatch.setattr(integrate, "_PLAN_BYTES", 1)
    got = sweeps()
    monkeypatch.setattr(integrate, "_SHORT_LAG", 0)
    for run in (got, sweeps()):
        for a, b in zip(run, want):
            assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("dim", [1, 3, 6, 10])
def test_lifted_states_stay_within_the_size_cap(monkeypatch, dim):
    # a lifted run's maps are dense in its state, so no state of more than
    # _LIFT_SIZE numbers per column is lifted: solve's dimension is dim + 1,
    # so dim 10 lifts no lag, and smaller systems lift lags of a few steps
    sizes, real = [], integrate._LiftMap

    def recorded(r, n, Psi):
        sizes.append(Psi.shape[1])
        return real(r, n, Psi)

    monkeypatch.setattr(integrate, "_LiftMap", recorded)
    rng = np.random.default_rng(dim)
    for steps in (2, 3, 5, 7):
        spec = SystemSpec(
            dim=dim,
            terms=[DelayTerm(rng.uniform(-0.3, 0.3, (dim, dim)) / dim,
                             ConstantLag(steps * 0.01)),
                   DelayTerm(0.1 * np.eye(dim), ConstantLag(0.0))],
            forcing=np.ones(dim), x0=np.ones(dim), horizon=1.0)
        solve(spec, StepControl(0.01))
    assert all(size <= integrate._LIFT_SIZE for size in sizes)
    assert bool(sizes) == (dim < 10)


def test_fundamental_grid_rejects_bad_grids():
    spec = _decay()
    with pytest.raises(ValueError):
        fundamental_grid(spec, [], [1.0])
    with pytest.raises(ValueError):
        fundamental_grid(spec, [0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        fundamental_grid(spec, [0.0], [5.0])
    for s_grid, t_grid in (([0.0], [math.nan]), ([math.nan], [1.0]),
                           ([0.0, math.nan], [1.0]), ([0.0], [0.5, math.nan])):
        with pytest.raises(ValueError, match="grids must"):
            fundamental_grid(spec, s_grid, t_grid)


def test_fundamental_grid_zero_fills_restarts_past_the_last_t():
    # a restart after every t gives a zero column, and the columns before
    # it equal those of a grid without it
    spec = _decay()
    fm = fundamental_grid(spec, [0.0, 1.5], [0.0, 1.0])
    assert not fm.samples[:, 1].any()
    alone = fundamental_grid(spec, [0.0], [0.0, 1.0])
    assert fm.samples[:, :1].tobytes() == alone.samples.tobytes()


def test_fundamental_grid_sweeps_no_further_than_the_last_t(monkeypatch):
    # a restart past the last t leaves the sweep's grid ending at
    # t_grid[-1]; a grid of such restarts alone sweeps no column there and
    # returns zeros
    ends, real = [], integrate._batch_columns

    def spy(spec, nodes, *args, **kwargs):
        ends.append(float(nodes[-1]))
        return real(spec, nodes, *args, **kwargs)

    monkeypatch.setattr(integrate, "_batch_columns", spy)
    spec, grid = CORPUS["scalar-stabilized-forced"](), StepControl(1e-2)
    fm = fundamental_grid(spec, [0.0, 1.0, 3.5], [0.0, 1.0, 2.0, 3.0], grid)
    assert ends == [3.0] and not fm.samples[:, 2].any()
    late = fundamental_grid(spec, [3.0], [0.0, 1.0, 2.0], grid)
    assert ends == [3.0, 2.0]
    assert late.samples.shape == (3, 1, 1, 1) and not late.samples.any()


def test_fundamental_matrix_requires_s_inside_domain():
    with pytest.raises(ValueError):
        fundamental_matrix(_decay(), 5.0)


# ---------------------------------------------------------------------------
# convergence


def test_error_decreases_under_step_halving_on_a_delay_system():
    # planar-rotation has trigonometric solution profiles, so the scheme
    # carries genuine truncation error at coarse steps (the scalar corpus
    # members have piecewise-polynomial solutions the scheme reproduces
    # to roundoff, which cannot order a halving study)
    spec = planar_rotation()
    ref = solve(spec, StepControl(1e-3))
    probes = np.array([0.6, 1.4, 2.0, 2.4])
    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = solve(spec, StepControl(dt))
        errs.append(max(vec_norm(traj.value(t) - ref.value(t))
                        for t in probes))
    assert errs[0] > errs[1] > errs[2]


def test_trajectory_nodes_contain_jumps_and_are_increasing(corpus_spec):
    traj = solve(corpus_spec, StepControl(1e-2))
    assert np.all(np.diff(traj.t_nodes) > 0)
    for tau in corpus_spec.impulses.points:
        assert np.any(np.isclose(traj.t_nodes, tau, rtol=0, atol=1e-9))


# ---------------------------------------------------------------------------
# lag windows: the sweep steps every stretch whose delayed reads land on
# finished history in one pass


def _unit_lag_oracle(breaks, values, taus, B, s, t_end):
    """Exact X(., s) of x'(t) = -a(t) x(t - 1), x(tau) = B x(tau - 0).

    `a` is the piecewise-constant table (breaks, values).  Between
    consecutive points of {s, the jump points, the breaks of a} + k,
    k = 0, 1, ..., the delayed read x(t - 1) is one polynomial, so the
    column is built piece by piece as exact polynomials; returns the
    pieces as (lo, hi, polynomial).
    """
    cuts = sorted({p + k for p in [s, *taus, *breaks]
                   for k in range(int(t_end) + 2)
                   if s <= p + k <= t_end} | {t_end})
    pieces, x = [], 1.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a = values[np.searchsorted(breaks, lo, side="right") - 1]
        mid = 0.5 * (lo + hi) - 1.0
        past = [p for l, h, p in pieces if l <= mid < h]
        lagged = past[0](Polynomial([-1.0, 1.0])) if past else Polynomial([0.0])
        grow = (-a * lagged).integ()
        piece = x + grow - grow(lo)
        pieces.append((lo, hi, piece))
        x = piece(hi) * (B if hi in taus else 1.0)
    return pieces


def _oracle_at(pieces, t):
    return next(p(t) for lo, hi, p in pieces if lo <= t < hi or t == hi == pieces[-1][1])


def test_events_strictly_inside_one_lag_window_are_exact():
    # unit lag and columns from s = 0: the lag window [1, 2) holds a column
    # activation (s = 1.3), a jump (1.5), a coefficient break (1.7), a
    # sampled time (1.9) and step-size changes (segments of 0.3, 0.2, 0.2,
    # 0.2 and 0.1 against dt = 0.08).  Every column is a piecewise
    # polynomial of degree <= 2 on [0, 3], with every kink a grid node,
    # which RK4 with cubic dense output reproduces to roundoff.
    breaks, values, tau, B = [0.0, 1.7], [0.8, -0.6], 1.5, -0.5
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(MatrixTable(breaks, [[[v]] for v in values]),
                         ConstantLag(1.0))],
        impulses=ImpulseSchedule([tau], [[[B]]], None, 1),
        x0=[1.0], horizon=3.0)
    s_grid, t_grid = [0.0, 1.3], [1.9, 2.6, 3.0]
    grid = StepControl(0.08)
    fm = fundamental_grid(spec, s_grid, t_grid, grid)
    traj = solve(spec, grid)  # zero history: the s = 0 column, dense
    for b, s in enumerate(s_grid):
        pieces = _unit_lag_oracle(breaks, values, [tau], B, s, 3.0)
        for a, t in enumerate(t_grid):
            want = _oracle_at(pieces, t)
            assert fm.samples[a, b, 0, 0] == pytest.approx(want, abs=1e-13)
            if s == 0.0:
                assert traj.value(t)[0] == pytest.approx(want, abs=1e-13)


def test_windows_of_one_step_when_the_lag_is_under_two_steps():
    # theta = 0.015 against dt = 0.01: each step reads inside the step just
    # finished, so every window is one step long; a zero-lag part, a jump
    # with an offset, forcing and a history ride along.  At dt / 8 the
    # windows are a dozen steps long.
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.5]]), ConstantLag(0.0)),
               DelayTerm(np.array([[0.8]]), ConstantLag(0.015))],
        impulses=ImpulseSchedule([0.2], [[[0.5]]], [[0.1]], 1),
        forcing=VectorTable([0.0], [[0.3]]),
        phi=VectorTable([-0.1], [[1.0]]),
        x0=[1.0], horizon=0.5)
    coarse = solve(spec, StepControl(0.01))
    fine = solve(spec, StepControl(0.01 / 8))
    assert np.max(np.diff(coarse.t_nodes)) > 0.015 / 2
    for t in np.linspace(0.05, 0.5, 10):
        assert coarse.value(t)[0] == pytest.approx(fine.value(t)[0],
                                                   abs=1e-9)


_LATTICE = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25])


@st.composite
def _lattice_specs(draw):
    """Small specs whose every break sits on a multiple of 1/4 and whose
    horizon is at most four smallest lags: the solution is a piecewise
    polynomial of degree <= 4 whose kinks all sit on multiples of 1/4, so
    any grid with those as nodes reproduces it to roundoff."""
    n = draw(st.integers(1, 2))
    entry = st.floats(-1.0, 1.0).map(lambda v: round(v, 3))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    lags = draw(st.lists(st.sampled_from([0.5, 0.75, 1.0]), min_size=1,
                         max_size=2, unique=True))
    horizon = draw(st.sampled_from([1.0, 1.5, 2.0]))
    horizon = min(horizon, 4 * min(lags))
    terms = [DelayTerm(np.array(draw(matrix)), ConstantLag(lag))
             for lag in lags]
    if draw(st.booleans()):
        b = draw(_LATTICE.filter(lambda v: v < horizon))
        terms[0] = DelayTerm(MatrixTable([0.0, b], [draw(matrix),
                                                    draw(matrix)]),
                             terms[0].delay)
    points = sorted(draw(st.sets(_LATTICE.filter(lambda v: v < horizon),
                                 max_size=2)))
    impulses = ImpulseSchedule(points, [draw(matrix) for _ in points],
                               [[draw(entry) for _ in range(n)]
                                for _ in points], n)
    vector = st.lists(entry, min_size=n, max_size=n)
    forcing = VectorTable([0.0, 0.5], [draw(vector), draw(vector)])
    phi = VectorTable([-max(lags), -0.25], [draw(vector), draw(vector)])
    return SystemSpec(dim=n, terms=terms, impulses=impulses, forcing=forcing,
                      phi=phi, x0=draw(vector), horizon=horizon)


def _augmented(spec: SystemSpec) -> SystemSpec:
    """Homogeneous system in (x, z) whose solution from (x0, 1) is (x, 1).

    Every coefficient and jump matrix gets a zero last row, except the unit
    jump diagonal that keeps z = 1.  The source g of `source_table`, the
    forcing minus the history reads, becomes one zero-lag coefficient
    -g acting on z, piecewise constant on that table's breaks; the offsets
    alpha_j become the last column of the jump matrices.  Frozen terms
    carry over.
    """
    n, size = spec.dim, spec.dim + 1

    def pad(m):
        if isinstance(m, MatrixTable):
            return MatrixTable(m.breaks, pad(m.values))
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape[:-2] + (size, size))
        out[..., :n, :n] = m
        return out

    terms = [DelayTerm(pad(term.coefficient), term.delay)
             for term in spec.terms]
    g = integrate.source_table(spec)
    if g is not None:
        source = np.zeros((len(g.breaks), size, size))
        source[:, :n, n] = -g.values
        terms.append(DelayTerm(MatrixTable(g.breaks, source), ConstantLag(0.0)))

    sch = spec.impulses
    mats = pad(sch.matrices)
    mats[:, :n, n] = sch.offsets
    mats[:, n, n] = 1.0
    return SystemSpec(dim=size, terms=terms,
                      impulses=ImpulseSchedule(sch.points, mats, None, size),
                      horizon=spec.horizon)


@settings(max_examples=30, deadline=None)
@given(_lattice_specs())
def test_solve_matches_the_augmented_fundamental_column(spec):
    # the solution is X_aug(t, 0) (x0, 1) of the homogeneous system in
    # (x, 1); fundamental_grid plans its own grid, with steps of 1/12
    # against solve's 1/8 (both put every multiple of 1/4 on a node)
    traj = solve(spec, StepControl(0.125))
    aug = _augmented(spec)
    t_grid = np.arange(0.25, spec.horizon + 0.125, 0.25)
    fm = fundamental_grid(aug, [0.0], t_grid, StepControl(1.0 / 12.0))
    start = np.append(spec.x0, 1.0)
    for a, t in enumerate(t_grid):
        want = (fm.samples[a, 0] @ start)[:spec.dim]
        npt.assert_allclose(traj.value(t), want, rtol=0,
                            atol=1e-11 * max(1.0, np.max(np.abs(want))))


@settings(max_examples=30, deadline=None)
@given(_lattice_specs())
def test_represent_solution_matches_solve(spec):
    # solve reproduces the lattice solution to roundoff; the representation's
    # trapezoid rule is second order, about 5e-8 at steps of 1e-3
    targets = tuple(np.arange(0.25, spec.horizon + 0.125, 0.25))
    rep = represent_solution(RepresentationInput(spec, targets,
                                                 StepControl(1e-3)))
    want = solve(spec, StepControl(0.125)).value(targets)
    npt.assert_allclose(rep, want, rtol=0,
                        atol=1e-6 * max(1.0, np.max(np.abs(want))))


@st.composite
def _diagonalizable(draw):
    """M = V diag(lam) V^{-1} with V a product of integer shears, so that
    V^{-1} is an integer matrix too and exp(-M t) = V diag(e^{-lam t})
    V^{-1} is exact up to roundoff."""
    n = draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n,
                                 max_size=n)))
    V = np.eye(n)
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-2, 2)),
                                 max_size=4)):
        if i != j:
            shear = np.eye(n)
            shear[i, j] = c
            V = V @ shear
    return V, lam, np.round(np.linalg.inv(V))


@settings(max_examples=30, deadline=None)
@given(_diagonalizable(),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_zero_lag_system_matches_its_matrix_exponential(decomposition, x0):
    V, lam, V_inv = decomposition
    n = len(lam)
    spec = SystemSpec(dim=n,
                      terms=[DelayTerm(V @ np.diag(lam) @ V_inv,
                                       ConstantLag(0.0))],
                      x0=x0[:n], horizon=2.0)
    traj = solve(spec, StepControl(1e-3))
    scale = np.max(np.abs(V)) * np.max(np.abs(V_inv))
    for t in (0.5, 1.3, 2.0):
        want = V @ (np.exp(-lam * t) * (V_inv @ np.asarray(x0[:n])))
        npt.assert_allclose(traj.value(t), want, rtol=0, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# memory


def _four_dim_two_lags(horizon):
    rng = np.random.default_rng(3)
    A = rng.uniform(-0.1, 0.1, (2, 4, 4))
    return SystemSpec(
        dim=4,
        terms=[DelayTerm(A[0], ConstantLag(0.37)),
               DelayTerm(A[1], ConstantLag(0.81))],
        impulses=ImpulseSchedule([1.0, 2.5], [np.eye(4) * 0.5,
                                              np.eye(4) * 0.9], None, 4),
        forcing=VectorTable([0.0], [[0.1] * 4]),
        phi=VectorTable([-1.0], [[0.2] * 4]),
        x0=[1.0] * 4, horizon=horizon)


def test_dense_solve_writes_its_output_in_place():
    # n = 4, two lags, K = 2e4 steps: the dense sweep writes y_post, y_pre,
    # f_right and f_left straight into its output and plans reads one block
    # at a time.  Four (K+1)-row rings, two rolled copies and whole-grid
    # read plans peaked at 9.5 MB (about 500 B per node) on this spec; the
    # bound is two thirds of that.
    spec = _four_dim_two_lags(20.0)
    tracemalloc.start()
    try:
        traj = solve(spec, StepControl(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    K = len(traj.t_nodes) - 1
    assert K >= 20000
    assert peak < 330 * K


def test_dense_sweep_refuses_an_oversized_grid_before_allocating():
    # the estimate (four node arrays, window buffers, read plans) comes
    # from the planned grid alone: none of its 6.4 MB is allocated
    nodes = np.linspace(0.0, 1.0, 200_001)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"dense sweep needs about \d+ "
                           r"bytes, more than the memory budget of "
                           r"1000000 bytes"):
            integrate._batch_columns(_decay(), nodes, {}, [0], [],
                                     dense=True, mem_cap=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def _traced_peak(call) -> tuple:
    """The result of `call()` and the peak of the bytes it traces."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(CORPUS) + ["clustered", "short-lag"])
def test_the_memory_estimate_is_within_twice_the_traced_peak(monkeypatch,
                                                             name):
    # each sweep's estimate of the bytes it holds, which sizes its chunks
    # and refuses it, is at least the traced peak of the sweep and at most
    # twice it: a dense solve, a fundamental_grid and a reflected
    # kernel_rows, whose restart columns ascend like every sweep's, on the
    # corpus, the clustered counterexample and a lifted short lag
    ratios, kinds, real = [], [], integrate._batch_columns

    def traced(*args, **kwargs):
        nbytes = _estimated_bytes(
            lambda mem_cap: real(*args, **kwargs, mem_cap=mem_cap))
        out, peak = _traced_peak(lambda: real(*args, **kwargs))
        ratios.append(nbytes / peak)
        kinds.append((kwargs.get("dense", False),
                      kwargs.get("reflected", False),
                      bool(np.any(np.diff(args[3]) < 0))))
        return out

    spec = (CORPUS[name]() if name in CORPUS
            else _clustered_counterexample() if name == "clustered"
            else _short_lag_spec(3 * 2e-3, True))
    monkeypatch.setattr(integrate, "_batch_columns", traced)
    _three_sweeps(monkeypatch, spec, 2e-3)
    assert kinds == [(True, False, False), (False, False, False),
                     (False, True, False)]
    assert all(1.0 <= ratio <= 2.0 for ratio in ratios), ratios


def test_the_memory_estimate_of_a_chunked_sweep_is_within_twice_its_peak():
    # 20 columns under a budget that admits 16 run in chunks of 16 and 4,
    # the first chunk's rows freed before the second's are allocated
    args = _twenty_columns()
    sweep = integrate._batch_columns
    cap = _estimated_bytes(lambda mem_cap: sweep(*args, mem_cap=mem_cap))
    _, peak = _traced_peak(lambda: sweep(*args, mem_cap=cap))
    assert 1.0 <= cap / peak <= 2.0


@pytest.mark.parametrize("sweep", ["fundamental_grid", "kernel_rows"])
def test_a_sweep_without_dense_output_refuses_before_allocating(
        monkeypatch, sweep):
    # 400 x 20 samples of X(t, s) on a grid of 450 nodes, or the rows
    # s -> X(t, s) of 100 targets over 201 nodes: each sweep's estimate,
    # with its ring, window buffers and plans, is 1.4-1.7 MB, over a budget
    # of 1e6 bytes, and it is refused before any of them is allocated (a
    # first, untraced call imports what numpy loads lazily)
    real = integrate._batch_columns
    monkeypatch.setattr(integrate, "_batch_columns",
                        lambda *a, **k: real(*a, **k, mem_cap=10**6))
    spec, targets = planar_rotation(), np.linspace(0.02, 2.0, 100)
    nodes = integrate.quadrature_nodes(spec, targets, 0.01)
    call = {"fundamental_grid": lambda: fundamental_grid(
                spec, np.linspace(0.0, 1.0, 20), np.linspace(0.0, 2.0, 400),
                StepControl(0.05)),
            "kernel_rows": lambda: integrate.kernel_rows(spec, nodes,
                                                         targets)}[sweep]
    with pytest.raises(ValueError):
        call()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^sweep needs about \d+ "
                           r"bytes, more than the memory budget of "
                           r"1000000 bytes$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def _clustered_counterexample():
    """x' - 0.9 x(t - 0.05) = 0 with B = 0.9 at k and k + 0.001 for
    k = 1..20: jumps 0.001 apart, each read a lag later by a snapped
    node, and windows that end at the lag."""
    points = [p for k in range(1, 21) for p in (float(k), k + 0.001)]
    return SystemSpec(
        dim=1, terms=[DelayTerm(np.array([[-0.9]]), ConstantLag(0.05))],
        impulses=ImpulseSchedule(points, [[[0.9]]] * len(points), None, 1),
        x0=[1.0], horizon=20.5)


def _three_sweeps(monkeypatch, spec, dt):
    """The chunk states and outputs of a dense solve, a fundamental_grid
    and a kernel_rows sweep of `spec`."""
    states, real = [], integrate._plan

    def plan(st, p0, p1):
        if st not in states:
            states.append(st)
        return real(st, p0, p1)

    monkeypatch.setattr(integrate, "_plan", plan)
    T, grid = spec.horizon, StepControl(dt)
    targets = np.array([0.5 * T, T])
    out = (solve(spec, grid).y_pre,
           fundamental_grid(spec, np.linspace(0.0, 0.5 * T, 9),
                            np.linspace(0.0, T, 17), grid).samples,
           *integrate.kernel_rows(
               spec, integrate.quadrature_nodes(spec, targets, dt),
               targets)[:1])
    monkeypatch.setattr(integrate, "_plan", real)
    return states, out


@pytest.mark.parametrize("name",
                         sorted(CORPUS) + ["clustered", "short-lag"])
def test_the_ring_holds_two_rows_per_grid_node(monkeypatch, name):
    # each sweep's ring holds one y and one f per node of its grid, and a
    # ring as deep as that grid, which reuses no slot, gives the same bytes
    spec = (CORPUS[name]() if name in CORPUS
            else _clustered_counterexample() if name == "clustered"
            else _short_lag_spec(3 * 2e-3, True))
    states, got = _three_sweeps(monkeypatch, spec, 2e-3)
    assert len(states) == 3
    for st in states:
        assert st.H.shape == (st.slots, 2, st.n, st.Sc * st.m)
        assert st.rows_of.shape == (2 * st.slots, st.n, st.Sc * st.m)
    _sized(monkeypatch, depth=lambda nodes: 2 * len(nodes))
    deep, want = _three_sweeps(monkeypatch, spec, 2e-3)
    assert all(st.R >= len(st.nodes) for st in deep)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name",
                         sorted(CORPUS) + ["clustered", "short-lag"])
def test_a_sweeps_sides_are_fixed_before_its_first_step(monkeypatch, name):
    # `_reach` alone decides which nodes have two sides, and the sweep's
    # grid, set before its first step and kept to its end, holds each of
    # them twice: its left copy and then its right copy, adjacent and equal
    # in time, in a dense solve, a fundamental_grid and a kernel_rows sweep
    doubled, grids, real = [], {}, (integrate._reach, integrate._plan)

    def reach(nodes, *args):
        D, wmax, cand = real[0](nodes, *args)
        doubled.append((nodes, cand))
        return D, wmax, cand

    def plan(st, p0, p1):
        grids.setdefault(id(st), (st.nodes.copy(), list(st.lefts)))
        return real[1](st, p0, p1)

    monkeypatch.setattr(integrate, "_reach", reach)
    spec = (CORPUS[name]() if name in CORPUS
            else _clustered_counterexample() if name == "clustered"
            else _short_lag_spec(3 * 2e-3, True))
    monkeypatch.setattr(integrate, "_plan", plan)
    states, _ = _three_sweeps(monkeypatch, spec, 2e-3)
    assert len(states) == len(doubled) == len(grids) == 3
    for st, (nodes, cand) in zip(states, doubled):
        grid, lefts = grids[id(st)]
        assert len(cand) > 0
        assert grid.tobytes() == np.sort(np.append(nodes,
                                                   nodes[cand])).tobytes()
        assert st.nodes.tobytes() == grid.tobytes() and st.lefts == lefts
        lefts = np.asarray(lefts)
        assert lefts.tolist() == (cand + np.arange(len(cand))).tolist()
        steps = np.diff(grid)
        assert np.all(steps[lefts] == 0.0)
        assert np.all(np.delete(steps, lefts) > 0.0)
        assert np.flatnonzero(st.left).tolist() == lefts.tolist()


@pytest.mark.parametrize("name", sorted(CORPUS) + ["short-lag"])
def test_halving_or_doubling_a_budget_moves_no_output(monkeypatch, name):
    # the window and plan budgets set where windows, blocks and the zero-lag
    # scan's segments start, and so the rounding of each step's sum: the
    # dense output of solve, fundamental_grid and kernel_rows move by at
    # most 1e-13 relative when either budget is halved or doubled
    spec = (CORPUS[name]() if name in CORPUS
            else _short_lag_spec(3 * 2e-3, True))
    T, grid = spec.horizon, StepControl(2e-3)
    targets = np.array([0.5 * T, T])
    nodes = integrate.quadrature_nodes(spec, targets, 2e-3)

    def outputs():
        traj = solve(spec, grid)
        return (traj.y_post, traj.y_pre, traj.f_right, traj.f_left,
                fundamental_grid(spec, np.linspace(0.0, 0.5 * T, 9),
                                 np.linspace(0.0, T, 17), grid).samples,
                *integrate.kernel_rows(spec, nodes, targets)[:1])

    want = outputs()
    for budget in ("_WINDOW_BYTES", "_PLAN_BYTES"):
        for scale in (0.5, 2.0):
            with monkeypatch.context() as patch:
                patch.setattr(integrate, budget,
                              int(scale * getattr(integrate, budget)))
                got = outputs()
            for a, b in zip(got, want):
                assert np.all(np.abs(a - b)
                              <= 1e-13 * np.maximum(1.0, np.abs(b)))


def _wide_sweep(monkeypatch):
    """Window lengths of a fundamental_grid of n = 2 over S = 49 restart
    columns: one lag of 0.93, a zero-lag term, a coefficient table and
    twelve jumps, on steps of 2e-3."""
    rng = np.random.default_rng(4)
    A = rng.uniform(-0.4, 0.4, (4, 2, 2))
    spec = SystemSpec(
        dim=2,
        terms=[DelayTerm(MatrixTable([0.0, 5.1], A[:2]), ConstantLag(0.93)),
               DelayTerm(A[2], ConstantLag(0.0))],
        impulses=ImpulseSchedule.periodic(1.0, A[3] + np.eye(2),
                                          horizon=12.0, dim=2),
        x0=[1.0, 0.0], horizon=12.0)
    windows, real = [], integrate._window

    def counted(st, a, b, pl):
        windows.append(b - a)
        real(st, a, b, pl)

    monkeypatch.setattr(integrate, "_window", counted)
    fundamental_grid(spec, np.arange(49) * 0.125, np.arange(49) * 0.25,
                     StepControl(2e-3))
    monkeypatch.setattr(integrate, "_window", real)
    return windows


def test_a_wide_fundamental_grid_runs_about_half_the_windows(monkeypatch):
    # there the window budget, not the lag, ends the windows: 512 KiB
    # runs the same steps as 256 KiB in at most 55 % of the windows
    windows = _wide_sweep(monkeypatch)
    monkeypatch.setattr(integrate, "_WINDOW_BYTES", 1 << 18)
    before = _wide_sweep(monkeypatch)
    assert sum(windows) == sum(before)
    assert len(windows) <= 0.55 * len(before)


def test_window_buffers_hold_the_longest_window_the_sweep_runs(monkeypatch):
    # the clustered counterexample's windows end at its lag, 25 steps of
    # 2e-3, well within the window budget: the buffers hold two steps more
    # than the longest window, and the windows are those of buffers sized
    # by the budget alone
    spec = _clustered_counterexample()
    windows, wmax, real = [], [], integrate._window

    def counted(st, a, b, pl):
        windows.append(b - a)
        wmax.append(st.wmax)
        real(st, a, b, pl)

    monkeypatch.setattr(integrate, "_window", counted)

    def sweep():
        windows.clear(), wmax.clear()
        out = fundamental_grid(spec, np.linspace(0.0, 10.0, 41),
                               np.linspace(0.0, 20.5, 83), StepControl(2e-3))
        return out.samples, list(windows), max(wmax)

    got, runs, sized = sweep()
    assert max(runs) <= sized <= max(runs) + 2
    _sized(monkeypatch, window=lambda cap: cap)
    want, runs_budget, budget = sweep()
    assert runs == runs_budget and budget >= 2 * sized
    assert got.tobytes() == want.tobytes()


def test_recorded_nodes_may_come_in_any_order():
    # records are looked up in sorted index arrays: unsorted and repeated
    # record nodes each get their node's sample
    hom = integrate._curtailed(planar_rotation())
    nodes, jump_nodes = integrate._prepare_grid(hom, 0.0, hom.horizon, 0.01)
    jumps = integrate._jump_matrices(hom, jump_nodes)
    rec = np.array([200, 17, 120, 17, 240, 0])
    got = integrate._batch_columns(hom, nodes, jumps, [0, 30, 60], rec)
    want = integrate._batch_columns(hom, nodes, jumps, [0, 30, 60],
                                    np.unique(rec))
    assert got.tobytes() == want[np.searchsorted(np.unique(rec),
                                                 rec)].tobytes()
