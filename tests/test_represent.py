"""Variation-of-constants form: Cauchy operator, full representation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from impulsedde import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    RepresentationInput,
    StepControl,
    SystemSpec,
    VectorTable,
    cauchy_apply,
    represent_solution,
    representation_residual,
    representation_residuals,
    solve,
    vec_norm,
)
from impulsedde.integrate import kernel_rows, quadrature_nodes, read_piecewise
from impulsedde.represent import _panel_sum
from corpus import (CORPUS, multi_piece_history, planar_singular_reset,
                    scalar_forced, scalar_table_homogeneous)


def _plain_decay(a=1.0, horizon=2.0):
    return SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[a]]), ConstantLag(0.0))],
                      x0=[0.0], horizon=horizon)


# ---------------------------------------------------------------------------
# Cauchy operator


def test_cauchy_of_zero_forcing_is_zero():
    out = cauchy_apply(_plain_decay(), None, 1.5)
    npt.assert_allclose(out, 0.0, atol=0)


def test_cauchy_at_time_zero_is_zero():
    f = VectorTable([0.0], [[1.0]])
    out = cauchy_apply(_plain_decay(), f, 0.0)
    npt.assert_allclose(out, 0.0, atol=0)


def test_cauchy_against_constant_forcing_closed_form():
    # x' + x = 1, x(0) = 0  =>  x(t) = 1 - e^{-t}
    f = VectorTable([0.0], [[1.0]])
    out = cauchy_apply(_plain_decay(), f, 1.0, StepControl(1e-3))
    assert out[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_cauchy_is_exact_for_piecewise_constant_kernels():
    # no coefficient terms: X(t,s) = 1 between jumps; with B = 0.5 at tau=1,
    # int_0^2 X(2,s) f(s) ds = 0.5*1 + 1*1 = 1.5 exactly for f = 1
    spec = SystemSpec(dim=1,
                      impulses=ImpulseSchedule([1.0], [[[0.5]]], None, 1),
                      x0=[0.0], horizon=2.0)
    f = VectorTable([0.0], [[1.0]])
    out = cauchy_apply(spec, f, 2.0, StepControl(0.05))
    assert out[0] == pytest.approx(1.5, abs=1e-12)


def test_panel_sums_apply_the_jump_matrices_at_the_jump_nodes():
    # kernel_rows keeps the left limits X(t, tau) B at the jump nodes only;
    # the panel sum equals the trapezoid over rows whose jump nodes hold
    # them, bit for bit (a singular reset and a rank-one jump)
    spec = planar_singular_reset()
    targets = np.array([1.2, 1.7, 2.4])
    nodes = quadrature_nodes(spec, targets, 2e-3)
    right, left, jump_nodes = kernel_rows(spec, nodes, targets)
    at = np.fromiter(jump_nodes, np.intp)
    assert left.shape == (3, 2, 2, 2) and len(at) == 2
    full = right.copy()
    for j, (i, k) in enumerate(jump_nodes.items()):
        full[:, i] = right[:, i] @ spec.impulses.matrices[k]
        assert full[:, i].tobytes() == left[:, j].tobytes()
    g_r = read_piecewise(spec.phi, nodes, "right", 2) + nodes[:, None]
    g_l = read_piecewise(spec.phi, nodes, "left", 2) - nodes[:, None]
    for row, i_hi in enumerate(np.searchsorted(nodes, targets)):
        h = np.diff(nodes[:i_hi + 1])
        lo = np.einsum("sij,sj->si", right[row, :i_hi], g_r[:i_hi])
        hi = np.einsum("sij,sj->si", full[row, 1:i_hi + 1], g_l[1:i_hi + 1])
        want = 0.5 * (h[:, None] * (lo + hi)).sum(axis=0)
        got = _panel_sum(nodes, right[row], left[row], at, i_hi, g_r, g_l)
        assert got.tobytes() == want.tobytes()


def test_cauchy_with_a_frozen_term_at_zero_matches_closed_form():
    # x' + x - x(0) = 0: for s > 0 the curtailed history makes x(0) = 0,
    # so X(t, s) = e^{-(t-s)} and (C1)(1) = 1 - e^{-1}; the s = 0 column
    # (X(t, 0) = 1) is a null set for the integral
    spec = SystemSpec(dim=1,
                      terms=[DelayTerm(np.array([[1.0]]), ConstantLag(0.0)),
                             DelayTerm(np.array([[-1.0]]), FrozenTime(0.0))],
                      x0=[0.0], horizon=2.0)
    f = VectorTable([0.0], [[1.0]])
    out = cauchy_apply(spec, f, 1.0, StepControl(1e-3))
    assert out[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    later = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), FrozenTime(0.5))],
                       x0=[0.0], horizon=2.0)
    with pytest.raises(ValueError, match="not causal"):
        cauchy_apply(later, f, 1.0)


def test_cauchy_rejects_wrong_width_forcing():
    f = VectorTable([0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        cauchy_apply(_plain_decay(), f, 1.0)


def test_cauchy_rejects_targets_outside_domain():
    f = VectorTable([0.0], [[1.0]])
    with pytest.raises(ValueError):
        cauchy_apply(_plain_decay(horizon=1.0), f, 2.0)


# ---------------------------------------------------------------------------
# full representation


def test_representation_at_zero_returns_the_initial_value():
    spec = scalar_forced()
    rep = represent_solution(RepresentationInput(spec, (0.0,)))
    npt.assert_allclose(rep[0], spec.x0, atol=0)


def test_representation_matches_integration_on_corpus(corpus_spec):
    targets = tuple(np.linspace(0.3, corpus_spec.horizon, 5))
    res = representation_residual(corpus_spec, targets, StepControl(2e-3))
    assert res < 1e-4


def test_representation_with_multi_piece_history_is_exact():
    # the history integrand A phi(s - theta) reads phi at lag images of its
    # breaks; a read one ulp off a break must take the piece from the break
    # on.  The solution is piecewise polynomial, so the residual is roundoff.
    res = representation_residual(multi_piece_history(),
                                  np.linspace(0.1, 1.0, 10), StepControl(1e-3))
    assert res < 1e-8


def test_per_target_residuals_keep_the_input_order():
    spec = scalar_forced()
    targets = (2.3, 0.7, 1.4)
    grid = StepControl(4e-3)
    gaps = representation_residuals(spec, targets, grid)
    assert len(gaps) == 3
    assert max(gaps) == representation_residual(spec, targets, grid)
    # one target at a time gives a slightly different quadrature grid
    for t, gap in zip(targets, gaps):
        assert gap == pytest.approx(
            representation_residual(spec, (t,), grid), rel=1e-6, abs=1e-13)


def test_representation_residual_decreases_under_halving():
    spec = scalar_forced()
    targets = (0.7, 1.4, 2.3)
    coarse = representation_residual(spec, targets, StepControl(4e-3))
    fine = representation_residual(spec, targets, StepControl(2e-3))
    assert fine < coarse


def test_jump_offsets_enter_through_the_kernel():
    # pure offsets: no terms, no forcing; x(t) = sum X(t,tau_j) alpha_j + X(t,0) x0
    spec = SystemSpec(
        dim=1,
        impulses=ImpulseSchedule([0.5, 1.5], [[[1.0]], [[0.5]]],
                                 [[2.0], [-1.0]], 1),
        x0=[1.0],
        horizon=2.0,
    )
    rep = represent_solution(RepresentationInput(spec, (1.0, 2.0)))
    # by t=1: x = 1 + 2 = 3;  by t=2: x = 0.5*3 - 1 = 0.5
    npt.assert_allclose(rep[:, 0], [3.0, 0.5], atol=1e-12)


def test_history_term_subtracts_the_phi_integral():
    # phi = 1 on [-1, 0), A = 1 with unit lag, x0 = 0, no jumps:
    # x(t) = -int_0^t phi(s-1) ds = -t for t in [0, 1]
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[1.0]]), ConstantLag(1.0))],
        phi=VectorTable([-1.0], [[1.0]]),
        x0=[0.0],
        horizon=1.0,
    )
    rep = represent_solution(RepresentationInput(spec, (0.5, 1.0),
                                                 grid=StepControl(1e-3)))
    npt.assert_allclose(rep[:, 0], [-0.5, -1.0], atol=1e-9)


def test_history_term_accepts_a_constant_phi():
    # phi may be a constant vector as well as a table; same closed form as
    # above, x(t) = -t on [0, 1]
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[1.0]]), ConstantLag(1.0))],
        phi=np.array([1.0]),
        x0=[0.0],
        horizon=1.0,
    )
    rep = represent_solution(RepresentationInput(spec, (0.5, 1.0),
                                                 grid=StepControl(1e-3)))
    npt.assert_allclose(rep[:, 0], [-0.5, -1.0], atol=1e-9)


def test_representation_orders_targets_but_returns_input_order():
    spec = scalar_table_homogeneous()
    fwd = represent_solution(RepresentationInput(spec, (0.5, 1.5, 2.5)))
    rev = represent_solution(RepresentationInput(spec, (2.5, 1.5, 0.5)))
    npt.assert_allclose(rev, fwd[::-1], atol=0)


def test_representation_rejects_frozen_terms():
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), FrozenTime(0.0))],
                      x0=[1.0], horizon=1.0)
    with pytest.raises(ValueError, match="frozen"):
        represent_solution(RepresentationInput(spec, (0.5,)))


def test_representation_input_validates_targets_and_grids():
    spec = scalar_forced()
    with pytest.raises(ValueError):
        RepresentationInput(spec, (5.0,))  # beyond horizon
    with pytest.raises(ValueError):
        RepresentationInput(spec, ())
    # a user grid must contain every jump and every target
    with pytest.raises(ValueError):
        RepresentationInput(spec, (1.0,),
                            quad_grid=np.linspace(0.0, 2.5, 11))


def test_user_quadrature_grid_is_honored():
    # piecewise-constant kernel: even a coarse user grid is exact
    spec = SystemSpec(
        dim=1,
        impulses=ImpulseSchedule([1.0], [[[0.5]]], [[1.0]], 1),
        forcing=VectorTable([0.0], [[1.0]]),
        x0=[0.0],
        horizon=2.0,
    )
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    rep = represent_solution(RepresentationInput(spec, (2.0,),
                                                 quad_grid=grid))
    # forcing integral: X(2,s)=0.5 on [0,1), 1 on [1,2) => 0.5 + 1 = 1.5;
    # offset at tau=1 propagates as X(2,1)*1 = 1
    assert rep[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_off_lattice_targets_keep_piecewise_polynomial_rows_exact():
    # rows s -> X(t, s) kink at t - theta and t - 2 theta; off the step
    # lattice those must be grid nodes, or RK4 steps across them and the
    # residual of this piecewise-polynomial system leaves roundoff (2e-8)
    spec = scalar_table_homogeneous()
    targets = (0.3137, 0.7123, 1.4567, 2.7900)
    res = representation_residual(spec, targets, StepControl(2e-3))
    assert res < 1e-10


def test_residual_is_relative_and_small_for_homogeneous_systems():
    spec = scalar_table_homogeneous()
    res = representation_residual(spec, (1.0, 2.0, 3.0), StepControl(2e-3))
    assert res < 1e-10
