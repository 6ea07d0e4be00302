"""Envelopes, the drift-free jump product, the certificate, rate fitting."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    FundamentalMatrix,
    ImpulseSchedule,
    MatrixTable,
    StepControl,
    SystemSpec,
    c0_closed_form,
    c0_estimate,
    certify,
    estimate_rate,
    fundamental_grid,
    gronwall_bound,
    hypotheses_report,
    mat_norm,
    solve,
)
from impulsedde.stability import gronwall_grid
from corpus import CORPUS, scalar_stabilized_forced


def _stabilized(a=0.3, b=0.5, horizon=6.0):
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[a]]), ConstantLag(1.0))],
        impulses=ImpulseSchedule.periodic(1.0, [[b]], horizon=horizon, dim=1),
        x0=[1.0],
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# product envelope


def test_gronwall_bound_hand_value():
    # two jumps of norm 0.5 and integral of ||A|| = 0.3 * 2.5 on (0, 2.5]
    spec = _stabilized()
    got = gronwall_bound(spec, 0.0, 2.5)
    assert got == (1.5 ** 2) * math.exp(0.75)


def test_gronwall_tight_variant_uses_the_product_of_norms():
    spec = _stabilized()
    got = gronwall_bound(spec, 0.0, 2.5, tight=True)
    assert got == (0.5 ** 2) * math.exp(0.75)


def test_gronwall_counts_jumps_on_the_half_open_segment():
    spec = _stabilized()
    # (1, 2] contains exactly the jump at 2; integral contributes e^{0.3}
    assert gronwall_bound(spec, 1.0, 2.0) == 1.5 * math.exp(0.3)


def test_gronwall_integrates_coefficient_tables_exactly():
    table = MatrixTable([0.0, 1.0], [[[0.5]], [[2.0]]])
    spec = SystemSpec(dim=1, terms=[DelayTerm(table, ConstantLag(0.0))],
                      horizon=3.0)
    assert gronwall_bound(spec, 0.5, 2.0) == pytest.approx(
        math.exp(0.5 * 0.5 + 2.0 * 1.0), rel=1e-15)


def test_gronwall_rejects_reversed_segments():
    with pytest.raises(ValueError):
        gronwall_bound(_stabilized(), 2.0, 1.0)
    for s, t in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            gronwall_bound(_stabilized(), s, t)


def test_gronwall_dominates_sampled_norms():
    spec = scalar_stabilized_forced()
    s_grid = np.linspace(0.0, 0.9 * spec.horizon, 6)
    t_grid = np.linspace(0.0, spec.horizon, 7)
    fm = fundamental_grid(spec, s_grid, t_grid, StepControl(1e-3))
    for a, t in enumerate(t_grid):
        for b, s in enumerate(s_grid):
            if t < s:
                continue
            bound = gronwall_bound(spec, float(s), float(t))
            assert mat_norm(fm.samples[a, b]) <= bound * (1 + 1e-9)


@settings(max_examples=30)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_gronwall_is_monotone_in_the_segment(u, v):
    spec = _stabilized()
    s, t = sorted((u, v))
    # enlarging the segment can only multiply in factors >= 1
    assert gronwall_bound(spec, s, t) <= gronwall_bound(spec, 0.0, 2.0) \
        * gronwall_bound(spec, 0.0, 0.0) * math.exp(0.3 * 2.0) + 1e-12


def _norm_integral_by_cuts(coef, s, t):
    # the reference: one midpoint read per cut interval, summed in order
    if not isinstance(coef, MatrixTable):
        return float(mat_norm(coef)) * (t - s)
    cuts = [s] + [float(b) for b in coef.breaks if s < b < t] + [t]
    total = 0.0
    for u, v in zip(cuts[:-1], cuts[1:]):
        total += float(mat_norm(coef.value(0.5 * (u + v)))) * (v - u)
    return total


def _gronwall_by_pairs(spec, s, t, tight):
    sched = spec.impulses
    lo = int(np.searchsorted(sched.points, s, side="right"))
    hi = int(np.searchsorted(sched.points, t, side="right"))
    prod = 1.0
    for j in range(lo, hi):
        b = float(mat_norm(sched.matrices[j]))
        prod *= b if tight else 1.0 + b
    rate = sum(_norm_integral_by_cuts(term.coefficient, s, t)
               for term in spec.terms)
    return prod * math.exp(rate)


def _two_piece_tables():
    # first break after 0, a break on a jump point, a table break at 0
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(MatrixTable([0.5, 1.3], [[[0.5]], [[-2.0]]]),
                         ConstantLag(0.4)),
               DelayTerm(MatrixTable([0.0, 2.2], [[[0.3]], [[0.7]]]),
                         ConstantLag(1.0))],
        impulses=ImpulseSchedule([0.7, 1.3, 2.1], [[[0.5]], [[1.5]], [[-2.0]]],
                                 None, 1),
        horizon=3.0,
    )


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("make", list(CORPUS.values()) + [_two_piece_tables],
                         ids=list(CORPUS) + ["two-piece-tables"])
def test_gronwall_grid_equals_the_per_pair_loop(make, tight):
    spec = make()
    h = spec.horizon
    marks = [float(p) for p in spec.impulses.points]
    marks += [float(b) for term in spec.terms
              if isinstance(term.coefficient, MatrixTable)
              for b in term.coefficient.breaks if 0.0 <= b <= h]
    s_grid = np.unique(np.concatenate((np.linspace(0.0, 0.8 * h, 7), marks)))
    t_grid = np.unique(np.concatenate((np.linspace(0.0, h, 9), marks)))
    want = np.array([[_gronwall_by_pairs(spec, s, t, tight) if s <= t else 0.0
                      for s in s_grid.tolist()] for t in t_grid.tolist()])
    got = gronwall_grid(spec, s_grid, t_grid, tight)
    assert np.array_equal(got, want)
    for a, t in enumerate(t_grid.tolist()):
        for b, s in enumerate(s_grid.tolist()):
            if s <= t:
                assert gronwall_bound(spec, s, t, tight) == want[a, b]


# ---------------------------------------------------------------------------
# drift-free jump product


def test_c0_closed_form_hand_value():
    sched = ImpulseSchedule([1.0], [[[0.5]]], None, 1)
    got = c0_closed_form(1.0, sched, 0.0, 2.0)
    assert got[0, 0] == 0.5 * math.exp(-2.0)


def test_c0_closed_form_is_identity_without_jumps():
    sched = ImpulseSchedule.empty(2)
    npt.assert_allclose(c0_closed_form(0.0, sched, 0.0, 5.0), np.eye(2),
                        atol=0)


def test_c0_closed_form_orders_noncommuting_factors():
    B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    sched = ImpulseSchedule([1.0, 2.0], [B1, B2], None, 2)
    got = c0_closed_form(0.0, sched, 0.0, 2.0)
    npt.assert_allclose(got, B2 @ B1, atol=0)  # latest factor leftmost


def test_c0_closed_form_rejects_reversed_and_nan_segments():
    sched = ImpulseSchedule([1.0, 2.0], [[[0.5]], [[0.5]]], None, 1)
    for s, t in ((2.0, 1.0), (math.nan, 1.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="s <= t"):
            c0_closed_form(1.0, sched, s, t)


def test_c0_estimate_values_and_threshold():
    sched = ImpulseSchedule.periodic(1.0, [[0.5]], horizon=10.0, dim=1)
    assert c0_estimate(sched, 0.0, 0.5, zeta=1.0, rho=1.0) == 1.0
    assert c0_estimate(sched, 0.0, 3.0, zeta=1.0, rho=1.0) == pytest.approx(
        2.0 ** -3, rel=1e-12)


def test_c0_estimate_rejects_noncontracting_jumps():
    sched = ImpulseSchedule([1.0], [[[1.0]]], None, 1)
    with pytest.raises(ValueError, match="inapplicable"):
        c0_estimate(sched, 0.0, 2.0, zeta=1.0, rho=1.0)
    nan_jump = ImpulseSchedule([1.0], [[[math.nan]]], None, 1)
    with pytest.raises(ValueError, match="inapplicable"):
        c0_estimate(nan_jump, 0.0, 2.0, zeta=1.0, rho=1.0)


def test_c0_estimate_validates_gap_parameters():
    sched = ImpulseSchedule([1.0], [[[0.5]]], None, 1)
    with pytest.raises(ValueError):
        c0_estimate(sched, 0.0, 2.0, zeta=2.0, rho=1.0)
    with pytest.raises(ValueError):
        c0_estimate(sched, 2.0, 1.0, zeta=1.0, rho=1.0)
    for s, t in ((math.nan, 3.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="s <= t"):
            c0_estimate(sched, s, t, zeta=1.0, rho=1.0)


# ---------------------------------------------------------------------------
# certificate


def test_certificate_on_the_stabilized_example():
    cert = certify(_stabilized(horizon=40.0))
    assert cert.verdict == "Certified"
    assert cert.reasons == ()
    assert cert.gamma == 0.5
    assert cert.zeta == 1.0 and cert.rho == 1.0
    assert cert.alpha == math.log(2.0)
    # algebraic identity: (1/alpha) e^{-alpha rho} + rho = 1 - b/ln b
    assert cert.lhs == pytest.approx(0.3 * (1.0 - 0.5 / math.log(0.5)),
                                     abs=1e-15)


def test_certificate_rejects_noncontracting_jumps():
    cert = certify(_stabilized(b=1.0))
    assert cert.verdict == "NotCertified"
    assert any("gamma" in r for r in cert.reasons)
    assert math.isnan(cert.lhs)


def test_certificate_needs_margin_below_one():
    cert = certify(_stabilized(a=0.9))
    assert cert.verdict == "NotCertified"
    assert cert.lhs > 1.0
    assert any("lhs" in r or "margin" in r or "< 1" in r
               for r in cert.reasons)


def test_certificate_rejects_frozen_terms():
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), FrozenTime(0.0))],
                      horizon=2.0)
    cert = certify(spec)
    assert cert.verdict == "NotCertified"
    assert cert.delta == math.inf


def test_certificate_needs_at_least_two_jump_points():
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.1]]), ConstantLag(1.0))],
        impulses=ImpulseSchedule([1.0], [[[0.5]]], None, 1),
        horizon=3.0,
    )
    cert = certify(spec)
    assert cert.verdict == "NotCertified"
    assert math.isnan(cert.zeta) and math.isnan(cert.rho)


def test_certificate_lhs_grows_with_the_coefficient():
    lhs = [certify(_stabilized(a=a)).lhs for a in (0.1, 0.3, 0.5)]
    assert lhs[0] < lhs[1] < lhs[2]


def test_certificate_with_vanishing_jumps_uses_infinite_decay():
    cert = certify(_stabilized(b=0.0))
    assert cert.gamma == 0.0
    assert cert.alpha == math.inf
    # the bracket collapses to rho alone
    assert cert.lhs == pytest.approx(0.3 * 1.0, abs=1e-15)
    assert cert.verdict == "Certified"


def _clustered(theta):
    # x' - 0.9 x(t - theta) = 0, B = 0.9 at k and k + 0.001 for k = 1..20
    points = [p for k in range(1, 21) for p in (float(k), k + 0.001)]
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[-0.9]]), ConstantLag(theta))],
        impulses=ImpulseSchedule(points, [[[0.9]]] * len(points), None, 1),
        x0=[1.0],
        horizon=20.5,
    )


@pytest.mark.parametrize("theta", [0.0, 0.05])
def test_certificate_rejects_the_clustered_growing_system(theta):
    spec = _clustered(theta)
    # the solution grows by orders of magnitude over the horizon
    assert abs(solve(spec, StepControl(1e-2)).y_post[-1, 0]) > 1e5
    cert = certify(spec)
    # the paper's margin alone passes: the rate uses the smallest gap
    assert cert.lhs == pytest.approx(0.8991, abs=1e-4)
    assert cert.verdict == "NotCertified"
    # q = Q rho / (1 - gamma) = 0.9 * 0.999 / 0.1
    assert [r for r in cert.reasons if "q =" in r] == [
        "Bohl-Perron margin q = Q max(sup J, rho / (1 - gamma)) = 8.991 "
        "is not < 1"]


def test_certificate_ignores_table_pieces_that_end_before_zero():
    def spec(coef):
        return SystemSpec(
            dim=1, terms=[DelayTerm(coef, ConstantLag(1.0))],
            impulses=ImpulseSchedule.periodic(1.0, [[0.5]], horizon=6.0,
                                              dim=1),
            x0=[1.0], horizon=6.0)

    table = spec(MatrixTable([-1.0, -0.5, 0.3], [[[5.0]], [[0.1]], [[0.2]]]))
    constant = spec(np.array([[0.2]]))
    assert hypotheses_report(table).Q == 0.2
    assert certify(table).lhs == certify(constant).lhs


def test_certificate_ignores_jump_points_beyond_the_horizon():
    # x' + 0.1 x(t - 1) = 0 with B = 0.5 at 1, 2, 3 on H = 3: a point at 9
    # never acts, yet it made rho = 6 and q = 1.2 (NotCertified)
    def spec(points):
        return SystemSpec(
            dim=1, terms=[DelayTerm(np.array([[0.1]]), ConstantLag(1.0))],
            impulses=ImpulseSchedule(points, [[[0.5]]] * len(points), None, 1),
            x0=[1.0], horizon=3.0)

    inside = certify(spec([1.0, 2.0, 3.0]))
    assert inside.verdict == "Certified"
    assert certify(spec([1.0, 2.0, 3.0, 9.0])) == inside


# ---------------------------------------------------------------------------
# rate fitting


def _synthetic_fm(N=2.0, nu=0.7, n_s=6, n_t=20, horizon=10.0):
    s_grid = np.linspace(0.0, horizon / 2, n_s)
    t_grid = np.linspace(0.0, horizon, n_t)
    d = t_grid[:, None] - s_grid[None, :]
    vals = np.where(d >= 0, N * np.exp(-nu * np.maximum(d, 0.0)), 0.0)
    return FundamentalMatrix(s_grid=s_grid, t_grid=t_grid,
                             samples=vals[:, :, None, None])


def test_estimate_rate_recovers_a_synthetic_decay():
    fm = _synthetic_fm()
    rate = estimate_rate(fm, (0.0, 10.0))
    assert rate.nu == pytest.approx(0.7, abs=1e-12)
    assert rate.N == pytest.approx(2.0, rel=1e-12)
    assert rate.residual < 1e-12
    assert rate.fit_slack < 1e-10


def test_estimate_rate_flags_growth_with_a_warning():
    fm = _synthetic_fm(nu=-0.4)
    with pytest.warns(UserWarning, match="nu"):
        rate = estimate_rate(fm, (0.0, 10.0))
    assert rate.nu < 0


def test_estimate_rate_needs_enough_samples():
    fm = _synthetic_fm(n_s=2, n_t=4)
    with pytest.raises(ValueError, match="sample"):
        estimate_rate(fm, (0.0, 0.5))


def test_estimate_rate_rejects_all_zero_windows():
    fm = _synthetic_fm()
    samples = fm.samples.copy()
    samples[:, :, :, :] = 0.0
    zero = FundamentalMatrix(s_grid=fm.s_grid, t_grid=fm.t_grid,
                             samples=samples)
    with pytest.raises(ValueError, match="zero"):
        estimate_rate(zero, (0.0, 10.0))


def test_estimated_rate_is_positive_for_the_stabilized_system():
    spec = _stabilized(horizon=12.0)
    fm = fundamental_grid(spec, [0.0, 2.0, 4.0], np.linspace(0.0, 12.0, 25),
                          StepControl(2e-3))
    rate = estimate_rate(fm, (2.0, 12.0))
    assert rate.nu > 0
    assert rate.n_samples >= 20
