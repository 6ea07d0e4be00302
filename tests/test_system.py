"""System model: norms, tables, schedules, validation, hypothesis data."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impulsedde import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    MatrixTable,
    RepresentationInput,
    SystemSpec,
    VectorTable,
    cauchy_apply,
    certify,
    count_impulses,
    evaluate_delay,
    fundamental_grid,
    fundamental_matrix,
    gronwall_bound,
    hypotheses_report,
    mat_norm,
    solve,
    validate,
    vec_norm,
)
from corpus import CORPUS, planar_rotation, scalar_forced


# ---------------------------------------------------------------------------
# norms


def test_vec_norm_is_max_norm():
    assert vec_norm(np.array([1.0, -3.0, 2.0])) == 3.0
    assert vec_norm(np.array([0.0])) == 0.0


def test_mat_norm_is_max_absolute_row_sum():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert mat_norm(m) == 3.0
    assert mat_norm(np.zeros((2, 2))) == 0.0


def test_mat_norm_handles_stacked_input():
    stack = np.array([[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 3.0]]])
    npt.assert_allclose(mat_norm(stack), [2.0, 5.0])


@given(arrays(float, (3, 3), elements=st.floats(-10, 10)),
       arrays(float, (3,), elements=st.floats(-10, 10)))
def test_mat_norm_is_compatible_with_vec_norm(m, x):
    assert vec_norm(m @ x) <= mat_norm(m) * vec_norm(x) * (1 + 1e-12) + 1e-12


@given(arrays(float, (2, 2), elements=st.floats(-5, 5)),
       arrays(float, (2, 2), elements=st.floats(-5, 5)))
def test_mat_norm_is_submultiplicative(a, b):
    assert mat_norm(a @ b) <= mat_norm(a) * mat_norm(b) * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# tables


def test_matrix_table_is_right_continuous_with_left_limits():
    table = MatrixTable([0.0, 1.0], [[[1.0]], [[2.0]]])
    assert table.value(1.0)[0, 0] == 2.0
    assert table.value(1.0, side="left")[0, 0] == 1.0
    assert table.value(0.5)[0, 0] == 1.0


def test_table_extends_by_first_and_last_piece():
    table = VectorTable([0.0, 2.0], [[5.0], [7.0]])
    assert table.value(-3.0)[0] == 5.0
    assert table.value(9.0)[0] == 7.0


def test_tables_are_immutable():
    table = MatrixTable([0.0], [[[1.0]]])
    with pytest.raises(ValueError):
        table.values[0, 0, 0] = 2.0


# ---------------------------------------------------------------------------
# delays and schedules


def test_constant_lag_argument_trails_t():
    term = DelayTerm(np.eye(1), ConstantLag(0.5))
    assert evaluate_delay(term, 2.0) == 1.5


def test_frozen_argument_is_constant_and_guards_domain():
    term = DelayTerm(np.eye(1), FrozenTime(1.0))
    assert evaluate_delay(term, 3.0) == 1.0
    with pytest.raises(ValueError):
        evaluate_delay(term, 0.5)
    # NaN fails the positive domain test t >= c rather than passing a
    # negative one
    with pytest.raises(ValueError):
        evaluate_delay(DelayTerm(np.eye(1), FrozenTime(0.5)), math.nan)


def test_periodic_schedule_expands_to_horizon():
    sched = ImpulseSchedule.periodic(0.5, [[0.9]], horizon=2.0, dim=1)
    npt.assert_allclose(sched.points, [0.5, 1.0, 1.5, 2.0])
    assert sched.matrices.shape == (4, 1, 1)
    assert np.all(sched.offsets == 0.0)


@pytest.mark.parametrize("period, horizon", [
    (5e-324, 1.0),  # horizon / period overflows to inf
    (1e-300, 1.0),  # a count past any array index
    (1e-18, 2.0),   # a count that fits an index, with arrays that do not
])
def test_periodic_schedule_refuses_a_period_too_small_to_expand(period,
                                                                horizon):
    with pytest.raises(ValueError, match=f"too small: period {period!r} "):
        ImpulseSchedule.periodic(period, [[0.5]], horizon=horizon)


@pytest.mark.parametrize("period", [-1.0, 0.0, math.nan])
def test_periodic_schedule_refuses_a_period_that_is_not_positive(period):
    with pytest.raises(ValueError, match=f"must be positive, got {period!r}"):
        ImpulseSchedule.periodic(period, [[0.5]], horizon=10.0)


def test_periodic_schedule_on_a_negative_horizon_has_no_points():
    # validate, not the expansion, refuses the horizon
    sched = ImpulseSchedule.periodic(1.0, [[0.5]], horizon=-3.0)
    assert len(sched) == 0
    assert sched.matrices.shape == (0, 1, 1)


def test_count_impulses_matches_brute_force():
    sched = ImpulseSchedule([0.5, 1.0, 2.5], [[[1.0]]] * 3, None, 1)
    for s, t in [(0.0, 3.0), (0.5, 1.0), (0.6, 2.5), (1.1, 2.4), (2.5, 2.5)]:
        brute = int(np.sum((sched.points >= s) & (sched.points <= t)))
        assert count_impulses(sched, s, t) == brute


def test_count_impulses_rejects_reversed_segment():
    sched = ImpulseSchedule.empty(1)
    with pytest.raises(ValueError):
        count_impulses(sched, 2.0, 1.0)
    two = ImpulseSchedule([1.0, 2.0], [[[0.5]], [[0.5]]], None, 1)
    for s, t in ((math.nan, 1.5), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="s <= t"):
            count_impulses(two, s, t)


# ---------------------------------------------------------------------------
# validation


def test_corpus_specs_are_valid():
    for make in CORPUS.values():
        assert validate(make()) == []


def test_validate_names_bad_coefficient_shape():
    spec = SystemSpec(dim=2, terms=[DelayTerm(np.eye(3), ConstantLag(0.0))])
    assert any("terms[0].coefficient" in v for v in validate(spec))


def test_validate_rejects_negative_lag_and_nonfinite_entries():
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), ConstantLag(-1.0))])
    assert any("delay" in v for v in validate(spec))
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.array([[np.inf]]),
                                              ConstantLag(0.0))])
    assert any("non-finite" in v for v in validate(spec))


def test_validate_rejects_unsorted_impulse_points():
    sched = ImpulseSchedule([2.0, 1.0], [[[1.0]], [[1.0]]], None, 1)
    spec = SystemSpec(dim=1, impulses=sched, horizon=3.0)
    assert any("increasing" in v for v in validate(spec))


def test_validate_rejects_impulse_at_zero():
    sched = ImpulseSchedule([0.0], [[[1.0]]], None, 1)
    spec = SystemSpec(dim=1, impulses=sched)
    assert any("must all be > 0" in v for v in validate(spec))


def test_validate_requires_phi_to_cover_the_lag():
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.eye(1), ConstantLag(1.0))],
        phi=VectorTable([-0.5], [[1.0]]),
        horizon=2.0,
    )
    assert any("phi" in v and "cover" in v for v in validate(spec))


def test_validate_rejects_phi_breaks_at_or_above_zero():
    spec = SystemSpec(
        dim=1,
        terms=[DelayTerm(np.eye(1), ConstantLag(1.0))],
        phi=VectorTable([-1.0, 0.0], [[1.0], [2.0]]),
        horizon=2.0,
    )
    assert any("below 0" in v for v in validate(spec))


def test_validate_rejects_frozen_time_beyond_horizon():
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), FrozenTime(5.0))],
                      horizon=2.0)
    assert any("beyond horizon" in v for v in validate(spec))


def test_validate_rejects_bad_x0_and_bad_horizon():
    assert any("x0" in v for v in validate(SystemSpec(dim=2, x0=[1.0])))
    assert any("horizon" in v
               for v in validate(SystemSpec(dim=1, horizon=-1.0)))


EMPTY_TABLES = [
    ("terms[0].coefficient",
     SystemSpec(dim=1, terms=[DelayTerm(MatrixTable([], np.zeros((0, 1, 1))),
                                        ConstantLag(0.5))])),
    ("forcing", SystemSpec(dim=1, forcing=VectorTable([], np.zeros((0, 1))))),
    ("phi", SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), ConstantLag(0.5))],
                       phi=VectorTable([], np.zeros((0, 1))))),
]


@pytest.mark.parametrize("field, spec", EMPTY_TABLES)
def test_validate_rejects_tables_with_no_pieces(field, spec):
    # an empty table has no value to read anywhere; unchecked, solve fails
    # with an IndexError at its first read
    assert f"{field}: table has no pieces" in validate(spec)
    with pytest.raises(ValueError, match="invalid spec"):
        solve(spec)


@pytest.mark.parametrize("field, spec", EMPTY_TABLES)
def test_stability_layer_validates_first(field, spec):
    reason = "invalid spec: " + "; ".join(validate(spec))
    assert f"{field}: table has no pieces" in reason
    cert = certify(spec)
    assert cert.verdict == "NotCertified" and cert.reasons == (reason,)
    with pytest.raises(ValueError, match="invalid spec"):
        hypotheses_report(spec)
    with pytest.raises(ValueError, match="invalid spec"):
        gronwall_bound(spec, 0.0, 0.5)


@pytest.mark.parametrize("field, spec", EMPTY_TABLES)
def test_every_entry_point_raises_the_one_gate_message(field, spec):
    message = "invalid spec: " + "; ".join(validate(spec))
    for call in (lambda: solve(spec),
                 lambda: fundamental_matrix(spec, 0.0),
                 lambda: fundamental_grid(spec, [0.0], [0.5]),
                 lambda: cauchy_apply(spec, None, 0.5),
                 lambda: RepresentationInput(spec, (0.5,)),
                 lambda: hypotheses_report(spec),
                 lambda: gronwall_bound(spec, 0.0, 0.5)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


LAG_ONE = [DelayTerm(np.eye(1), ConstantLag(1.0))]
MALFORMED_TABLES = [
    # unchecked, each of these reaches solve: two breaks and one value make
    # its first read past 0.5 raise IndexError
    ("forcing", SystemSpec(dim=1, forcing=VectorTable([0.0, 0.5], [[1.0]]))),
    # one break and two values: the second value is silently ignored
    ("phi", SystemSpec(dim=1, terms=LAG_ONE,
                       phi=VectorTable([-1.0], [[1.0], [2.0]]))),
    # an infinite break: every read snaps to it, so x' + 5x = 0 is solved
    ("terms[0].coefficient",
     SystemSpec(dim=1, terms=[DelayTerm(MatrixTable([0.0, np.inf],
                                                    [[[1.0]], [[5.0]]]),
                                        ConstantLag(0.0))], x0=[1.0])),
    # a NaN break compares false both ways, so an order check misses it
    ("phi", SystemSpec(dim=1, terms=LAG_ONE,
                       phi=VectorTable([-1.0, np.nan], [[1.0], [2.0]]))),
]


@pytest.mark.parametrize("field, spec", MALFORMED_TABLES,
                         ids=["count-forcing", "count-phi", "inf-break",
                              "nan-break"])
def test_the_gate_refuses_malformed_tables_naming_the_field(
        field, spec, tmp_path, capsys):
    from impulsedde.cli import dump_spec, main
    bad = validate(spec)
    assert any(v.startswith(f"{field}: ") for v in bad)
    with pytest.raises(ValueError) as err:
        solve(spec)
    assert str(err.value) == "invalid spec: " + "; ".join(bad)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dump_spec(spec)), encoding="utf-8")
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 4
    assert f": {field}" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# hypothesis data


def test_hypotheses_report_on_planar_corpus_spec():
    spec = planar_rotation()
    rep = hypotheses_report(spec)
    # M: the rotation jump has row sums 0.5, the second jump 0.7; sup is 0.7
    assert rep.M == pytest.approx(0.7)
    # Q: sum of the two coefficient norms, both constant in time
    assert rep.Q == pytest.approx(0.8 + 0.4)
    assert rep.delta == 0.3
    assert math.isfinite(rep.I_hat) and rep.I_hat > 0


def test_hypotheses_report_flags_frozen_terms_as_unbounded_delay():
    spec = SystemSpec(dim=1, terms=[DelayTerm(np.eye(1), FrozenTime(0.0))],
                      horizon=2.0)
    assert hypotheses_report(spec).delta == math.inf


def test_hypotheses_report_density_approaches_inverse_period():
    spec = SystemSpec(
        dim=1,
        impulses=ImpulseSchedule.periodic(0.5, [[1.0]], horizon=50.0, dim=1),
        horizon=50.0,
    )
    rep = hypotheses_report(spec)
    assert rep.I_hat == pytest.approx(2.0, rel=0.05)


def test_hypotheses_q_takes_the_sup_over_table_pieces():
    table = MatrixTable([0.0, 1.0], [[[0.5]], [[-2.0]]])
    spec = SystemSpec(dim=1, terms=[DelayTerm(table, ConstantLag(0.0))],
                      horizon=3.0)
    assert hypotheses_report(spec).Q == pytest.approx(2.0)


def _i_hat_by_pairs(pts, w):
    # the reference: every pair a <= b of impulse points, one at a time
    I_hat = 0.0
    for a in range(len(pts)):
        for b in range(a, len(pts)):
            length = max(pts[b] - pts[a], w)
            I_hat = max(I_hat, (b - a + 1) / length)
    return I_hat


@settings(max_examples=50)
@given(st.lists(st.floats(0.01, 12.0), max_size=40, unique=True),
       st.one_of(st.none(), st.floats(0.01, 10.0)))
def test_i_hat_equals_the_pairwise_enumeration(points, window):
    sched = ImpulseSchedule(sorted(points), [[[1.0]]] * len(points), None, 1)
    spec = SystemSpec(dim=1, impulses=sched, horizon=10.0)
    pts = sched.points[sched.points <= spec.horizon]
    w = spec.horizon / 4.0 if window is None else window
    assert hypotheses_report(spec, window).I_hat == _i_hat_by_pairs(pts, w)


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
def test_hypotheses_report_rejects_a_window_not_positive_and_finite(window):
    # a window of nan or inf read I_hat = 0.0, and one of 0 or less read
    # inf with a divide warning
    with pytest.raises(ValueError, match="window must be positive and finite"):
        hypotheses_report(planar_rotation(), window)


@settings(max_examples=25)
@given(st.lists(st.floats(0.1, 9.9), min_size=1, max_size=6, unique=True))
def test_count_is_additive_over_adjacent_open_closed_segments(points):
    pts = sorted(points)
    sched = ImpulseSchedule(pts, [[[1.0]]] * len(pts), None, 1)
    # half-open additivity: i(0, u] + i(u, t] = i(0, t] for any split u
    for u in (2.5, 5.0, 7.5):
        left = count_impulses(sched, 0.0, u)
        right = count_impulses(sched, u, 10.0)
        overlap = int(np.sum(np.isclose(sched.points, u)))
        total = count_impulses(sched, 0.0, 10.0)
        assert left + right - overlap == total
