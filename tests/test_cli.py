"""Command line: schema, exit codes, artifacts, determinism, scenarios."""

import argparse
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    MatrixTable,
    SystemSpec,
    VectorTable,
    dump_spec,
    load_spec,
    run,
    validate,
)
from impulsedde.cli import (
    BUILTIN_SCENARIOS,
    RunConfig,
    SchemaError,
    _build_parser,
    _parse_grid,
    _parse_spec,
    main,
)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj,
                    encoding="utf-8")
    return str(path)


MINIMAL = {
    "dim": 1,
    "horizon": 2.0,
    "terms": [{"coefficient": [[0.4]], "lag": 0.5}],
    "impulses": {"points": [1.0], "matrices": [[[0.5]]], "offsets": [[0.1]]},
    "x0": [1.0],
}


# ---------------------------------------------------------------------------
# schema


def test_load_spec_parses_a_minimal_config(tmp_path):
    spec = load_spec(_write(tmp_path, "s.json", MINIMAL))
    assert isinstance(spec, SystemSpec)
    assert validate(spec) == []
    assert spec.horizon == 2.0
    assert len(spec.impulses) == 1


def test_builtin_names_resolve_without_files():
    for name in BUILTIN_SCENARIOS:
        assert validate(load_spec(name)) == []


def test_unknown_keys_are_schema_errors_with_paths():
    with pytest.raises(SchemaError, match="lag: unknown key"):
        _parse_spec({"dim": 1, "lag": 1.0})
    with pytest.raises(SchemaError, match=r"terms\[0\].weird"):
        _parse_spec({"dim": 1, "terms": [{"coefficient": [[1.0]],
                                          "lag": 0.0, "weird": 1}]})


def test_wrong_shapes_are_schema_errors_naming_the_field():
    with pytest.raises(SchemaError, match=r"terms\[0\].coefficient"):
        _parse_spec({"dim": 2,
                     "terms": [{"coefficient": [[1.0]], "lag": 0.0}]})
    with pytest.raises(SchemaError, match="x0"):
        _parse_spec({"dim": 2, "x0": [1.0]})


def test_terms_need_exactly_one_delay_kind():
    with pytest.raises(SchemaError, match="exactly one"):
        _parse_spec({"dim": 1, "terms": [{"coefficient": [[1.0]]}]})
    with pytest.raises(SchemaError, match="exactly one"):
        _parse_spec({"dim": 1, "terms": [{"coefficient": [[1.0]],
                                          "lag": 0.0, "frozen": 0.0}]})


def test_booleans_are_not_numbers():
    with pytest.raises(SchemaError, match="number"):
        _parse_spec({"dim": 1, "horizon": True})


def test_horizon_override_reexpands_periodic_schedules():
    spec = load_spec("paper-sec5-stabilize")
    assert len(spec.impulses) == 40
    longer = load_spec("paper-sec5-stabilize", horizon=80.0)
    assert len(longer.impulses) == 80
    assert longer.horizon == 80.0


def test_dump_spec_round_trips_to_a_fixed_point():
    for name in BUILTIN_SCENARIOS:
        first = dump_spec(load_spec(name))
        second = dump_spec(_parse_spec(json.loads(json.dumps(first))))
        assert first == second


def test_dump_spec_round_trips_tables_frozen_terms_and_offsets(tmp_path):
    spec = SystemSpec(
        dim=2,
        terms=[DelayTerm(MatrixTable([0.0, 0.7], [[[0.3, 0.1], [0.0, 0.2]],
                                                  [[-0.4, 0.0], [0.5, 0.1]]]),
                         ConstantLag(0.5)),
               DelayTerm(np.array([[0.1, 0.0], [0.2, -0.3]]),
                         FrozenTime(0.25))],
        impulses=ImpulseSchedule([0.4, 1.1],
                                 [np.eye(2) * 0.5, [[0.0, 1.0], [1.0, 0.0]]],
                                 [[0.1, -0.2], [0.0, 0.3]], 2),
        forcing=VectorTable([0.0, 0.9], [[0.1, 0.2], [-0.3, 0.05]]),
        phi=VectorTable([-0.5, -0.2], [[1.0, 0.0], [0.5, -0.5]]),
        x0=[1.0, -0.5], horizon=1.5)
    doc = dump_spec(spec)
    again = load_spec(_write(tmp_path, "s.json", doc))
    assert dump_spec(again) == doc
    for ours, theirs in zip(spec.terms, again.terms):
        assert ours.delay == theirs.delay
    table = again.terms[0].coefficient
    assert isinstance(table, MatrixTable)
    np.testing.assert_array_equal(table.values, spec.terms[0].coefficient.values)
    np.testing.assert_array_equal(again.impulses.offsets, spec.impulses.offsets)
    for ours, theirs in ((spec.forcing, again.forcing), (spec.phi, again.phi)):
        assert isinstance(theirs, VectorTable)
        np.testing.assert_array_equal(theirs.breaks, ours.breaks)
        np.testing.assert_array_equal(theirs.values, ours.values)


def test_dump_spec_round_trips_constant_forcing_and_phi(tmp_path):
    spec = SystemSpec(dim=2, terms=[DelayTerm(np.eye(2) * 0.3,
                                              ConstantLag(0.5))],
                      forcing=[0.1, -0.2], phi=[0.3, 0.4], x0=[1.0, 0.0])
    doc = dump_spec(spec)
    assert doc["forcing"] == [0.1, -0.2] and doc["phi"] == [0.3, 0.4]
    again = load_spec(_write(tmp_path, "s.json", doc))
    assert dump_spec(again) == doc
    np.testing.assert_array_equal(again.forcing, spec.forcing)
    np.testing.assert_array_equal(again.phi, spec.phi)


def test_grid_parser_handles_endpoints_and_errors():
    np.testing.assert_allclose(_parse_grid("0:2:0.5", "--t-grid"),
                               [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(_parse_grid("0:1:0.4", "--t-grid"),
                               [0.0, 0.4, 0.8])
    with pytest.raises(SchemaError):
        _parse_grid("1:2", "--t-grid")
    with pytest.raises(SchemaError):
        _parse_grid("2:1:0.5", "--t-grid")


# ---------------------------------------------------------------------------
# exit codes


def test_missing_and_malformed_configs_exit_3(tmp_path):
    assert run(RunConfig("certify", str(tmp_path / "nope.json"))) == 3
    bad = _write(tmp_path, "bad.json", "{not json")
    assert run(RunConfig("certify", bad)) == 3


def test_schema_violations_exit_4(tmp_path):
    cfg = dict(MINIMAL)
    cfg["extra"] = 1
    assert run(RunConfig("simulate", _write(tmp_path, "s.json", cfg),
                         out=str(tmp_path))) == 4
    assert not (tmp_path / "trajectory.csv").exists()


def _periodic(period, matrix=((0.5,),)):
    return dict(MINIMAL, impulses={"periodic": {"period": period,
                                                "matrix": matrix}})


@pytest.mark.parametrize("cfg, field", [
    # json reads NaN and Infinity, so the parser must refuse them
    (_periodic(math.nan), "impulses.periodic.period"),
    (_periodic(math.inf), "impulses.periodic.period"),
    (dict(MINIMAL, terms=[{"lag": 0.5, "coefficient": {
        "breaks": [0.0, math.inf], "values": [[[0.4]], [[5.0]]]}}]),
     "terms[0].coefficient.breaks[1]"),
    (dict(MINIMAL, phi={"breaks": [-1.0, math.nan], "values": [[1.0], [2.0]]}),
     "phi.breaks[1]"),
    # shape rules belong to validate and arrive as "spec: <field>: ..."
    (dict(MINIMAL, forcing={"breaks": [0.0, 0.5], "values": [[1.0]]}),
     "spec: forcing"),
    (dict(MINIMAL, forcing={"breaks": [0.5, 0.0], "values": [[1.0], [2.0]]}),
     "spec: forcing"),
    (dict(MINIMAL, dim=2, x0=[1.0, 0.0], terms=[],
          impulses={"points": [1.0], "matrices": [[[0.5, 0.0, 0.0, 0.5]]]}),
     "spec: impulses.matrices"),
    (dict(_periodic(1.0), dim=2, x0=[1.0, 0.0], terms=[]),
     "spec: impulses.matrices"),
    (dict(MINIMAL, x0=[[1.0], [2.0, 3.0]]), "x0"),
    # horizon / period overflows to inf, or is far past any array index
    (_periodic(5e-324), "impulses.periodic.period: too small"),
    (_periodic(1e-300), "impulses.periodic.period: too small"),
    # a count that fits an index, but whose arrays would not fit in memory
    (_periodic(1e-18), "impulses.periodic.period: too small"),
    # the positive-period rule is the library's, in `periodic_count`
    (_periodic(0), "impulses.periodic.period: must be positive"),
    (_periodic(-1.0), "impulses.periodic.period: must be positive"),
])
def test_configs_the_gate_refuses_exit_4_naming_the_field(cfg, field, tmp_path,
                                                          capsys):
    path = _write(tmp_path, "s.json", cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 4
    assert f"invalid config: {field}" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_csv_rows_format_edge_values_as_numpy_floats(tmp_path):
    from impulsedde import cli

    values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308,
              1.7976931348623157e308, 1.0 / 3.0]
    table = np.array(values).reshape(-1, 2)
    path = str(tmp_path / "t.csv")
    cli._write_csv(path, ["a", "b"], table)
    want = ["a,b"] + [",".join("%.12e" % v for v in row) for row in table]
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == "\r\n".join(want) + "\r\n"


def _encoded(values) -> list:
    """The strings `_encode_e12` gives for `values`."""
    from impulsedde import cli

    fields = cli._encode_e12(np.asarray(values, dtype=float))
    fields[:, 21] = ord(",")
    return fields.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def _bits(pattern: int) -> float:
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_bits),
                min_size=1, max_size=40))
def test_encoder_matches_python_on_any_float(values):
    assert _encoded(values) == ["%.12e" % v for v in values]


def test_encoder_matches_python_on_a_seeded_corpus(monkeypatch):
    from impulsedde import cli

    rng = np.random.default_rng(12)
    n = 40000
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate((
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
        (rng.integers(0, 10**13, n) + 0.5) / 10.0 ** rng.integers(0, 16, n),
        rng.integers(0, 10**13, n).astype(float),
        -rng.integers(0, 10**13, n).astype(float),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308]))
    fallback = []

    def python_e12(vals):
        fallback.extend(vals)
        return ["%.12e" % v for v in vals]

    monkeypatch.setattr(cli, "_python_e12", python_e12)
    assert len(values) > 200000
    assert _encoded(values) == ["%.12e" % v for v in values.tolist()]
    # both paths ran: Python formats the non-finite numbers, subnormals,
    # |e| > 290 and mantissas near a half (the exact halves), and about 1 %
    # of the ordinary numbers
    assert any(map(math.isnan, fallback)) and 5e-324 in fallback
    assert len(fallback) < 0.4 * len(values)
    ordinary = values[n:2 * n]
    ordinary = ordinary[np.abs(np.log10(np.abs(ordinary))) < 290]
    share = np.isin(ordinary, fallback).mean()
    assert 0.002 < share < 0.02


def _rowwise_csv(path, header, table, text=None):
    # the reference writer: one Python `%` per row
    fmt = ",".join(["%.12e"] * table.shape[1])
    rows = (fmt % tuple(row) for row in table.tolist())
    if text is not None:
        rows = (f"{row},{label}" for row, label in zip(rows, text))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


@pytest.mark.parametrize("rows, cols, labels, block", [
    (1000, 3, None, 64), (1000, 3, "S", 64), (999, 5, object, 64),
    (0, 2, "S", 64), (1, 2, "S", 64), (1, 4, None, 64), (0, 3, None, 64),
    (40000, 2, object, None)])
def test_csv_files_equal_the_rowwise_writer(rows, cols, labels, block,
                                            tmp_path, monkeypatch):
    from impulsedde import cli

    # a small block gives several blocks and a remainder on small tables
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    assert rows * cols in (0, cols) or rows * cols > 3 * cli._CSV_BLOCK
    rng = np.random.default_rng(rows + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -120, 120, (rows, cols))
    flat = table.reshape(-1)
    flat[::7] = np.resize([math.inf, -math.inf, math.nan, -0.0, 1e-300,
                           -1e300, 5e-324], len(flat[::7]))
    text = np.array(["0", "left", "right"])[rng.integers(0, 3, rows)]
    header = [f"c{j}" for j in range(cols)] + ["is_jump"] * (labels is not None)
    cli._write_csv(str(tmp_path / "got.csv"), header, table,
                   None if labels is None else text.astype(labels))
    _rowwise_csv(str(tmp_path / "want.csv"), header, table,
                 None if labels is None else text)
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_csv_writer_holds_one_block_not_the_file(tmp_path):
    from impulsedde import cli

    table = np.random.default_rng(4).standard_normal((100000, 3))
    text = np.full(len(table), b"0", dtype="S5")
    text[::50], text[1::50] = b"left", b"right"
    cli._write_csv(str(tmp_path / "warm.csv"), ["t"], table[:10])
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "t.csv"), ["t", "x1", "x2", "is_jump"],
                       table, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is 6.2 MB; the row-wise writer peaks at 16 MB here
    assert peak < 6e6


def test_a_step_too_fine_to_allocate_exits_1_naming_dt(tmp_path, capsys):
    assert main(["simulate", "paper-sec5-stabilize", "--dt", "1e-300",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: dt = 1e-300 gives 4e+301 grid steps" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_out_of_memory_exits_1_with_a_message(tmp_path, monkeypatch, capsys):
    from impulsedde import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setattr(cli, "fundamental_grid", exhausted)
    path = _write(tmp_path, "s.json", MINIMAL)
    assert main(["fundamental", path, "--out", str(tmp_path)]) == 1
    assert "error: out of memory: Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "fundamental.csv").exists()


def test_numerical_blowup_exits_5(tmp_path):
    cfg = {"dim": 1, "horizon": 1.0,
           "terms": [{"coefficient": [[-1e8]], "lag": 0.0}], "x0": [1.0]}
    path = _write(tmp_path, "blow.json", cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(RunConfig("simulate", path, out=str(tmp_path))) == 5
    assert not (tmp_path / "trajectory.csv").exists()


def test_oversized_dense_sweep_exits_1(tmp_path, monkeypatch, capsys):
    # a dense sweep over its memory budget is refused before it allocates
    from impulsedde import integrate

    sweep = integrate._batch_columns
    monkeypatch.setattr(integrate, "_batch_columns",
                        lambda *a, **k: sweep(*a, **k, mem_cap=1000))
    path = _write(tmp_path, "s.json", MINIMAL)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 1
    assert "more than the memory budget of 1000 bytes" in \
        capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_oversized_fundamental_sweep_exits_1(tmp_path, monkeypatch, capsys):
    # a sweep without dense output is refused as a dense one is
    from impulsedde import integrate

    sweep = integrate._batch_columns
    monkeypatch.setattr(integrate, "_batch_columns",
                        lambda *a, **k: sweep(*a, **k, mem_cap=1000))
    path = _write(tmp_path, "s.json", MINIMAL)
    assert main(["fundamental", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: sweep needs about" in err
    assert "more than the memory budget of 1000 bytes" in err
    assert not (tmp_path / "fundamental.csv").exists()


def _rate_sign(**fields):
    return dict({"kind": "rate-sign", "expect": "positive",
                 "s_grid": "0:1:0.5", "t_grid": "0:2:0.25",
                 "window": "0.5:2", "dt": 0.01}, **fields)


def _norm_constant(**fields):
    return dict({"kind": "norm-constant-on", "from": 0.0, "to": 0.5,
                 "value": 1.0, "tol": 1.0}, **fields)


@pytest.mark.parametrize("check, field", [
    (_norm_constant(samples="x"), "checks[0].samples"),
    (_norm_constant(samples=2.5), "checks[0].samples"),
    (_norm_constant(samples=0), "checks[0].samples"),
    (_norm_constant(samples=True), "checks[0].samples"),
    (_rate_sign(s_grid=3), "checks[0].s_grid"),
    (_rate_sign(t_grid="0:inf:1"), "checks[0].t_grid"),
    (_rate_sign(window=5), "checks[0].window"),
    (_rate_sign(window="0.5:nan"), "checks[0].window"),
    ({"kind": "certified", "expect": "yes"}, "checks[0].expect"),
    ({"kind": []}, "checks[0]"),
])
def test_malformed_scenario_checks_exit_4_naming_the_field(
        check, field, tmp_path, capsys):
    path = _write(tmp_path, "sc.json", {"spec": MINIMAL, "checks": [check]})
    assert run(RunConfig("scenario", path, dt=0.01)) == 4
    assert f"invalid config: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--t-grid", "0:inf:1"], "--t-grid"),
    (["--s-grid", "nan:1:0.5"], "--s-grid"),
    (["--t-grid=-1e308:1e308:1"], "--t-grid"),
    (["--window", "0:inf"], "--window"),
    (["--window", "1"], "--window"),
    # more points than an array can hold
    (["--s-grid", "0:1:1e-300"], "--s-grid"),
])
def test_malformed_grid_and_window_flags_exit_4(flags, field, tmp_path,
                                                capsys):
    path = _write(tmp_path, "s.json", MINIMAL)
    assert main(["estimate-rate", path, "--dt", "0.01", *flags,
                 "--out", str(tmp_path)]) == 4
    assert f"invalid config: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "rate.json").exists()


def test_a_non_finite_horizon_flag_exits_4(tmp_path, capsys):
    assert main(["certify", "paper-sec5-stabilize", "--horizon", "inf",
                 "--out", str(tmp_path)]) == 4
    assert "invalid config: --horizon:" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_a_negative_horizon_on_a_periodic_schedule_exits_4(tmp_path, capsys):
    # the periodic schedule expands to no points, and validate names the
    # horizon, as for a config without one
    assert main(["simulate", "paper-sec2-destabilize", "--horizon", "-1",
                 "--out", str(tmp_path)]) == 4
    assert ("invalid config: spec: horizon: must be positive and finite, "
            "got -1.0") in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_certify_exit_codes_track_the_verdict(tmp_path):
    assert run(RunConfig("certify", "paper-sec5-stabilize",
                         out=str(tmp_path))) == 0
    assert run(RunConfig("certify", "paper-sec2-destabilize",
                         out=str(tmp_path))) == 2


def test_certify_exits_4_on_a_config_that_fails_validate(tmp_path):
    # phi covers [-0.5, 0) but the lag reads down to -1
    cfg = dict(MINIMAL, terms=[{"coefficient": [[0.4]], "lag": 1.0}],
               phi={"breaks": [-0.5], "values": [[1.0]]})
    path = _write(tmp_path, "s.json", cfg)
    assert run(RunConfig("simulate", path, out=str(tmp_path))) == 4
    assert run(RunConfig("certify", path, out=str(tmp_path))) == 4
    assert not (tmp_path / "certificate.json").exists()


# ---------------------------------------------------------------------------
# artifacts


def test_trajectory_csv_has_sided_rows_at_jumps(tmp_path):
    path = _write(tmp_path, "s.json", MINIMAL)
    assert run(RunConfig("simulate", path, dt=0.05, out=str(tmp_path))) == 0
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "is_jump"]
    sides = [r[2] for r in rows[1:]]
    assert sides.count("left") == 1 and sides.count("right") == 1
    k = sides.index("left") + 1
    t_left, x_left = float(rows[k][0]), float(rows[k][1])
    t_right, x_right = float(rows[k + 1][0]), float(rows[k + 1][1])
    assert t_left == t_right == 1.0
    assert x_right == pytest.approx(0.5 * x_left + 0.1, abs=1e-12)


def test_trajectory_csv_is_rfc4180_crlf(tmp_path):
    path = _write(tmp_path, "s.json", MINIMAL)
    run(RunConfig("simulate", path, dt=0.5, out=str(tmp_path)))
    raw = (tmp_path / "trajectory.csv").read_bytes()
    assert b"\r\n" in raw
    assert raw.count(b"\r\n") == raw.count(b"\n")


def test_fundamental_csv_matches_library_values(tmp_path):
    from impulsedde import StepControl, fundamental_grid
    path = _write(tmp_path, "s.json", MINIMAL)
    assert run(RunConfig("fundamental", path, dt=0.01, out=str(tmp_path),
                         s_grid="0:1:0.5", t_grid="0:2:1", tight=True)) == 0
    with open(tmp_path / "fundamental.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "s", "X_1_1", "bound"]
    fm = fundamental_grid(load_spec(path), [0.0, 0.5, 1.0], [0.0, 1.0, 2.0],
                          StepControl(0.01))
    for row in rows[1:]:
        t, s, x, bound = (float(v) for v in row)
        assert x == pytest.approx(float(fm.at(t, s)[0, 0]), abs=1e-12)
        if t >= s:
            assert abs(x) <= bound + 1e-12


def test_verify_representation_writes_residual_json(tmp_path):
    path = _write(tmp_path, "s.json", MINIMAL)
    assert run(RunConfig("verify-representation", path, dt=2e-3,
                         out=str(tmp_path), t_grid="0:2:0.5")) == 0
    doc = json.loads((tmp_path / "representation.json").read_text())
    assert list(doc) == ["target_times", "residuals", "max_residual", "dt"]
    assert doc["target_times"] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert doc["max_residual"] == max(doc["residuals"])
    assert doc["max_residual"] < 1e-6


def test_certificate_json_maps_nan_to_null(tmp_path):
    cfg = {"dim": 1, "horizon": 3.0,
           "terms": [{"coefficient": [[0.2]], "lag": 1.0}],
           "impulses": {"periodic": {"period": 1.0, "matrix": [[1.0]]}},
           "x0": [1.0]}
    path = _write(tmp_path, "s.json", cfg)
    assert run(RunConfig("certify", path, out=str(tmp_path))) == 2
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert list(doc) == ["gamma", "zeta", "rho", "alpha", "lhs", "delta",
                         "verdict", "reasons"]
    assert doc["lhs"] is None
    assert doc["verdict"] == "NotCertified"
    assert doc["reasons"]


def test_estimate_rate_writes_fit_json(tmp_path):
    assert run(RunConfig("estimate-rate", "paper-sec5-stabilize",
                         horizon=12.0, dt=4e-3, out=str(tmp_path),
                         s_grid="0:4:2", t_grid="0:12:0.5",
                         window="2:12")) == 0
    doc = json.loads((tmp_path / "rate.json").read_text())
    assert list(doc) == ["N", "nu", "window", "residual", "n_samples"]
    assert doc["nu"] > 0
    assert doc["window"] == [2.0, 12.0]


def test_estimate_rate_default_window_takes_rho_up_to_the_horizon(tmp_path):
    # gaps 1 and 1.5 up to the horizon 8; the point at 9 never acts, and
    # counting it would make rho = 5.5 and the window [8, 8]
    cfg = {"dim": 1, "horizon": 8.0,
           "terms": [{"coefficient": [[0.3]], "lag": 1.0}],
           "impulses": {"points": [1.0, 2.0, 3.5, 9.0],
                        "matrices": [[[0.5]]] * 4},
           "x0": [1.0]}
    path = _write(tmp_path, "s.json", cfg)
    assert run(RunConfig("estimate-rate", path, dt=0.01,
                         out=str(tmp_path))) == 0
    doc = json.loads((tmp_path / "rate.json").read_text())
    assert doc["window"] == [3.0, 8.0]


def test_fundamental_restarts_past_the_last_t_exit_0(tmp_path):
    # s = 6 comes after every t: its column is zero
    assert main(["fundamental", "paper-sec5-stabilize", "--dt", "0.01",
                 "--s-grid", "0:6:3", "--t-grid", "0:4:1",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fundamental.csv", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 5 * 3
    assert all(x == 0.0 for t, s, x in rows if s == 6.0)


def test_fundamental_restarts_all_past_the_last_t_exit_0(tmp_path):
    # s = 5 and 6 come after every t: every column is zero
    assert main(["fundamental", "paper-sec5-stabilize", "--dt", "0.01",
                 "--s-grid", "5:6:1", "--t-grid", "0:4:1",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fundamental.csv", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 5 * 2
    assert all(x == 0.0 for t, s, x in rows)


def test_fundamental_default_grids_are_21_by_5(tmp_path):
    path = _write(tmp_path, "s.json", MINIMAL)
    assert run(RunConfig("fundamental", path, dt=0.01,
                         out=str(tmp_path))) == 0
    with open(tmp_path / "fundamental.csv", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 21 * 5
    ts = sorted({row[0] for row in rows})
    ss = sorted({row[1] for row in rows})
    np.testing.assert_allclose(ts, np.linspace(0.0, 2.0, 21), atol=1e-12)
    np.testing.assert_allclose(ss, np.linspace(0.0, 1.0, 5), atol=1e-12)


def test_outputs_are_deterministic(tmp_path):
    path = _write(tmp_path, "s.json", MINIMAL)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(RunConfig("simulate", path, dt=0.02, out=str(out))) == 0
        assert run(RunConfig("verify-representation", path, dt=0.02,
                             out=str(out))) == 0
    assert (a / "trajectory.csv").read_bytes() == \
        (b / "trajectory.csv").read_bytes()
    assert (a / "representation.json").read_bytes() == \
        (b / "representation.json").read_bytes()


# ---------------------------------------------------------------------------
# scenarios


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_builtin_scenarios_pass_their_checks(name, tmp_path, capsys):
    assert run(RunConfig("scenario", name)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "all" in out and "passed" in out


def test_scenario_failures_are_reported_and_nonzero(tmp_path):
    doc = {
        "description": "a check that cannot hold",
        "spec": MINIMAL,
        "checks": [{"kind": "abs-value-at", "t": 0.0, "value": 99.0,
                    "tol": 1e-9}],
    }
    path = _write(tmp_path, "sc.json", doc)
    assert run(RunConfig("scenario", path)) == 1


def test_scenario_honours_the_horizon_override(capsys):
    # the check at t = 2.5 lies past the horizon 2
    assert main(["scenario", "paper-sec2-destabilize", "--horizon", "2",
                 "--dt", "0.01"]) == 1
    assert "horizon" in capsys.readouterr().err


def test_scenario_rejects_unknown_check_kinds(tmp_path):
    doc = {"spec": MINIMAL, "checks": [{"kind": "nope"}]}
    path = _write(tmp_path, "sc.json", doc)
    assert run(RunConfig("scenario", path)) == 4


# ---------------------------------------------------------------------------
# argument parsing


def test_main_runs_certify_end_to_end(tmp_path, capsys):
    code = main(["certify", "paper-sec5-stabilize", "--out", str(tmp_path)])
    assert code == 0
    assert "Certified" in capsys.readouterr().out
    assert (tmp_path / "certificate.json").exists()


def test_main_passes_grids_and_flags_through(tmp_path):
    code = main(["fundamental", "paper-sec5-stabilize", "--horizon", "4",
                 "--dt", "0.01", "--s-grid", "0:2:1", "--t-grid", "0:4:2",
                 "--tight", "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "fundamental.csv").read_text().splitlines()[0]
    assert header.rstrip() == "t,s,X_1_1,bound"


def test_two_main_calls_build_one_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "impulsedde":
            built.append(self)
        init(self, *args, **kwargs)

    _build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    missing = str(tmp_path / "missing.json")
    outputs = []
    for _ in range(2):
        assert main(["certify", missing]) == 3
        for argv in (["--help"], ["simulate", missing, "--nope"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            outputs.append((argv[0], exit_info.value.code,
                            capsys.readouterr()))
    assert len(built) == 1
    # the reused parser prints the same help and usage errors
    assert outputs[:2] == outputs[2:]
    assert [code for _, code, _ in outputs[:2]] == [0, 2]
    assert outputs[0][2].out.startswith("usage: impulsedde ")
    assert "unrecognized arguments: --nope" in outputs[1][2].err


def test_estimate_rate_prints_its_warning_as_one_fixed_line(tmp_path,
                                                             capsys):
    assert main(["estimate-rate", "paper-sec2-destabilize",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: empirical rate nu = -0.567181 <= 0: "
                            "no decay observed\n")
    assert captured.out.startswith("wrote ")
