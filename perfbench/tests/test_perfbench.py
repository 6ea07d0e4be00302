"""Self-tests of the benchmark: seeded configs, validation, planted errors.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from impulsedde import load_spec, validate  # noqa: E402
from impulsedde.cli import main  # noqa: E402
from perfbench import checks, configs  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402


def _config_bytes(workload, seed, tmp_path):
    paths = configs.write_configs(configs.build_items(workload, seed),
                                  str(tmp_path / f"{workload}-{seed}"))
    return {name: open(p, "rb").read() for name, p in paths.items()}


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = _config_bytes(workload, 7, tmp_path / "a")
    again = _config_bytes(workload, 7, tmp_path / "b")
    other = _config_bytes(workload, 8, tmp_path / "c")
    assert first == again
    generated = [n for n, item in zip(first, configs.build_items(workload, 7))
                 if item.anchor is None]
    assert generated and all(first[n] != other[n] for n in generated)


@pytest.mark.parametrize("workload", configs.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_config_validates(workload, seed, tmp_path):
    items = configs.build_items(workload, seed)
    paths = configs.write_configs(items, str(tmp_path))
    for item in items:
        spec = load_spec(paths[item.name])
        assert validate(spec) == [], item.name
        if workload == "representation":
            assert not spec.has_frozen(), item.name


def _run(item, path, out):
    for call in item.calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([call[0], path, *call[1:], "--out", str(out)])
        assert code in (0, 2)


def _first(workload, name=None):
    items = configs.build_items(workload, 1)
    return next(i for i in items if name is None and i.anchor is None
                or i.name == name)


def test_trajectory_check_rejects_one_perturbed_value(tmp_path):
    item = _first("trajectory", "t4-n4-frozen")
    path = configs.write_configs([item], str(tmp_path))[item.name]
    _run(item, path, tmp_path)
    spec = load_spec(path)
    dt = item.meta["dt"]
    assert checks.check_trajectory(item, spec, str(tmp_path), dt) == []

    csv_path = tmp_path / "trajectory.csv"
    t, _, kind = checks.read_trajectory(str(csv_path))
    row = 1 + int(checks._sample_rows(t, kind, checks.ORACLE_SAMPLES)[5])
    lines = csv_path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[1] = "%.12e" % (float(cells[1]) * (1.0 + 1e-6) + 1e-6)
    lines[row] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check_trajectory(item, spec, str(tmp_path), dt)


def test_anchor_check_rejects_a_wrong_value(tmp_path):
    item = _first("trajectory", "paper-sec2-destabilize")
    path = configs.write_configs([item], str(tmp_path))[item.name]
    _run(item, path, tmp_path)
    spec = load_spec(path)
    assert checks.check_trajectory(item, spec, str(tmp_path), 1e-3) == []
    csv_path = tmp_path / "trajectory.csv"
    text = csv_path.read_text().replace("2.500000000000e+00,2.625000000000e+00",
                                        "2.500000000000e+00,2.625000010000e+00")
    csv_path.write_text(text)
    assert checks.check_trajectory(item, spec, str(tmp_path), 1e-3)


def test_representation_check_rejects_a_residual_above_tolerance(tmp_path):
    doc = {"target_times": [1.0, 2.0], "residuals": [1e-9, 2e-4],
           "max_residual": 2e-4, "dt": 1e-3}
    (tmp_path / "representation.json").write_text(json.dumps(doc))
    item = _first("representation")
    assert checks.check_representation(item, str(tmp_path), 2)
    doc["residuals"][1] = doc["max_residual"] = 5e-5
    (tmp_path / "representation.json").write_text(json.dumps(doc))
    assert checks.check_representation(item, str(tmp_path), 2) == []


def test_kernel_check_rejects_a_broken_identity(tmp_path):
    item = _first("kernel-sweep", "k5-n3-irregular")
    path = configs.write_configs([item], str(tmp_path))[item.name]
    _run(item, path, tmp_path)
    spec = load_spec(path)
    assert checks.check_kernel(item, spec, str(tmp_path)) == []
    csv_path = tmp_path / "fundamental.csv"
    lines = csv_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines[1:], 1)
               if line.startswith("1.000000000000e+00,1.000000000000e+00,"))
    cells = lines[row].split(",")
    cells[2] = "1.000000001000e+00"  # X_11 on the diagonal t = s
    lines[row] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check_kernel(item, spec, str(tmp_path))


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("item", "i") as root:
        with tracer.span("a", "i") as child:
            pass
    own = self_times(tracer.spans)
    assert own[child.sid] == pytest.approx(child.duration)
    assert own[root.sid] == pytest.approx(root.duration - child.duration)
    assert child.parent == root.sid and root.parent == -1
