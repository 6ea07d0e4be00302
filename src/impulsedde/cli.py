"""Command-line front end.

Subcommands map one-to-one onto the library workflows:

    simulate              trajectory CSV (left/right rows at jumps)
    fundamental           X(t, s) samples on a product grid, CSV
    verify-representation variation-of-constants residuals, JSON
    certify               stability certificate, JSON; exit 0/2
    estimate-rate         exponential-rate fit, JSON
    scenario              scripted pipeline vs. stored expectations

System configs are strict JSON; the parser checks their structure only
(unknown keys, non-finite numbers and ragged arrays are errors naming the
field) and `validate` every rule on their values.  Three builtin scenario
names resolve to packaged configs.  CSV artifacts are RFC-4180 with a
header row and numbers byte for byte as Python's "%.12e", encoded by numpy
in blocks of rows (`_encode_e12`); JSON artifacts have a fixed key order
and map non-finite numbers to null.
Exit codes: 0 success/Certified, 2 NotCertified, 3 unreadable config,
4 schema or validation failure, 5 numerical blow-up, 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .system import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    MatrixTable,
    SystemSpec,
    VectorTable,
    periodic_count,
    schedule_gaps,
    validate,
    vec_norm,
)
from .integrate import (
    NumericalError,
    StepControl,
    fundamental_grid,
    solve,
)
from .represent import representation_residuals
from .stability import certify, estimate_rate, gronwall_grid

__all__ = [
    "RunConfig",
    "load_spec",
    "dump_spec",
    "run",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_UNREADABLE = 3
EXIT_SCHEMA = 4
EXIT_NUMERICAL = 5

BUILTIN_SCENARIOS = (
    "paper-sec2-destabilize",
    "paper-sec4-frozen",
    "paper-sec5-stabilize",
)


class SchemaError(ValueError):
    """Config rejected; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"{self.path}: {message}")


# ---------------------------------------------------------------------------
# strict config parsing


def _check_keys(obj, path: str, required, optional):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key '{key}'")


def _positive_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise SchemaError(path, "expected a positive integer")
    return x


def _num(x, path: str) -> float:
    # json reads NaN and Infinity, and bool is an int
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or not math.isfinite(x):
        raise SchemaError(path, "expected a finite number")
    return float(x)


def _array(x, path: str, depth: int) -> np.ndarray:
    """A rectangular array of finite numbers, nested `depth` lists deep."""

    def numbers(x, path, depth):
        if depth == 0:
            return _num(x, path)
        if not isinstance(x, list):
            raise SchemaError(path, "expected an array")
        return [numbers(v, f"{path}[{i}]", depth - 1) for i, v in enumerate(x)]

    values = numbers(x, path, depth)
    try:
        return np.array(values, dtype=float)
    except ValueError:  # numpy refuses ragged nesting
        raise SchemaError(path, "expected a rectangular array") from None


def _table_or_constant(x, path: str, depth: int, table):
    """A constant array nested `depth` deep, or a `table` object with
    "breaks" and one such array per break in "values"."""
    if not isinstance(x, dict):
        return _array(x, path, depth)
    _check_keys(x, path, required=("breaks", "values"), optional=())
    return table(_array(x["breaks"], f"{path}.breaks", 1),
                 _array(x["values"], f"{path}.values", depth + 1))


def _term(x, path: str) -> DelayTerm:
    _check_keys(x, path, required=("coefficient",), optional=("lag", "frozen"))
    has_lag, has_frozen = "lag" in x, "frozen" in x
    if has_lag == has_frozen:
        raise SchemaError(path, "expected exactly one of 'lag' or 'frozen'")
    coef = _table_or_constant(x["coefficient"], f"{path}.coefficient", 2,
                              MatrixTable)
    if has_lag:
        return DelayTerm(coef, ConstantLag(_num(x["lag"], f"{path}.lag")))
    return DelayTerm(coef, FrozenTime(_num(x["frozen"], f"{path}.frozen")))


def _impulses(x, path: str, n: int, horizon: float) -> ImpulseSchedule:
    if isinstance(x, dict) and "periodic" in x:
        _check_keys(x, path, required=("periodic",), optional=())
        p = x["periodic"]
        _check_keys(p, f"{path}.periodic", required=("period", "matrix"),
                    optional=("offset",))
        period = _num(p["period"], f"{path}.periodic.period")
        try:
            periodic_count(period, horizon, n)
        except ValueError as e:
            raise SchemaError(f"{path}.periodic.period", str(e)) from None
        matrix = _array(p["matrix"], f"{path}.periodic.matrix", 2)
        offset = (_array(p["offset"], f"{path}.periodic.offset", 1)
                  if "offset" in p else None)
        return ImpulseSchedule.periodic(period, matrix, horizon=horizon,
                                        offset=offset, dim=n)
    _check_keys(x, path, required=("points", "matrices"), optional=("offsets",))
    offsets = (_array(x["offsets"], f"{path}.offsets", 2)
               if "offsets" in x else None)
    return ImpulseSchedule(_array(x["points"], f"{path}.points", 1),
                           _array(x["matrices"], f"{path}.matrices", 3),
                           offsets, n)


def _parse_spec(obj, horizon_override: float = None) -> SystemSpec:
    """The spec of a config object: JSON structure is checked here, and
    the values by `validate`, as SchemaError("spec", ...)."""
    _check_keys(obj, "", required=("dim",),
                optional=("horizon", "terms", "impulses", "forcing", "phi",
                          "x0"))
    n = _positive_int(obj["dim"], "dim")
    horizon = _num(obj["horizon"], "horizon") if "horizon" in obj else 1.0
    if horizon_override is not None:
        horizon = _num(horizon_override, "--horizon")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise SchemaError("terms", "expected an array of terms")
    terms = [_term(t, f"terms[{i}]") for i, t in enumerate(terms)]
    impulses = (_impulses(obj["impulses"], "impulses", n, horizon)
                if "impulses" in obj else None)
    signals = {key: _table_or_constant(obj[key], key, 1, VectorTable)
               for key in ("forcing", "phi") if key in obj}
    x0 = _array(obj["x0"], "x0", 1) if "x0" in obj else None
    spec = SystemSpec(dim=n, terms=terms, impulses=impulses, x0=x0,
                      horizon=horizon, **signals)
    bad = validate(spec)
    if bad:
        raise SchemaError("spec", "; ".join(bad))
    return spec


def _read_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_config(path_or_name: str):
    """Raw JSON object for a config path or builtin scenario name."""
    if path_or_name in BUILTIN_SCENARIOS:
        text = (resources.files("impulsedde") / "scenarios"
                / f"{path_or_name}.json").read_text(encoding="utf-8")
        return json.loads(text)
    return _read_json_file(path_or_name)


def _spec_part(raw):
    """Extract the spec object from a bare config or a scenario wrapper."""
    if isinstance(raw, dict) and "spec" in raw:
        _check_keys(raw, "", required=("spec", "checks"),
                    optional=("description",))
        return raw["spec"]
    return raw


def load_spec(path: str, horizon: float = None) -> SystemSpec:
    """Parse a JSON config (or builtin scenario name) into a valid SystemSpec.

    Unknown keys, non-finite numbers and ragged arrays are schema errors
    naming the field; a spec that fails `validate` is a SchemaError("spec",
    ...) naming each bad field.  A horizon override re-expands periodic
    impulse schedules to the new end time.
    """
    raw = _resolve_config(path)
    return _parse_spec(_spec_part(raw), horizon_override=horizon)


def dump_spec(spec: SystemSpec) -> dict:
    """Canonical JSON form of a spec; load_spec(dump_spec(s)) round-trips."""

    def table_or_constant(c):
        if isinstance(c, (MatrixTable, VectorTable)):
            return {"breaks": c.breaks.tolist(), "values": c.values.tolist()}
        return np.asarray(c).tolist()

    out = {"dim": spec.dim, "horizon": spec.horizon}
    out["terms"] = [
        {"coefficient": table_or_constant(t.coefficient),
         **({"lag": t.delay.theta} if isinstance(t.delay, ConstantLag)
            else {"frozen": t.delay.c})}
        for t in spec.terms
    ]
    if len(spec.impulses):
        out["impulses"] = {
            "points": spec.impulses.points.tolist(),
            "matrices": spec.impulses.matrices.tolist(),
            "offsets": spec.impulses.offsets.tolist(),
        }
    for key, sig in (("forcing", spec.forcing), ("phi", spec.phi)):
        if sig is not None:
            out[key] = table_or_constant(sig)
    if spec.x0 is not None:
        out["x0"] = spec.x0.tolist()
    return out


# ---------------------------------------------------------------------------
# artifacts


def _sanitize(obj):
    """JSON-ready copy: numpy to lists, non-finite floats to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj) + 0.0 if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(obj), fh, indent=2)
        fh.write("\n")


# numbers per block of `_write_csv`; a block's buffers take about 150 bytes
# per number
_CSV_BLOCK = 1 << 14
# bytes per encoded number: [pad, sign, d, "."], three groups of 4 digits,
# then ["e", sign, d, d, d or pad, separator, pad, pad]; pads are 0
_FIELD = 24


@functools.lru_cache(maxsize=None)
def _e12_tables() -> tuple:
    """Tables of `_encode_e12`, built on first use: 10^k, k = -279 .. 303,
    each correctly rounded; the field's first 4 bytes by sign * 10 + d; 4
    digits by value; the field's last 8 bytes by exponent + 300."""
    def digits(values, width):
        places = 10 ** np.arange(width - 1, -1, -1)
        return (values[:, None] // places % 10 + ord("0")).astype(np.uint8)

    pow10 = np.array([float(f"1e{k}") for k in range(-279, 304)])
    lead = np.zeros((20, 4), np.uint8)
    lead[10:, 1] = ord("-")
    lead[:, 2] = digits(np.arange(20), 1)[:, 0]
    lead[:, 3] = ord(".")
    e = np.arange(-300, 301)
    tail = np.zeros((len(e), 8), np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2:5] = digits(np.abs(e), 3)
    two = np.abs(e) < 100  # two exponent digits, then a pad
    tail[two, 2:5] = tail[two, 3:6]
    return (pow10, lead.view(np.uint32).ravel(),
            digits(np.arange(10000), 4).view(np.uint32).ravel(),
            tail.view(np.uint64).ravel())


def _python_e12(values: list) -> list:
    # the numbers `_encode_e12` leaves to Python
    return ["%.12e" % v for v in values]


def _encode_e12(x: np.ndarray) -> np.ndarray:
    """Each number of the flat float array `x` as the bytes of Python's
    "%.12e", in a `_FIELD`-byte row padded with 0.

    For |x| = 10^e * s / 1e12 with s in [1e12, 1e13), s is computed as
    |x| * fl(10^(12 - e)): two roundings of at most 2^-53 relative each,
    so it lies within 1e13 * 2.3e-16 < 0.0023 of the exact value, and
    m = rint(s) is the correctly rounded mantissa wherever s is more than
    0.005 away from a half.  A mantissa that rounds up to 1e13 is 1e12
    with e + 1.  The rest, under 1 % of ordinary numbers, and non-finite
    numbers, subnormals and |e| > 290, are formatted by Python.  All
    mantissas are below 2^53, so their digits are exact in int64.
    """
    pow10, lead, quad, tail = _e12_tables()
    a = np.abs(x)
    zero = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= 290
    a[~ok] = 0.0
    e = np.where(ok, e, 0.0).astype(np.intp)
    s = a * pow10[291 - e]  # 10^(12 - e)
    e += s >= 1e13
    e -= (s < 1e12) & ~zero
    s = a * pow10[291 - e]
    m = np.rint(s)
    ok &= (np.abs(s - m) < 0.495) & (m >= 1e12) & (m <= 1e13)
    ok |= zero
    m[~ok] = 0.0
    carry = m == 1e13
    m[carry] = 1e12
    e += carry
    e[m == 0.0] = 0
    m = m.astype(np.int64)
    hi, lo = m // 10**8, m % 10**8  # d dddd, dddddddd
    out = np.empty((len(x), _FIELD), np.uint8)
    words = out.view(np.uint32)
    words[:, 0] = lead[hi // 10**4 + 10 * np.signbit(x)]
    words[:, 1] = quad[hi % 10**4]
    words[:, 2] = quad[lo // 10**4]
    words[:, 3] = quad[lo % 10**4]
    out.view(np.uint64)[:, 2] = tail[e + 300]
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = np.array(_python_e12(x[bad].tolist()), dtype="S21")
        out[bad, :21] = text.view(np.uint8).reshape(len(bad), 21)
    return out


def _write_csv(path: str, header: list, table: np.ndarray,
               text=None) -> None:
    """RFC-4180 rows: the header, then each table row as %.12e numbers,
    followed by the matching ASCII entry of `text` when given.  The
    numbers are exactly Python's "%.12e" (see `_encode_e12`).  Rows are
    encoded and written `_CSV_BLOCK` numbers at a time, so only one
    block's buffers are held."""
    rows, cols = table.shape
    step = max(1, _CSV_BLOCK // cols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for r0 in range(0, rows, step):
            block = np.asarray(table[r0:r0 + step], dtype=float)
            k = len(block)
            fields = _encode_e12(block.ravel())
            fields[:, 21] = ord(",")
            if text is None:
                fields[cols - 1::cols, 21:23] = (ord("\r"), ord("\n"))
                line = fields
            else:
                labels = np.asarray(text[r0:r0 + k], dtype="S")
                line = np.concatenate(
                    (fields.reshape(k, cols * _FIELD),
                     labels.view(np.uint8).reshape(k, -1),
                     np.tile(np.frombuffer(b"\r\n", np.uint8), (k, 1))), axis=1)
            fh.write(line.tobytes().translate(None, b"\0"))


def _write_trajectory_csv(path: str, traj, dim: int) -> None:
    # a jump node k gives a "left" row (y_pre) and then a "right" row;
    # each earlier jump moves its rows down by one
    k = np.array(sorted(traj.jump_nodes), dtype=int)
    left = k + np.arange(len(k))
    node = np.insert(np.arange(len(traj.t_nodes)), k, k)
    y = traj.y_post[node]
    y[left] = traj.y_pre[k]
    text = np.full(len(node), b"0", dtype="S5")
    text[left], text[left + 1] = b"left", b"right"
    _write_csv(path, ["t"] + [f"x{i + 1}" for i in range(dim)] + ["is_jump"],
               np.column_stack((traj.t_nodes[node], y)), text)


def _write_fundamental_csv(path: str, fm, bound) -> None:
    n_t, n_s, n, _ = fm.samples.shape
    header = ["t", "s"] + [f"X_{i + 1}_{j + 1}"
                           for i in range(n) for j in range(n)]
    columns = [np.repeat(fm.t_grid, n_s), np.tile(fm.s_grid, n_t),
               fm.samples.reshape(n_t * n_s, n * n)]
    if bound is not None:
        header.append("bound")
        columns.append(bound.ravel())
    _write_csv(path, header, np.column_stack(columns))


# ---------------------------------------------------------------------------
# command plumbing


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the command plus every flag that shapes it."""

    command: str
    spec_path: str
    dt: float = 1e-3
    horizon: float = None
    out: str = "."
    s_grid: str = None
    t_grid: str = None
    window: str = None
    tight: bool = False


def _parse_colon(text, flag: str, form: str) -> list:
    """The finite numbers of a string shaped like `form`, e.g. 'tmin:tmax'."""
    parts = text.split(":") if isinstance(text, str) else []
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        vals = []
    if len(vals) != len(form.split(":")) or not all(map(math.isfinite, vals)):
        raise SchemaError(flag, f"expected '{form}' of finite numbers, got {text!r}")
    return vals


def _parse_grid(text, flag: str) -> np.ndarray:
    a, b, step = _parse_colon(text, flag, "start:stop:step")
    count = (b - a) / step if step > 0 else -1.0
    if not 0.0 <= count < math.inf:
        raise SchemaError(flag, "expected stop >= start and step > 0 (finitely "
                                f"many steps), got {text!r}")
    if (count + 1) * 8 > np.iinfo(np.intp).max:  # as in `periodic_count`
        raise SchemaError(flag, f"too many points: {text!r} gives {count:.3g} "
                                "steps")
    count = int(math.floor(count + 1e-9))
    pts = a + step * np.arange(count + 1)
    if pts[-1] < b - 1e-9 * max(1.0, abs(b)):
        return pts
    return np.linspace(a, b, count + 1)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _default_window(spec: SystemSpec):
    """[2*rho, horizon]: skips transient-dominated pairs when gaps exist."""
    rho = schedule_gaps(spec.impulses, spec.horizon)[1]
    lo = 0.0 if math.isnan(rho) else min(2.0 * rho, spec.horizon)
    return lo, spec.horizon


def _cmd_simulate(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path, cfg.horizon)
    traj = solve(spec, StepControl(cfg.dt))
    path = _out_path(cfg, "trajectory.csv")
    _write_trajectory_csv(path, traj, spec.dim)
    end = traj.y_post[-1]
    print(f"wrote {path} ({len(traj.t_nodes)} nodes, "
          f"|x({spec.horizon:g})| = {vec_norm(end):.6g})")
    return EXIT_OK


def _grids(cfg: RunConfig, spec: SystemSpec, t_points: int):
    h = spec.horizon
    s = (_parse_grid(cfg.s_grid, "--s-grid") if cfg.s_grid
         else np.linspace(0.0, h / 2.0, 5))
    t = (_parse_grid(cfg.t_grid, "--t-grid") if cfg.t_grid
         else np.linspace(0.0, h, t_points))
    return s, t


def _cmd_fundamental(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path, cfg.horizon)
    s_grid, t_grid = _grids(cfg, spec, t_points=21)
    fm = fundamental_grid(spec, s_grid, t_grid, StepControl(cfg.dt))
    path = _out_path(cfg, "fundamental.csv")
    bound = (gronwall_grid(spec, fm.s_grid, fm.t_grid, tight=True)
             if cfg.tight else None)
    _write_fundamental_csv(path, fm, bound)
    print(f"wrote {path} ({len(t_grid)} x {len(s_grid)} samples)")
    return EXIT_OK


def _cmd_verify_representation(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path, cfg.horizon)
    if cfg.t_grid:
        targets = _parse_grid(cfg.t_grid, "--t-grid")
    else:
        targets = np.linspace(0.0, spec.horizon, 9)
    residuals = representation_residuals(spec, targets, StepControl(cfg.dt))
    doc = {
        "target_times": [float(t) for t in targets],
        "residuals": residuals,
        "max_residual": max(residuals),
        "dt": cfg.dt,
    }
    path = _out_path(cfg, "representation.json")
    _write_json(path, doc)
    print(f"wrote {path} (max residual {doc['max_residual']:.6g})")
    return EXIT_OK


def _cmd_certify(cfg: RunConfig) -> int:
    cert = certify(load_spec(cfg.spec_path, cfg.horizon))
    _write_json(_out_path(cfg, "certificate.json"), asdict(cert))
    if cert.verdict == "Certified":
        print(f"Certified (lhs = {cert.lhs:.6g}, gamma = {cert.gamma:.6g})")
        return EXIT_OK
    print("NotCertified: " + "; ".join(cert.reasons))
    print("note: the test is sufficient only; NotCertified does not "
          "assert instability")
    return EXIT_NOT_CERTIFIED


def _cmd_estimate_rate(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path, cfg.horizon)
    s_grid, t_grid = _grids(cfg, spec, t_points=41)
    window = (_parse_colon(cfg.window, "--window", "tmin:tmax") if cfg.window
              else _default_window(spec))
    fm = fundamental_grid(spec, s_grid, t_grid, StepControl(cfg.dt))
    # the library's warnings, as fixed lines: Python's own format names
    # the line of this call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate = estimate_rate(fm, window)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    doc = {
        "N": rate.N,
        "nu": rate.nu,
        "window": list(rate.fit_window),
        "residual": rate.residual,
        "n_samples": rate.n_samples,
    }
    path = _out_path(cfg, "rate.json")
    _write_json(path, doc)
    print(f"wrote {path} (nu = {rate.nu:.6g}, N = {rate.N:.6g}, "
          f"{rate.n_samples} samples)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenarios: scripted pipelines checked against stored expectations


def _scenario_doc(path_or_name: str):
    raw = _resolve_config(path_or_name)
    if _spec_part(raw) is raw:  # a bare config, not a scenario wrapper
        raise SchemaError("", "expected a scenario object with 'spec' and 'checks'")
    if not isinstance(raw["checks"], list) or not raw["checks"]:
        raise SchemaError("checks", "expected a non-empty array")
    return raw


def _check_norm_constant_on(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "from", "to", "value", "tol"),
                optional=("samples",))
    lo, hi = _num(c["from"], f"{path}.from"), _num(c["to"], f"{path}.to")
    n_samples = _positive_int(c.get("samples", 100), f"{path}.samples")
    ts = np.linspace(lo, hi, n_samples, endpoint=False)
    norms = np.abs(traj.value(ts)).max(axis=1)
    worst = float(np.max(np.abs(norms - _num(c["value"], f"{path}.value"))))
    return worst <= _num(c["tol"], f"{path}.tol"), f"max | |x|-const | = {worst:.3e}"


def _check_abs_value_at(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "t", "value", "tol"), optional=())
    got = vec_norm(traj.value(_num(c["t"], f"{path}.t")))
    gap = abs(got - _num(c["value"], f"{path}.value"))
    return gap <= _num(c["tol"], f"{path}.tol"), f"|x({c['t']:g})| = {got:.12g}"


def _check_max_deviation(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "value", "until", "tol"),
                optional=())
    until = _num(c["until"], f"{path}.until")
    value = _num(c["value"], f"{path}.value")
    keep = traj.t_nodes <= until + 1e-12
    worst = float(np.max(np.abs(traj.y_post[keep] - value)))
    return worst <= _num(c["tol"], f"{path}.tol"), f"max |x-{value:g}| = {worst:.3e}"


def _check_certified(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "expect"), optional=())
    if not isinstance(c["expect"], bool):
        raise SchemaError(f"{path}.expect", "expected true or false")
    cert = certify(spec)
    want = "Certified" if c["expect"] else "NotCertified"
    return cert.verdict == want, f"verdict = {cert.verdict}"


def _check_lhs(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "value", "tol"), optional=())
    cert = certify(spec)
    gap = abs(cert.lhs - _num(c["value"], f"{path}.value"))
    return gap <= _num(c["tol"], f"{path}.tol"), f"lhs = {cert.lhs!r}"


def _check_rate_sign(spec, traj, c, path):
    _check_keys(c, path, required=("kind", "expect", "s_grid", "t_grid",
                                   "window"), optional=("dt",))
    if c["expect"] not in ("positive", "negative"):
        raise SchemaError(f"{path}.expect", "expected 'positive' or 'negative'")
    fm = fundamental_grid(spec,
                          _parse_grid(c["s_grid"], f"{path}.s_grid"),
                          _parse_grid(c["t_grid"], f"{path}.t_grid"),
                          StepControl(_num(c.get("dt", 1e-3), f"{path}.dt")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate = estimate_rate(fm, _parse_colon(c["window"], f"{path}.window",
                                              "tmin:tmax"))
    ok = rate.nu > 0 if c["expect"] == "positive" else rate.nu < 0
    return ok, f"nu = {rate.nu:.6g}"


_CHECKS = {
    "norm-constant-on": _check_norm_constant_on,
    "abs-value-at": _check_abs_value_at,
    "max-deviation-from-constant": _check_max_deviation,
    "certified": _check_certified,
    "lhs": _check_lhs,
    "rate-sign": _check_rate_sign,
}


def _cmd_scenario(cfg: RunConfig) -> int:
    doc = _scenario_doc(cfg.spec_path)
    spec = _parse_spec(doc["spec"], horizon_override=cfg.horizon)
    needs_traj = any(isinstance(c, dict) and c.get("kind") in
                     ("norm-constant-on", "abs-value-at",
                      "max-deviation-from-constant")
                     for c in doc["checks"])
    traj = solve(spec, StepControl(cfg.dt)) if needs_traj else None
    name = doc.get("description", cfg.spec_path)
    print(f"scenario: {name}")
    failures = 0
    for i, c in enumerate(doc["checks"]):
        path = f"checks[{i}]"
        if not isinstance(c, dict) or not isinstance(c.get("kind"), str):
            raise SchemaError(path, "expected an object with a 'kind'")
        if c["kind"] not in _CHECKS:
            raise SchemaError(f"{path}.kind", f"unknown check kind '{c['kind']}'")
        ok, detail = _CHECKS[c["kind"]](spec, traj, c, path)
        print(f"  [{i + 1}] {c['kind']}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(doc['checks'])} checks failed")
        return EXIT_ERROR
    print(f"all {len(doc['checks'])} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fundamental": _cmd_fundamental,
    "verify-representation": _cmd_verify_representation,
    "certify": _cmd_certify,
    "estimate-rate": _cmd_estimate_rate,
    "scenario": _cmd_scenario,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the exit code, never raises."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except KeyError:
        print(f"error: unknown command '{cfg.command}'", file=sys.stderr)
        return EXIT_ERROR
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_UNREADABLE
    except SchemaError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it took
    1.4-1.8 ms, a call's worth of work on small configs."""
    ap = argparse.ArgumentParser(
        prog="impulsedde",
        description="Simulate, bound and certify linear impulsive delay systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, grids=False, window=False, tight=False,
            dt=True):
        # an option left out stays unset, so RunConfig holds every default
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("spec", help="config path or builtin scenario name")
        if dt:
            p.add_argument("--dt", type=float,
                           help=f"integration step (default {RunConfig.dt:g})")
        p.add_argument("--horizon", type=float,
                       help="override the config horizon")
        p.add_argument("--out",
                       help=f"output directory (default {RunConfig.out})")
        if grids:
            p.add_argument("--s-grid", metavar="A:B:STEP",
                           help="restart times s")
            p.add_argument("--t-grid", metavar="A:B:STEP",
                           help="observation times t")
        if window:
            p.add_argument("--window", metavar="TMIN:TMAX",
                           help="fit window in t-s (default 2*rho:horizon)")
        if tight:
            p.add_argument("--tight", action="store_true",
                           help="use the product of ||B_i|| in the envelope "
                                "column (valid when every B_i is nonsingular)")
        return p

    add("simulate", "integrate the full problem, write trajectory.csv")
    add("fundamental", "sample X(t,s) on a grid, write fundamental.csv",
        grids=True, tight=True)
    p = add("verify-representation",
            "compare the variation-of-constants form against integration")
    p.add_argument("--t-grid", metavar="A:B:STEP",
                   help="target times (default 9 even samples)")
    add("certify", "evaluate the stability certificate, write certificate.json",
        dt=False)
    add("estimate-rate", "fit N e^{-nu (t-s)} to sampled ||X(t,s)||",
        grids=True, window=True)
    add("scenario", "run a scripted scenario against stored expectations")
    return ap


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    return run(RunConfig(spec_path=flags.pop("spec"), **flags))


if __name__ == "__main__":
    sys.exit(main())
