"""Untimed correctness checks on the artifacts one item's CLI calls wrote.

Each check returns a list of problems; an empty list means the item is
correct.  Tolerances:

* trajectory: generated configs are compared at sampled nodes with an
  oracle computed by the batched fundamental-matrix engine, which shares
  no stepping code with `solve`: the system is made homogeneous on
  (x, 1), so x(t) = X~(t, 0) (x0, 1).  Both are RK4 at the same base step
  on slightly different grids; they must agree to TRAJECTORY_RTOL
  relative.  Anchors are checked against their closed-form values.
* kernel-sweep: X(t, t) = I and X(t, s) = 0 for t < s exactly, the plain
  growth envelope dominates every sample to GRONWALL_SLACK relative
  (acceptance criterion 5), rate.json is finite, and the sec5 anchor keeps
  its pinned lhs with nu > 0.
* representation: max_residual < RESIDUAL_TOL (acceptance criterion 4).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from perfbench.configs import SEC5_LHS

TRAJECTORY_RTOL = 1e-8
GRONWALL_SLACK = 1e-9
RESIDUAL_TOL = 1e-4
SEC2_VALUES = {2.5: 2.625, 3.5: 223.0 / 48.0}
SEC4_TOL = 1e-10
SEC5_LHS_TOL = 1e-12
ORACLE_SAMPLES = 16


def read_trajectory(path: str):
    """(t, x, kind) arrays of trajectory.csv; kind is '0', 'left' or 'right'."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    t = np.array([float(r[0]) for r in body])
    x = np.array([[float(v) for v in r[1:-1]] for r in body])
    kind = np.array([r[-1] for r in body])
    return t, x, kind


def augmented(spec):
    """Homogeneous system on (x, z) with z = 1 whose X~(t, 0) (x0, 1) is x.

    Forcing and the history reads -A_i(t) phi(t - theta_i) on [0, theta_i)
    become a zero-lag coefficient acting on z; jump offsets move into the
    last column of the jump matrices.  Frozen terms (c = 0) carry over.
    """
    from impulsedde import (ConstantLag, DelayTerm, ImpulseSchedule,
                            MatrixTable, SystemSpec)

    n, size = spec.dim, spec.dim + 1

    def pad(m):
        out = np.zeros((size, size))
        out[:n, :n] = m
        return out

    def coef_at(coef, t):
        return coef.value(t) if isinstance(coef, MatrixTable) else coef

    terms = []
    lagged = []
    cuts = {0.0}
    for term in spec.terms:
        coef = term.coefficient
        if isinstance(coef, MatrixTable):
            padded = MatrixTable(coef.breaks, [pad(v) for v in coef.values])
            cuts.update(float(b) for b in coef.breaks)
        else:
            padded = pad(coef)
        terms.append(DelayTerm(padded, term.delay))
        if (isinstance(term.delay, ConstantLag) and term.delay.theta > 0
                and spec.phi is not None):
            theta = term.delay.theta
            lagged.append((coef, theta))
            cuts.add(theta)
            cuts.update(float(b) + theta for b in spec.phi.breaks)
    if spec.forcing is not None:
        cuts.update(float(b) for b in spec.forcing.breaks)

    if spec.forcing is not None or lagged:
        breaks = sorted(c for c in cuts if 0.0 <= c < spec.horizon)
        values = []
        for a, b in zip(breaks, breaks[1:] + [breaks[-1] + 1.0]):
            mid = 0.5 * (a + b)
            g = (spec.forcing.value(mid).copy() if spec.forcing is not None
                 else np.zeros(n))
            for coef, theta in lagged:
                if mid < theta:
                    g -= coef_at(coef, mid) @ spec.phi.value(mid - theta)
            source = np.zeros((size, size))
            source[:n, n] = -g
            values.append(source)
        terms.append(DelayTerm(MatrixTable(breaks, values), ConstantLag(0.0)))

    sch = spec.impulses
    mats = np.zeros((len(sch), size, size))
    mats[:, :n, :n] = sch.matrices
    mats[:, :n, n] = sch.offsets
    mats[:, n, n] = 1.0
    return SystemSpec(dim=size, terms=terms,
                      impulses=ImpulseSchedule(sch.points, mats, None, size),
                      horizon=spec.horizon)


def trajectory_oracle(spec, times, dt: float) -> np.ndarray:
    """x at `times` from the batched engine on the augmented system."""
    from impulsedde import StepControl, fundamental_grid

    fm = fundamental_grid(augmented(spec), [0.0], times, StepControl(dt))
    start = np.append(spec.x0, 1.0)
    return (fm.samples[:, 0] @ start)[:, :spec.dim]


def _sample_rows(t, kind, count: int) -> np.ndarray:
    """Indices of up to `count` evenly spread non-jump rows after t = 0."""
    plain = np.flatnonzero((kind == "0") & (t > 0.0))
    if plain.size <= count:
        return plain
    return plain[np.linspace(0, plain.size - 1, count).round().astype(int)]


def check_trajectory(item, spec, outdir: str, dt: float) -> list:
    t, x, kind = read_trajectory(os.path.join(outdir, "trajectory.csv"))
    problems = []
    if x.shape[1] != spec.dim or not np.all(np.isfinite(x)):
        return [f"trajectory.csv: shape {x.shape} or non-finite values"]
    if not math.isclose(t[-1], spec.horizon, rel_tol=1e-12):
        problems.append(f"trajectory ends at {t[-1]}, not {spec.horizon}")
    if item.anchor == "sec2":
        for when, want in SEC2_VALUES.items():
            rows = np.flatnonzero((np.abs(t - when) < 1e-12) & (kind == "0"))
            got = float(np.max(np.abs(x[rows[0]]))) if rows.size else math.nan
            if not abs(got - want) <= 1e-9:
                problems.append(f"|x({when})| = {got!r}, expected {want!r}")
    elif item.anchor == "sec4":
        worst = float(np.max(np.abs(x - 1.0)))
        if not worst < SEC4_TOL:
            problems.append(f"max |x - 1| = {worst:.3e} >= {SEC4_TOL:g}")
    else:
        rows = _sample_rows(t, kind, ORACLE_SAMPLES)
        want = trajectory_oracle(spec, t[rows], dt)
        gap = np.max(np.abs(x[rows] - want), axis=1)
        scale = 1.0 + np.max(np.abs(want), axis=1)
        bad = np.flatnonzero(gap > TRAJECTORY_RTOL * scale)
        if bad.size:
            k = bad[0]
            problems.append(
                f"x({t[rows][k]:.6g}) differs from the batched oracle by "
                f"{gap[k]:.3e} (> {TRAJECTORY_RTOL:g} x {scale[k]:.3g})")
    return problems


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_kernel(item, spec, outdir: str) -> list:
    from impulsedde import gronwall_bound, mat_norm

    problems = []
    with open(os.path.join(outdir, "fundamental.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    n = spec.dim
    eye = np.eye(n)
    for r in rows:
        t, s = float(r[0]), float(r[1])
        X = np.array([float(v) for v in r[2:2 + n * n]]).reshape(n, n)
        if abs(t - s) <= 1e-12 * max(1.0, t):
            if not np.allclose(X, eye, rtol=0.0, atol=1e-12):
                problems.append(f"X({t:g}, {s:g}) is not the identity")
        elif t < s:
            if np.any(X != 0.0):
                problems.append(f"X({t:g}, {s:g}) is non-zero for t < s")
        else:
            bound = gronwall_bound(spec, s, t)
            if not mat_norm(X) <= bound * (1.0 + GRONWALL_SLACK):
                problems.append(f"||X({t:g}, {s:g})|| = {mat_norm(X):.6g} "
                                f"exceeds the envelope {bound:.6g}")
        if len(problems) > 3:
            break

    rate = _read_json(os.path.join(outdir, "rate.json"))
    for key in ("N", "nu", "residual"):
        if not isinstance(rate.get(key), (int, float)):
            problems.append(f"rate.json: {key} = {rate.get(key)!r} "
                            "is not a finite number")
    cert = _read_json(os.path.join(outdir, "certificate.json"))
    if cert.get("verdict") not in ("Certified", "NotCertified"):
        problems.append(f"certificate.json: verdict {cert.get('verdict')!r}")
    if item.anchor == "sec5":
        lhs = cert.get("lhs")
        if not (isinstance(lhs, float)
                and abs(lhs - SEC5_LHS) <= SEC5_LHS_TOL):
            problems.append(f"sec5 lhs = {lhs!r}, expected {SEC5_LHS!r}")
        if cert.get("verdict") != "Certified":
            problems.append("sec5 is not Certified")
        if not (isinstance(rate.get("nu"), float) and rate["nu"] > 0.0):
            problems.append(f"sec5 nu = {rate.get('nu')!r}, expected > 0")
    return problems


def check_representation(item, outdir: str, targets: int) -> list:
    doc = _read_json(os.path.join(outdir, "representation.json"))
    res = doc.get("residuals")
    if (not isinstance(res, list) or len(res) != targets
            or not all(isinstance(v, float) for v in res)):
        return [f"representation.json: residuals {res!r}, "
                f"expected {targets} finite numbers"]
    worst = doc.get("max_residual")
    if worst != max(res):
        return [f"max_residual {worst!r} is not the largest residual"]
    if not worst < RESIDUAL_TOL:
        return [f"max_residual {worst:.3e} >= {RESIDUAL_TOL:g}"]
    return []
