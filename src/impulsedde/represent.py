"""Solution representation through the fundamental matrix.

Every solution of the impulsive system admits the closed form

    x(t) = int_0^t X(t,s) r(s) ds
           - sum_i int_0^t X(t,s) A_i(s) phi(h_i(s)) ds
           + sum_{tau_j <= t} X(t,tau_j) alpha_j,        tau_0 = 0, alpha_0 = x(0),

with the convention phi(zeta) = 0 for zeta >= 0, so the history integral of
term i is supported on [0, theta_i).  This module evaluates the right-hand
side by composite trapezoid quadrature on the integrator's own grid and
compares it against direct integration; the map (Cf)(t) = int_0^t X(t,s) f(s) ds
is exposed on its own as the Cauchy operator.

The kernel rows s -> X(t,s), for the few target times t and every
quadrature node s, come from one reflected sweep of the batched engine over
the adjoint system (`integrate._fundamental_rows`), O(K) steps for all
targets together.  Quadrature panels are split at every jump point
(s -> X(t,s) jumps there, with left limit X(t,tau_j) B_j), at every table
breakpoint of the forcing and the coefficients, at the images of phi's
breakpoints, and at the backward lag images a - theta_i, a - 2 theta_i of
the targets, jump points and coefficient breaks a, where the rows have
derivative jumps, so each panel has a smooth integrand evaluated with
one-sided limits at its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import (
    ConstantLag,
    FrozenTime,
    MatrixTable,
    SystemSpec,
    VectorTable,
    validate,
    vec_norm,
)
from .integrate import (
    _SNAP,
    StepControl,
    _fundamental_rows,
    _jump_map,
    _node_index,
    _prepare_grid,
    solve,
)

__all__ = [
    "RepresentationInput",
    "cauchy_apply",
    "represent_solution",
    "representation_residual",
    "representation_residuals",
]


def _table_rows(table, ts, side: str) -> np.ndarray:
    """Vectorized piecewise-constant table read with one-sided limits.

    A time within the snap tolerance of a break reads as that break, so a
    node one ulp off a break b (a lag image fl(fl(b + theta) - theta), or a
    grid node that won the snap merge against b) takes b's pieces.
    """
    breaks = table.breaks
    ts = np.asarray(ts, dtype=float)
    near = np.searchsorted(breaks, ts)
    for cand in (np.minimum(near, len(breaks) - 1), np.maximum(near - 1, 0)):
        b = breaks[cand]
        tol = _SNAP * np.maximum(1.0, np.maximum(np.abs(b), np.abs(ts)))
        ts = np.where(np.abs(b - ts) <= tol, b, ts)
    k = np.searchsorted(breaks, ts, side="right" if side == "right" else "left") - 1
    return table.values[np.maximum(k, 0)]


def _forcing_rows(forcing, ts: np.ndarray, side: str, dim: int) -> np.ndarray:
    if forcing is None:
        return np.zeros((len(ts), dim))
    return _table_rows(forcing, ts, side)


def _coef_rows(coef, ts: np.ndarray, side: str) -> np.ndarray:
    if isinstance(coef, MatrixTable):
        return _table_rows(coef, ts, side)
    a = np.asarray(coef, dtype=float)
    return np.broadcast_to(a, (len(ts),) + a.shape)


def _phi_rows(phi, zetas: np.ndarray, side: str, dim: int, tol: float) -> np.ndarray:
    """phi evaluated at zetas with the zero extension phi(zeta) = 0, zeta >= 0.

    On the left side a zeta within tolerance of 0 means the limit from
    below, which for a piecewise-constant history is its last piece.
    """
    if phi is None:
        return np.zeros((len(zetas), dim))
    if side == "right":
        vals = _table_rows(phi, zetas, "right")
        vals[zetas >= -tol] = 0.0
    else:
        vals = _table_rows(phi, np.minimum(zetas, 0.0), "left")
        vals[zetas > tol] = 0.0
    return vals


def _quad_nodes(spec: SystemSpec, targets: np.ndarray, dt: float,
                extra_breaks=()) -> np.ndarray:
    """Quadrature grid on [0, max target]: integrator breakpoints refined to
    dt, with every target pinned and the backward lag images a - m theta_i
    (m = 1, 2) of the targets, jump points and coefficient breaks a
    inserted.  The rows s -> X(t_k, s) (see `_fundamental_rows`) have a
    jump in the first derivative at the first image and in the second at
    the second; a step across either would cost an O(h^2) or O(h^3) local
    error.  Deeper images are smoother and left out."""
    t_end = float(targets[-1])
    lags = [t.delay.theta for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta > 0]
    anchors = [targets, spec.impulses.points]
    anchors += [t.coefficient.breaks for t in spec.terms
                if isinstance(t.coefficient, MatrixTable)]
    anchors = np.concatenate(anchors)
    images = [anchors - m * theta for theta in lags for m in (1, 2)]
    extra = np.unique(np.concatenate(
        (targets, np.asarray(extra_breaks, dtype=float), *images)))
    extra = extra[(extra >= 0.0) & (extra <= t_end)]
    nodes, _ = _prepare_grid(spec, 0.0, t_end, dt, extra=extra, with_history=True)
    return nodes


class _Kernel:
    """X(t, s) sampled at a few target times t over every quadrature node s.

    `right[row]` holds s -> X(t,s) (right-continuous in s); `left[row]`
    replaces the value at each jump node tau_j by the left limit
    X(t, tau_j) B_j, so trapezoid panels read one-sided limits directly.
    """

    def __init__(self, spec: SystemSpec, targets: np.ndarray,
                 nodes: np.ndarray):
        rows = np.array([_node_index(nodes, t) for t in targets])
        if np.any(rows < 0):
            raise ValueError("target times could not be pinned to grid nodes")
        self.nodes = nodes
        self.jump_nodes = _jump_map(spec.impulses, nodes)
        jumps = {i: spec.impulses.matrices[j]
                 for i, j in self.jump_nodes.items()}
        self.right = _fundamental_rows(spec, nodes, jumps, rows)
        self.left = self.right.copy()
        for idx, B in jumps.items():
            self.left[:, idx] = self.right[:, idx] @ B


def _panel_sum(kernel: _Kernel, row: int, i_hi: int,
               vec_right: np.ndarray, vec_left: np.ndarray) -> np.ndarray:
    """Composite trapezoid of s -> X(t,s) g(s) over nodes[0..i_hi].

    `vec_right[i]`/`vec_left[i]` are the one-sided values of g at node i;
    panels use the right value at their left endpoint and the left value at
    their right endpoint, which is exact up to O(h^2) on each smooth piece.
    """
    h = np.diff(kernel.nodes[: i_hi + 1])
    lo = np.einsum("sij,sj->si", kernel.right[row, :i_hi], vec_right[:i_hi])
    hi = np.einsum("sij,sj->si", kernel.left[row, 1 : i_hi + 1],
                   vec_left[1 : i_hi + 1])
    return 0.5 * (h[:, None] * (lo + hi)).sum(axis=0)


@dataclass(frozen=True)
class RepresentationInput:
    """A spec together with target times and the quadrature grid.

    When `quad_grid` is omitted it is derived from the spec's own
    breakpoints (jumps, table breaks, lag images) refined to the step of
    `grid`; a supplied grid must be strictly increasing and contain every
    jump point up to the last target as well as every target time.
    """

    spec: SystemSpec
    target_times: tuple
    grid: StepControl = field(default_factory=StepControl)
    quad_grid: np.ndarray = None

    def __post_init__(self):
        targets = np.asarray(self.target_times, dtype=float)
        if targets.size == 0:
            raise ValueError("no target times")
        if targets.min() < 0 or targets.max() > self.spec.horizon:
            raise ValueError("target times must lie within [0, horizon]")
        object.__setattr__(self, "target_times", tuple(float(t) for t in targets))
        if self.quad_grid is None:
            nodes = _quad_nodes(self.spec, np.unique(targets), self.grid.dt)
            object.__setattr__(self, "quad_grid", nodes)
        else:
            nodes = np.asarray(self.quad_grid, dtype=float)
            if nodes.ndim != 1 or len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
                raise ValueError("quad_grid must be strictly increasing")
            t_end = nodes[-1]
            for tau in self.spec.impulses.points:
                if tau <= t_end and _node_index(nodes, tau) < 0:
                    raise ValueError(f"quad_grid misses jump point {tau}")
            for t in targets:
                if _node_index(nodes, t) < 0:
                    raise ValueError(f"quad_grid misses target time {t}")
            object.__setattr__(self, "quad_grid", nodes.copy())
        self.quad_grid.setflags(write=False)


def cauchy_apply(spec: SystemSpec, f, t: float,
                 grid: StepControl = StepControl()) -> np.ndarray:
    """The Cauchy operator (Cf)(t) = int_0^t X(t,s) f(s) ds.

    `f` is a piecewise-constant VectorTable on [0, t] (or None for zero).
    The spec contributes only its dynamics and jump matrices; its own
    forcing, history and offsets do not enter.  A frozen-time term at c = 0
    changes X(t, s) only at s = 0, a null set for the integral; c > 0 is
    rejected.
    """
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    if not (0.0 <= t <= spec.horizon):
        raise ValueError(f"t={t} outside [0, horizon={spec.horizon}]")
    if f is None:
        return np.zeros(spec.dim)
    if not isinstance(f, VectorTable):
        raise TypeError("f must be a VectorTable or None")
    if f.values.shape[1:] != (spec.dim,):
        raise ValueError("forcing table dimension mismatch")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("forcing table is not bounded")
    if t == 0.0:
        return np.zeros(spec.dim)

    targets = np.array([t])
    kernel = _Kernel(spec, targets,
                     _quad_nodes(spec, targets, grid.dt, f.breaks))
    vr = _forcing_rows(f, kernel.nodes, "right", spec.dim)
    vl = _forcing_rows(f, kernel.nodes, "left", spec.dim)
    return _panel_sum(kernel, 0, len(kernel.nodes) - 1, vr, vl)


def represent_solution(inp: RepresentationInput) -> np.ndarray:
    """Evaluate the variation-of-constants form at each target time.

    Returns an array of shape (len(target_times), dim) holding, per target,
    the forcing integral minus the history integrals plus the jump sum
    X(t,0) x(0) + sum_{0 < tau_j <= t} X(t,tau_j) alpha_j.
    """
    spec = inp.spec
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime):
            raise ValueError("frozen-time terms have no bounded-lag "
                             "representation; integrate directly instead")

    targets = np.unique(np.asarray(inp.target_times, dtype=float))
    kernel = _Kernel(spec, targets, inp.quad_grid)
    nodes = kernel.nodes
    dim = spec.dim
    tol = _SNAP * max(1.0, float(nodes[-1]))

    r_right = _forcing_rows(spec.forcing, nodes, "right", dim)
    r_left = _forcing_rows(spec.forcing, nodes, "left", dim)
    phi_terms = []
    for term in spec.terms:
        theta = term.delay.theta
        if theta <= 0.0 or spec.phi is None:
            continue
        a_r = _coef_rows(term.coefficient, nodes, "right")
        a_l = _coef_rows(term.coefficient, nodes, "left")
        p_r = _phi_rows(spec.phi, nodes - theta, "right", dim, tol)
        p_l = _phi_rows(spec.phi, nodes - theta, "left", dim, tol)
        phi_terms.append((np.einsum("sij,sj->si", a_r, p_r),
                          np.einsum("sij,sj->si", a_l, p_l)))

    out = np.zeros((len(targets), dim))
    for row, t in enumerate(targets):
        i_hi = _node_index(nodes, t)
        acc = _panel_sum(kernel, row, i_hi, r_right, r_left)
        for g_r, g_l in phi_terms:
            acc -= _panel_sum(kernel, row, i_hi, g_r, g_l)
        if spec.x0 is not None:
            acc += kernel.right[row, 0] @ spec.x0
        for idx, j in kernel.jump_nodes.items():
            acc += kernel.right[row, idx] @ spec.impulses.offsets[j]
        out[row] = acc

    order = np.searchsorted(targets, np.asarray(inp.target_times, dtype=float))
    result = out[order]
    result.setflags(write=False)
    return result


def representation_residuals(spec: SystemSpec, target_times,
                             grid: StepControl = StepControl()) -> list:
    """Relative gap between the represented and the integrated solution.

    Returns ||represented - direct|| / (1 + ||direct||) at each target, in
    the order given: the executable form of the equivalence between the
    initial-value problem and its variation-of-constants presentation.
    """
    inp = RepresentationInput(spec, tuple(float(t) for t in target_times),
                              grid=grid)
    rep = represent_solution(inp)
    traj = solve(spec, grid)
    gaps = []
    for k, t in enumerate(inp.target_times):
        ref = traj.value(t, side="right")
        gaps.append(vec_norm(rep[k] - ref) / (1.0 + vec_norm(ref)))
    return gaps


def representation_residual(spec: SystemSpec, target_times,
                            grid: StepControl = StepControl()) -> float:
    """Max over the targets of `representation_residuals`."""
    return max(representation_residuals(spec, target_times, grid))
