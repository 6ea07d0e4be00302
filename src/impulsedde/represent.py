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

This module is the quadrature layer only.  The grid (`quadrature_nodes`),
the kernel rows s -> X(t,s) for the few target times t at every node s
(`kernel_rows`, one reflected sweep of the batched engine over the adjoint
system, O(K) steps for all targets together), the snap-tolerant node
lookup (`locate`) and the one-sided table reads (`read_piecewise`) all come
from `integrate`, which owns the snap rule and the lag-image rule.
Quadrature panels are split at every jump point (s -> X(t,s) jumps there,
with left limit X(t,tau_j) B_j), at every table breakpoint of the forcing
and the coefficients, at the images of phi's breakpoints, and at the
backward lag images a - theta_i and a - theta_i - theta_l (all pairs) of
the targets, jump points and coefficient breaks a, where the rows have
derivative jumps, so each panel has a smooth integrand evaluated with
one-sided limits at its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import FrozenTime, SystemSpec, VectorTable, require_valid
from .integrate import (
    StepControl,
    kernel_rows,
    locate,
    quadrature_nodes,
    read_piecewise,
    solve,
)

__all__ = [
    "RepresentationInput",
    "cauchy_apply",
    "represent_solution",
    "representation_residual",
    "representation_residuals",
]


def _phi_rows(phi, zetas: np.ndarray, side: str, dim: int) -> np.ndarray:
    """phi evaluated at zetas with the zero extension phi(zeta) = 0, zeta >= 0.

    On the left side a zeta that snaps to 0 means the limit from below,
    which for a piecewise-constant history is its last piece.
    """
    zetas = np.where(locate(np.zeros(1), zetas) >= 0, 0.0, zetas)
    vals = read_piecewise(phi, np.minimum(zetas, 0.0), side, dim)
    zero = zetas >= 0.0 if side == "right" else zetas > 0.0
    return np.where(zero[:, None], 0.0, vals)


def _panel_sum(nodes: np.ndarray, right: np.ndarray, left: np.ndarray,
               at: np.ndarray, i_hi: int, vec_right: np.ndarray,
               vec_left: np.ndarray) -> np.ndarray:
    """Composite trapezoid of s -> X(t,s) g(s) over nodes[0..i_hi].

    `right`/`left` are one row of `kernel_rows`, `left` at the jump nodes
    `at` only, where s -> X(t,s) has the left limit X(t,tau_j) B_j; it
    equals `right` at every other node.  `vec_right[i]`/`vec_left[i]` are
    the one-sided values of g at node i.  Panels use the right values at
    their left endpoint and the left values at their right endpoint,
    which is exact up to O(h^2) on each smooth piece.
    """
    h = np.diff(nodes[: i_hi + 1])
    lo = np.einsum("sij,sj->si", right[:i_hi], vec_right[:i_hi])
    hi = np.einsum("sij,sj->si", right[1 : i_hi + 1], vec_left[1 : i_hi + 1])
    inside = (at >= 1) & (at <= i_hi)
    hi[at[inside] - 1] = np.einsum("sij,sj->si", left[inside],
                                   vec_left[at[inside]])
    return 0.5 * (h[:, None] * (lo + hi)).sum(axis=0)


@dataclass(frozen=True)
class RepresentationInput:
    """A spec together with target times and the quadrature grid.

    When `quad_grid` is omitted it is derived from the spec's own
    breakpoints (jumps, table breaks, lag images) refined to the step of
    `grid`; a supplied grid must be strictly increasing and contain every
    jump point up to the last target as well as every target time.  An
    invalid spec raises ValueError("invalid spec: ...") before any grid
    is built.
    """

    spec: SystemSpec
    target_times: tuple
    grid: StepControl = field(default_factory=StepControl)
    quad_grid: np.ndarray = None

    def __post_init__(self):
        require_valid(self.spec)
        targets = np.asarray(self.target_times, dtype=float)
        if targets.size == 0:
            raise ValueError("no target times")
        if targets.min() < 0 or targets.max() > self.spec.horizon:
            raise ValueError("target times must lie within [0, horizon]")
        object.__setattr__(self, "target_times", tuple(float(t) for t in targets))
        if self.quad_grid is None:
            nodes = quadrature_nodes(self.spec, np.unique(targets), self.grid.dt)
            object.__setattr__(self, "quad_grid", nodes)
        else:
            nodes = np.asarray(self.quad_grid, dtype=float)
            if nodes.ndim != 1 or len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
                raise ValueError("quad_grid must be strictly increasing")
            taus = self.spec.impulses.points
            taus = taus[taus <= nodes[-1]]
            for what, ts in (("jump point", taus), ("target time", targets)):
                missing = ts[locate(nodes, ts) < 0]
                if len(missing):
                    raise ValueError(f"quad_grid misses {what} {missing[0]}")
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
    require_valid(spec)
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
    nodes = quadrature_nodes(spec, targets, grid.dt, f.breaks)
    right, left, jump_nodes = kernel_rows(spec, nodes, targets)
    at = np.fromiter(jump_nodes, np.intp, len(jump_nodes))
    return _panel_sum(nodes, right[0], left[0], at, len(nodes) - 1,
                      read_piecewise(f, nodes, "right"),
                      read_piecewise(f, nodes, "left"))


def represent_solution(inp: RepresentationInput) -> np.ndarray:
    """Evaluate the variation-of-constants form at each target time.

    Returns an array of shape (len(target_times), dim) holding, per target,
    the forcing integral minus the history integrals plus the jump sum
    X(t,0) x(0) + sum_{0 < tau_j <= t} X(t,tau_j) alpha_j.
    """
    spec = inp.spec
    require_valid(spec)
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime):
            raise ValueError("frozen-time terms have no bounded-lag "
                             "representation; integrate directly instead")

    targets = np.unique(np.asarray(inp.target_times, dtype=float))
    nodes = inp.quad_grid
    right, left, jump_nodes = kernel_rows(spec, nodes, targets)
    at = np.fromiter(jump_nodes, np.intp, len(jump_nodes))
    dim = spec.dim

    r_right = read_piecewise(spec.forcing, nodes, "right", dim)
    r_left = read_piecewise(spec.forcing, nodes, "left", dim)
    phi_terms = []
    for term in spec.terms:
        theta = term.delay.theta
        if theta <= 0.0 or spec.phi is None:
            continue
        a_r = read_piecewise(term.coefficient, nodes, "right")
        a_l = read_piecewise(term.coefficient, nodes, "left")
        p_r = _phi_rows(spec.phi, nodes - theta, "right", dim)
        p_l = _phi_rows(spec.phi, nodes - theta, "left", dim)
        phi_terms.append((np.einsum("sij,sj->si", a_r, p_r),
                          np.einsum("sij,sj->si", a_l, p_l)))

    out = np.zeros((len(targets), dim))
    for row, i_hi in enumerate(locate(nodes, targets)):
        acc = _panel_sum(nodes, right[row], left[row], at, i_hi, r_right,
                         r_left)
        for g_r, g_l in phi_terms:
            acc -= _panel_sum(nodes, right[row], left[row], at, i_hi, g_r,
                              g_l)
        if spec.x0 is not None:
            acc += right[row, 0] @ spec.x0
        for idx, j in jump_nodes.items():
            acc += right[row, idx] @ spec.impulses.offsets[j]
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
    ref = solve(spec, grid).value(inp.target_times)
    gaps = np.abs(rep - ref).max(axis=1) / (1.0 + np.abs(ref).max(axis=1))
    return gaps.tolist()


def representation_residual(spec: SystemSpec, target_times,
                            grid: StepControl = StepControl()) -> float:
    """Max over the targets of `representation_residuals`."""
    return max(representation_residuals(spec, target_times, grid))
