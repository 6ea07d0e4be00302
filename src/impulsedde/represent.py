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
system, O(K) steps for all targets together), the integrand
g(s) = r(s) - sum_i A_i(s) phi(s - theta_i) as one piecewise-constant
table (`source_table`, the source `solve` adds to its derivatives), the
snap-tolerant node lookup (`locate`) and the one-sided table reads
(`read_piecewise`) all come from `integrate`, which owns the snap rule,
the lag-image rule and the history convention; this module reads neither
the forcing nor phi of a spec.
Quadrature panels are split at every jump point (s -> X(t,s) jumps there,
with left limit X(t,tau_j) B_j, which `_panel_sum` alone applies), at
every table breakpoint of the forcing and the coefficients, at the images
of phi's breakpoints, and at the backward lag images a - theta_i and
a - theta_i - theta_l (all pairs) of the targets, jump points and
coefficient breaks a, where the rows have derivative jumps, so each panel
has a smooth integrand evaluated with one-sided limits at its endpoints.
All targets share one integrand table, read on both sides at each node,
and one product with the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import (FrozenTime, SystemSpec, VectorTable, field_problems,
                     require_valid)
from .integrate import (
    StepControl,
    kernel_rows,
    locate,
    quadrature_nodes,
    read_piecewise,
    solve,
    source_table,
)

__all__ = [
    "RepresentationInput",
    "cauchy_apply",
    "represent_solution",
    "representation_residual",
    "representation_residuals",
]


def _panel_sum(spec: SystemSpec, nodes: np.ndarray, rows: np.ndarray,
               jump_nodes: dict, last, g) -> np.ndarray:
    """Composite trapezoid of s -> X(t,s) g(s) over nodes[0..last[k]] for
    every target k at once.

    `rows, jump_nodes` are what `kernel_rows` returns; `g` is a
    piecewise-constant VectorTable (or None for zero, which integrates to
    zero), read on both sides at every node.  At a jump node tau_j the
    left limit of the integrand is X(t,tau_j - 0) g = X(t,tau_j) (B_j g),
    so B_j goes into g's left value there.  Panels use the right values
    at their left endpoint and the left values at their right endpoint,
    which is exact up to O(h^2) on each smooth piece: node i weighs
    h_i / 2 times its right value plus h_{i-1} / 2 times its left one.
    The rows vanish past each target, so one product of the rows with
    these weighted values sums every target's panels, less the half panel
    after its own node.
    """
    if g is None:
        return np.zeros((len(last), spec.dim))
    g_right, g_left = (read_piecewise(g, nodes, side)
                       for side in ("right", "left"))
    at, B = list(jump_nodes), spec.impulses.matrices[list(jump_nodes.values())]
    g_left[at] = np.einsum("jik,jk->ji", B, g_left[at])
    h = 0.5 * np.diff(nodes)
    right = np.append(h, 0.0)[:, None] * g_right
    v = right + np.append(0.0, h)[:, None] * g_left
    out = (rows @ v[:, :, None]).sum(axis=1)
    out -= rows[np.arange(len(last)), last] @ right[last, :, None]
    return out[..., 0]


@dataclass(frozen=True)
class RepresentationInput:
    """A spec together with target times and the quadrature grid.

    When `quad_grid` is omitted it is derived from the spec's own
    breakpoints (jumps, table breaks, lag images) refined to the step of
    `grid`; a supplied grid must start at 0, be strictly increasing and
    contain every jump point up to the last target as well as every target
    time.  An invalid spec raises ValueError("invalid spec: ...") before
    any grid is built.
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
        if not np.all((targets >= 0) & (targets <= self.spec.horizon)):
            raise ValueError("target times must lie within [0, horizon]")
        object.__setattr__(self, "target_times", tuple(float(t) for t in targets))
        if self.quad_grid is None:
            nodes = quadrature_nodes(self.spec, np.unique(targets), self.grid.dt)
            object.__setattr__(self, "quad_grid", nodes)
        else:
            nodes = np.asarray(self.quad_grid, dtype=float)
            if (nodes.ndim != 1 or len(nodes) < 2
                    or not np.all(np.diff(nodes) > 0)
                    or locate(np.zeros(1), nodes[0]) < 0):
                raise ValueError("quad_grid must increase strictly from 0")
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

    `f` is a piecewise-constant VectorTable on [0, t] (or None for zero),
    held to the rule `validate` applies to a spec's forcing: one finite
    value of width dim per break, and finite, strictly increasing breaks;
    a table that breaks it raises ValueError naming what is wrong.
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
    problems = field_problems("f", f, (spec.dim,))
    if problems:
        raise ValueError("; ".join(problems))
    if t == 0.0:
        return np.zeros(spec.dim)

    targets = np.array([t])
    nodes = quadrature_nodes(spec, targets, grid.dt, f.breaks)
    rows, jump_nodes = kernel_rows(spec, nodes, targets)
    return _panel_sum(spec, nodes, rows, jump_nodes, [len(nodes) - 1], f)[0]


def represent_solution(inp: RepresentationInput) -> np.ndarray:
    """Evaluate the variation-of-constants form at each target time.

    Returns an array of shape (len(target_times), dim) holding, per target,
    the forcing integral minus the history integrals plus the jump sum
    X(t,0) x(0) + sum_{0 < tau_j <= t} X(t,tau_j) alpha_j.
    """
    spec = inp.spec
    require_valid(spec)
    if any(isinstance(term.delay, FrozenTime) for term in spec.terms):
        raise ValueError("frozen-time terms have no bounded-lag "
                         "representation; integrate directly instead")

    targets = np.unique(np.asarray(inp.target_times, dtype=float))
    nodes = inp.quad_grid
    rows, jump_nodes = kernel_rows(spec, nodes, targets)
    out = _panel_sum(spec, nodes, rows, jump_nodes, locate(nodes, targets),
                     source_table(spec))
    # the jump sum, with node 0 as the jump tau_0 = 0 carrying alpha_0 = x(0)
    alphas = np.concatenate((spec.x0[None],
                             spec.impulses.offsets[list(jump_nodes.values())]))
    out += np.einsum("tkij,kj->ti", rows[:, [0, *jump_nodes]], alphas)

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
