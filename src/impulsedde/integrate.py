"""Jump-aware dense-output integration by the method of steps.

Solves x'(t) + sum_i A_i(t) x[h_i(t)] = r(t) with jumps
x(tau_j) = B_j x(tau_j - 0) + alpha_j using the classical 4-stage
Runge-Kutta scheme with cubic Hermite dense output.  Delayed values are
read from the dense history; every point where x, x' or x'' jumps (jump
points, table breaks and their lag images up to order 2) is a mandatory
grid node, so interpolants are never evaluated across a breakpoint.

One engine, batched over the restart time s, computes everything: the
fundamental matrix X(t, s) of the s-curtailed equation (zero history below
s, X(s, s) = identity, impulses only at tau_j > s, X(t, s) = 0 for t < s);
run over the reflected adjoint system, the rows s -> X(t, s) for a few t at
once; and the solution itself, one column from x0 in the system's own
dimension, whose delayed parts take the source g (the forcing less the
history reads) and whose jumps add the offsets alpha_j after B_j.

The engine steps a lag window per pass: inside [a, a + theta_min) every
delayed read lands on history that is already computed (Bellen and
Zennaro 2003, the method of steps), so the window's reads are one gather
and one Hermite blend, one per node, and each RK4 step is the affine map
y_{k+1} = P_k y_k + c_k, with c_k computed in bulk and P_k the RK4
polynomial of the zero-lag part; a doubling scan composes that recurrence
between jump and activation nodes, so no loop runs step by step.  A lag
of fewer than `_SHORT_LAG` steps does not cut the windows: its reads stay
within the last few nodes, whose ring rows, y and f each, form a lifted
state that evolves by one affine map over a run of like steps
(`_lift_runs`, `_lift_scan`), so the windows end at the smallest long
lag.  Before its first step a sweep searches its grid once, at the lag
images of its nodes, events and coefficient breaks (`_reach`): that
gives the depth of its history ring, its longest window, and the nodes
whose two sides can differ.  The sweep's grid holds each of those twice,
a left copy and a right copy joined by a step of length zero, so every
grid node has one value and one derivative; no later step changes that
grid.

This module owns the two numerical rules the representation layer shares:
the snap rule (`_SNAP`), applied through one lookup (`locate`, one search
per time, `_snap_search`) and one table reader (`read_piecewise`), and
the lag-image rule (`_image_shifts`), applied forward by
`_collect_breaks` and backward by `quadrature_nodes`.  It also owns the
source g = r - sum_i A_i phi(. - theta_i) with phi = 0 on [0, inf)
(`source_table`), which `solve` steps and the representation integrates.
`represent` reaches them through those names and `kernel_rows`; none of
them is exported from the package.  Dense output is read by one plan
(`_read_plan`), for the sweep's delayed reads and for `Trajectory.value`,
which answers a float or an array of times in one call.  Every public
entry point passes the spec through `system.require_valid` first.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .system import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    ImpulseSchedule,
    MatrixTable,
    SystemSpec,
    VectorTable,
    is_left,
    require_valid,
)

__all__ = [
    "StepControl",
    "Trajectory",
    "FundamentalMatrix",
    "NumericalError",
    "solve",
    "fundamental_matrix",
    "fundamental_grid",
]

# absolute/relative snap tolerance for matching times to grid nodes and
# table breaks (see `locate`); catches 1-ulp drift of expressions like
# (tau + theta) - theta, five orders below any step size in use
_SNAP = 32.0 * float(np.finfo(float).eps)


class NumericalError(RuntimeError):
    """Raised when the state stops being finite (overflow / NaN)."""


@dataclass(frozen=True)
class StepControl:
    """Fixed base step for the one-step scheme (refined at breakpoints)."""

    dt: float = 1e-3

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"step size must be positive and finite, got {self.dt}")


def locate(points: np.ndarray, ts) -> np.ndarray:
    """Index of the entry of the sorted array `points` that each t snaps
    to, or -1.

    The snap rule: t matches p when |t - p| <= _SNAP * max(1, |t|, |p|).
    On ties the lowest index wins.  Returns an array shaped like `ts`.
    """
    ts = np.asarray(ts, dtype=float)
    return _snap_search(points, ts.reshape(-1))[3].reshape(ts.shape)


def _snap_search(points: np.ndarray, ts: np.ndarray) -> tuple:
    """One right-sided search of the sorted array `points` at the 1-d times
    `ts`: (hi, below, above, exact), with hi = searchsorted(points, ts,
    side="right"), below and above the entries at hi - 1 and hi (clipped
    to the array), and exact `locate`'s answer.

    The snap test is monotone in the distance, so of the entries below t
    only the nearest can snap to it first, and likewise above; where t
    equals an entry, the one before may snap too (anchor pinning in
    `_collect_breaks` can leave two nodes within one snap window), and
    the lower wins.
    """
    N = len(points)
    hi = np.searchsorted(points, ts, side="right")
    below = points.take(hi - 1, mode="clip")
    above = points.take(hi, mode="clip")
    # _SNAP is a power of two, so it scales a maximum exactly
    tol = _SNAP * np.maximum(1.0, np.abs(ts))
    exact = np.where((above - ts <= np.maximum(tol, _SNAP * np.abs(above)))
                     & (hi < N), hi, -1)
    hit = (ts - below <= np.maximum(tol, _SNAP * np.abs(below))) & (hi > 0)
    exact = np.where(hit, hi - 1, exact)
    on = np.flatnonzero((below == ts) & (hi > 1))
    if len(on):
        p = points[hi[on] - 2]
        exact[on[ts[on] - p <= np.maximum(tol[on], _SNAP * np.abs(p))]] -= 1
    return hi, below, above, exact


def _pieces(breaks: np.ndarray, ts: np.ndarray, left: bool) -> np.ndarray:
    """Piece index of a table at each t; a t that snaps to a break is read
    as that break, so a lag image fl(fl(b + theta) - theta) of a break b,
    or a grid node that won the snap merge against b, takes b's pieces."""
    hit = locate(breaks, ts)
    ts = np.where(hit >= 0, breaks[hit], ts)
    k = np.searchsorted(breaks, ts, side="left" if left else "right")
    return np.maximum(k - 1, 0)


def read_piecewise(sig, ts, side: str = "right", dim: int = 0) -> np.ndarray:
    """A signal or coefficient at the times `ts`, one-sided at table breaks.

    `sig` is None (zero, of length `dim`), a constant array or a
    Matrix/VectorTable; the result has shape ts.shape + the value's shape.
    `side` is "right" or "left"; any other raises ValueError.
    """
    left, ts = is_left(side), np.asarray(ts, dtype=float)
    if sig is None:
        return np.zeros(ts.shape + (dim,))
    if isinstance(sig, (MatrixTable, VectorTable)):
        return sig.values[_pieces(sig.breaks, ts, left)]
    sig = np.asarray(sig, dtype=float)
    return np.broadcast_to(sig, ts.shape + sig.shape)


def _hermite_weights(xi, h) -> np.ndarray:
    """The cubic Hermite weights of y(0), y'(0), y(h) and y'(h) at the
    point xi h of [0, h], as the rows of a (4,) + xi.shape array."""
    xi = np.asarray(xi, dtype=float)
    xi2 = xi * xi
    xi3 = xi2 * xi
    w = np.empty((4,) + xi.shape)
    w0, w1, w2, w3 = (w[q, ...] for q in range(4))
    np.multiply(xi2, 3.0, out=w2)
    np.subtract(w2, 2.0 * xi3, out=w2)  # -2 xi^3 + 3 xi^2
    np.subtract(1.0, w2, out=w0)  # 2 xi^3 - 3 xi^2 + 1, the same bits
    np.multiply(xi2, 2.0, out=w1)
    np.subtract(xi3, w1, out=w1)
    w1 += xi
    w1 *= h
    np.subtract(xi3, xi2, out=w3)
    w3 *= h
    return w


def _positive_lags(spec: SystemSpec) -> list:
    return [t.delay.theta for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta > 0]


def _image_shifts(lags: list) -> list:
    """0, theta_i and theta_i + theta_l: a point and its lag images up to
    the second generation."""
    return [0.0] + lags + [a + b for i, a in enumerate(lags) for b in lags[i:]]


def _collect_breaks(spec: SystemSpec, t_start: float, t_end: float,
                    extra=()) -> np.ndarray:
    """Sorted mandatory grid nodes in [t_start, t_end].

    RK4 keeps fourth order only if every point where x, x' or x'' jumps is
    a node, and a lag image a + theta_i of a point where x^(k) jumps is one
    where x^(k+1) jumps.  x itself jumps at t_start and at the jump points,
    and (when the history is phi rather than zero) the delayed reads jump
    at phi's table breaks, so these get their images a + theta_i and
    a + theta_i + theta_l; x' jumps at coefficient and forcing table
    breaks b, which get b + theta_i.  Frozen times, the endpoints and
    `extra` (forced in as exact nodes) complete the set.
    """
    lags = _positive_lags(spec)
    taus = spec.impulses.points
    order0 = [t_start, *taus]
    if isinstance(spec.phi, VectorTable):
        order0.extend(spec.phi.breaks)
    order1 = []
    for term in spec.terms:
        if isinstance(term.coefficient, MatrixTable):
            order1.extend(term.coefficient.breaks)
    if isinstance(spec.forcing, VectorTable):
        order1.extend(spec.forcing.breaks)
    pts = [t_end, *extra]
    pts.extend(t.delay.c for t in spec.terms if isinstance(t.delay, FrozenTime))
    pts.extend(np.add.outer(order0, _image_shifts(lags)).ravel())
    pts.extend(np.add.outer(order1, [0.0] + lags).ravel())

    arr = np.asarray(pts, dtype=float)
    arr = arr[(arr >= t_start) & (arr <= t_end)]
    arr = np.unique(arr)
    # merge clusters closer than the snap tolerance, then pin jump points and
    # requested extras to their exact float values
    tol = _SNAP * max(1.0, t_end)
    keep = [arr[0]]
    for p in arr[1:]:
        if p - keep[-1] > tol:
            keep.append(p)
    out = np.asarray(keep)
    for anchor in list(taus[(taus >= t_start) & (taus <= t_end)]) + \
            [e for e in extra if t_start <= e <= t_end]:
        i = int(np.argmin(np.abs(out - anchor)))
        out[i] = anchor
    return np.unique(out)


def _build_nodes(breaks: np.ndarray, dt: float) -> np.ndarray:
    """Subdivide each inter-break segment into equal steps of length <= dt.

    Node i of the segment [a, b] of k steps is a + i ((b - a) / k), and
    its last node is b: `np.linspace(a, b, k + 1)`'s arithmetic, in one
    pass over every segment.
    """
    a, delta = breaks[:-1], np.diff(breaks)
    steps = np.maximum(np.ceil(delta / dt - 1e-9), 1.0).astype(np.intp)
    ends = np.cumsum(steps)
    seg = np.repeat(np.arange(len(steps)), steps)
    i = np.arange(1, len(seg) + 1, dtype=float)
    i -= np.repeat(ends - steps, steps)
    nodes = np.empty(len(seg) + 1)
    nodes[0] = breaks[0]
    np.multiply(i, (delta / steps)[seg], out=nodes[1:])
    nodes[1:] += a[seg]
    nodes[ends] = breaks[1:]
    return nodes


def _jump_map(schedule: ImpulseSchedule, nodes: np.ndarray) -> dict:
    """Map node index -> impulse index for every jump point on the grid
    after its first node (node 0 carries no jump: columns start there
    post-jump)."""
    idx = locate(nodes, schedule.points)
    return {int(i): j for j, i in enumerate(idx) if i > 0}


def _prepare_grid(spec: SystemSpec, t_start: float, t_end: float, dt: float,
                  extra=()):
    """Grid nodes on [t_start, t_end] and their jump map (see `_jump_map`):
    the mandatory breaks refined to equal steps of at most dt and the
    smallest positive lag."""
    dt_eff = min([dt] + _positive_lags(spec))
    breaks = _collect_breaks(spec, t_start, t_end, extra)
    with np.errstate(over="ignore"):
        steps = np.ceil(np.diff(breaks) / dt_eff - 1e-9).sum()
    if not steps * 8 <= np.iinfo(np.intp).max:  # as in `periodic_count`
        raise ValueError(f"dt = {dt_eff!r} gives {steps:.3g} grid steps on "
                         f"[{t_start:g}, {t_end:g}], more than an array holds")
    nodes = _build_nodes(breaks, dt_eff)
    return nodes, _jump_map(spec.impulses, nodes)


def quadrature_nodes(spec: SystemSpec, targets: np.ndarray, dt: float,
                     extra_breaks=()) -> np.ndarray:
    """Quadrature grid on [0, max target] for the rows s -> X(t, s).

    The rows solve the adjoint equation backward in s (see
    `kernel_rows`), so their breaks mirror those of `_collect_breaks`:
    a row jumps at its target and at the jump points, and the coefficient
    breaks enter through A_i(s + theta_i).  Each such anchor a gets the
    images a - u for u in `_image_shifts` (a - theta_i and
    a - theta_i - theta_l over all pairs), where a row or its first two
    derivatives may jump; they are pinned, with `extra_breaks`, as exact
    nodes of the `solve` grid, those in [0, max target] only
    (`_collect_breaks` drops the rest).
    """
    t_end = float(targets[-1])
    anchors = [targets, spec.impulses.points]
    anchors += [t.coefficient.breaks for t in spec.terms
                if isinstance(t.coefficient, MatrixTable)]
    images = np.subtract.outer(np.concatenate(anchors),
                               _image_shifts(_positive_lags(spec)))
    extra = np.unique(np.concatenate(
        (np.asarray(extra_breaks, dtype=float), images.ravel())))
    nodes, _ = _prepare_grid(spec, 0.0, t_end, dt, extra=extra)
    return nodes


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-cubic right-continuous dense output on [start, t_end].

    Each step [t_nodes[k], t_nodes[k+1]] carries the Hermite cubic through
    (y_post[k], f_right[k]) and (y_pre[k+1], f_left[k+1]); interpolants are
    never evaluated across a node.  At jump nodes y_post = B y_pre + alpha.
    Queries below `start` are answered by phi (None, as for curtailed
    solutions, reads as zero).
    """

    t_nodes: np.ndarray  # (K+1,) strictly increasing, t_nodes[0] = start
    y_post: np.ndarray  # (K+1, n) right-continuous values
    y_pre: np.ndarray  # (K+1, n) left limits (y_pre[0] = y_post[0])
    f_right: np.ndarray  # (K+1, n) derivative at node k into step k
    f_left: np.ndarray  # (K+1, n) derivative at node k out of step k-1
    jump_nodes: dict  # node index -> impulse index
    dim: int
    start: float
    t_end: float
    phi: object  # history signal below start (None = zero)

    def value(self, t, side: str = "right") -> np.ndarray:
        """Dense output at a time or an array of times, shape
        t.shape + (dim,), read by the engine's rule (`_read_plan`).

        A time that snaps to a node reads y_post there, or y_pre when
        side is "left" (phi's left limit at node 0); a time below `start`
        reads phi on that side, any other the step's Hermite cubic.  An
        unsnapped time past `t_end`, or a side other than "right" or
        "left", raises ValueError.
        """
        left, t = is_left(side), np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        exact, interval, w = _read_plan(self.t_nodes, ts)
        hit = exact >= 0
        beyond = ~hit & ~(ts <= self.t_end)
        if beyond.any():
            raise ValueError(
                f"query t={ts[beyond][0]} beyond horizon {self.t_end}")
        i = np.clip(interval, 0, len(self.t_nodes) - 2)
        w = w[:, :, None]
        out = (w[:, 0] * self.y_post[i] + w[:, 1] * self.f_right[i]
               + w[:, 2] * self.y_pre[i + 1] + w[:, 3] * self.f_left[i + 1])
        out[hit] = (self.y_pre if left else self.y_post)[exact[hit]]
        past = np.where(hit, (exact == 0) & left, ts < self.start)
        if past.any():
            out[past] = read_piecewise(
                self.phi, np.where(hit, self.start, ts)[past], side, self.dim)
        return out.reshape(t.shape + (self.dim,))


@dataclass(frozen=True)
class FundamentalMatrix:
    """Samples X(t, s) of the s-curtailed fundamental matrix on a grid.

    samples[a, b] = X(t_grid[a], s_grid[b]); identity on the diagonal,
    zero for t < s, and X(tau_j, s) = B_j X(tau_j - 0, s) across jumps.
    Dense per-column output is available from fundamental_matrix().
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    samples: np.ndarray  # (T, S, n, n)

    def at(self, t: float, s: float) -> np.ndarray:
        a, b = int(locate(self.t_grid, t)), int(locate(self.s_grid, s))
        if a < 0 or b < 0:
            raise KeyError(f"(t={t}, s={s}) not on the sampled grid")
        return self.samples[a, b]


def _jump_matrices(spec: SystemSpec, jump_nodes: dict) -> dict:
    return {i: spec.impulses.matrices[j] for i, j in jump_nodes.items()}


def _check_causal(spec: SystemSpec, t0: float) -> None:
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime) and term.delay.c > t0:
            raise ValueError(
                f"frozen-time term at c={term.delay.c} would be read before c "
                f"(the sweep starts at {t0}); the equation is not causal there")


def _curtailed(spec: SystemSpec) -> SystemSpec:
    """Homogeneous version: zero forcing, zero history, no jump offsets."""
    sch = spec.impulses
    hom_sch = ImpulseSchedule(sch.points, sch.matrices,
                              np.zeros_like(sch.offsets), sch.dim)
    return SystemSpec(dim=spec.dim, terms=spec.terms, impulses=hom_sch,
                      forcing=None, phi=None, x0=None, horizon=spec.horizon)


def source_table(spec: SystemSpec):
    """The source g(s) = r(s) - sum_i A_i(s) phi(s - theta_i) of the
    variation-of-constants form, with phi(zeta) = 0 for zeta >= 0, as a
    VectorTable on [0, horizon), or None when the spec has no forcing and
    no lagged history read.

    g is constant between the breaks of r, of every coefficient table, of
    the lags theta_i and of phi's lag images b + theta_i, all of them
    nodes of `solve`'s grid, and each piece holds g at its midpoint.
    `solve`'s sweep adds it to every derivative, with its breaks as
    two-sided nodes, and the representation integrals read it on both
    sides at each quadrature node.
    """
    lagged = [term for term in spec.terms if spec.phi is not None
              and isinstance(term.delay, ConstantLag) and term.delay.theta > 0]
    if spec.forcing is None and not lagged:
        return None
    cuts = [0.0]
    for table in [spec.forcing] + [term.coefficient for term in spec.terms]:
        if isinstance(table, (MatrixTable, VectorTable)):
            cuts.extend(table.breaks)
    # each lag theta_i and the images b + theta_i of phi's breaks
    phi_breaks = spec.phi.breaks if isinstance(spec.phi, VectorTable) else []
    for term in lagged:
        cuts.extend(np.append(phi_breaks, 0.0) + term.delay.theta)
    breaks = np.unique(cuts)
    breaks = breaks[(breaks >= 0.0) & (breaks < spec.horizon)]
    mids = 0.5 * (breaks + np.append(breaks[1:], spec.horizon))
    g = read_piecewise(spec.forcing, mids, "right", spec.dim)
    for term in lagged:
        theta = term.delay.theta
        p = read_piecewise(spec.phi, mids - theta, "right", spec.dim)
        ap = np.matmul(read_piecewise(term.coefficient, mids), p[:, :, None])
        g = g - np.where((mids < theta)[:, None], ap[:, :, 0], 0.0)
    return VectorTable(breaks, g)


def _trajectory(nodes: np.ndarray, jump_nodes: dict, dense, dim: int,
                col: int, **history) -> Trajectory:
    """Trajectory of column `col` of a dense single sweep: views into the
    sweep's own arrays, so no copy is made."""
    y_post, y_pre, f_right, f_left = (a[:, 0, :, col] for a in dense)
    for arr in (nodes, y_post, y_pre, f_right, f_left):
        arr.setflags(write=False)
    return Trajectory(t_nodes=nodes, y_post=y_post, y_pre=y_pre,
                      f_right=f_right, f_left=f_left, jump_nodes=jump_nodes,
                      dim=dim, **history)


def solve(spec: SystemSpec, grid: StepControl = StepControl()) -> Trajectory:
    """Numerical solution of the full problem on [0, horizon].

    One dense sweep of the spec from x0, in its own dimension: the source
    g of `source_table`, the forcing less the history reads, enters every
    delayed part, and the offsets alpha_j follow B_j at the jumps.
    """
    require_valid(spec)
    nodes, jump_nodes = _prepare_grid(spec, 0.0, spec.horizon, grid.dt)
    offsets = {i: spec.impulses.offsets[j] for i, j in jump_nodes.items()}
    dense = _batch_columns(spec, nodes, _jump_matrices(spec, jump_nodes), [0],
                           [], start=spec.x0[:, None], dense=True,
                           source=source_table(spec), offsets=offsets)
    return _trajectory(nodes, jump_nodes, dense, spec.dim, 0, start=0.0,
                       t_end=spec.horizon, phi=spec.phi)


def fundamental_matrix(spec: SystemSpec, s: float,
                       grid: StepControl = StepControl()) -> list[Trajectory]:
    """Columns of X(., s): one dense sweep of the curtailed system from
    X(s, s) = I on a grid that starts at s."""
    if not (0.0 <= s < spec.horizon):
        raise ValueError(f"restart time s={s} outside [0, horizon={spec.horizon})")
    require_valid(spec)
    hom = _curtailed(spec)
    nodes, jump_nodes = _prepare_grid(hom, s, spec.horizon, grid.dt)
    dense = _batch_columns(hom, nodes, _jump_matrices(hom, jump_nodes), [0],
                           [], dense=True)
    return [_trajectory(nodes, jump_nodes, dense, spec.dim, k, start=s,
                        t_end=spec.horizon, phi=None)
            for k in range(spec.dim)]


# ---------------------------------------------------------------------------
# the RK4 engine, batched over restart columns on one shared grid

# rows of a grid node's slot in the history ring: its value and derivative
_Y, _F = range(2)
_QUAD = np.arange(4)
# byte budget of one lag window's gathered reads and stage arrays, two
# reads per step and lag; windows of a few dozen steps still pay their
# fixed cost in numpy calls, which 512 KiB against 256 KiB cuts by a third
# on the kernel-sweep benchmark
_WINDOW_BYTES = 1 << 19
# byte budget of one block of steps, whose read plans and coefficients
# are set up at once; a step plans two reads per lag (its start node's and
# its mid) but `per_step` counts three, 192 B a lag, and caps a step at
# 1 KiB, so a block holds at least 512 steps.  The count sets the blocks'
# lengths, and with them the outputs' rounding (about 1e-13), so it stays.
_PLAN_BYTES = 1 << 19
# a lag shorter than this many steps is short: its reads land in the last
# few nodes, which the sweep lifts into its state (`_lift_runs`) rather
# than cutting windows that short.  Lifting stops paying at a lag of about
# 8 steps for n = 3 (12 for n = 1) on a 2-vCPU host.
_SHORT_LAG = 8
# the most numbers per column a lifted state may hold: its maps are dense
# in them, and lifting stopped paying between 121 and 154 (n = 11 at lags
# of 2 and 3 steps).  That was measured on states of three rows per node,
# (3r + 2) n numbers, and is not re-tuned for the two rows they hold now.
_LIFT_SIZE = 150
# the fewest steps of a lifted run, below which its probe does not pay
_LIFT_STEPS = 16


def _reach(nodes: np.ndarray, thetas: np.ndarray, long: np.ndarray,
           events: np.ndarray, coef_breaks: np.ndarray, cap: int,
           dense: bool) -> tuple:
    """(D, wmax, cand): the ring depth and the longest window, counted in
    steps of the sweep's grid, and the sorted nodes that the grid doubles,
    from searches of `nodes` at the lag images of its nodes, events and
    coefficient breaks.  This is the one place that decides which nodes
    have two sides.

    The doubled nodes are the events, the nodes whose read snaps to an
    event (one per event and lag, among the nodes around the event's
    image, by `locate`) and, among the nodes 1 .. K - 1, the node after
    each coefficient break's step mid: there the steps on either side
    take different coefficients.  The sweep's grid holds each of them
    twice, its left copy and then its right copy (`_batch_columns`), so
    node j is grid node j + (doubled nodes up to j), or one less for a
    left copy.

    At grid step k the oldest grid node a read takes is the first copy of
    the last node at or before t_k - theta, theta the largest lag: D is
    the widest such reach plus three slots, which `_plan` checks; a dense
    sweep's ring holds every grid node.  A window from grid node a ends
    before the first step whose end read, at t_{k+1} - theta, theta the
    smallest long lag, lies past node a, so it holds at most the grid
    nodes up to t_a + theta, one more where a read snaps to node a, and
    one more where two nodes sit within a snap window; wmax is the fewer
    of that and `cap`.  It is searched from the nodes that are not left
    copies, as a window from a left copy reaches no further than one from
    its right copy; and any span of theta holds at least theta / h steps,
    h the longest step, so a cap below that needs no search.
    """
    K = len(nodes) - 1
    # a right-sided search lands at most one node past the left-sided one,
    # so these five nodes hold the four around each image
    near = np.searchsorted(nodes, np.add.outer(nodes[events], thetas),
                           side="right")
    k = np.clip(near[:, :, None] + np.arange(-3, 2), 0, K)
    hit = locate(nodes, nodes[k] - thetas[:, None])
    snaps = events.take(np.searchsorted(events, hit), mode="clip") == hit
    # the node after each coefficient break's step mid, by `_plan`'s mids
    j = np.clip(np.searchsorted(nodes, coef_breaks, side="right"), 1, K)
    mids = nodes[j - 1] + 0.5 * (nodes[j] - nodes[j - 1])
    j -= mids > coef_breaks
    cand = np.unique(np.concatenate((events, k[snaps], j[(j > 0) & (j < K)])))
    D, wmax = K + len(cand) + 1 if dense else 2, cap
    if not len(thetas):
        return D, wmax, cand
    # each node's right copy on the grid, its left copy one before
    marks = np.bincount(cand, minlength=K + 1)
    right = np.cumsum(marks) + np.arange(K + 1)
    if not dense:
        back = np.searchsorted(nodes, nodes[:K] - thetas.max(), side="right")
        D = int(np.max(right[:K] - (right - marks)[np.maximum(back - 1, 0)],
                       initial=-1)) + 3
    if len(long) and K and cap > long.min() / np.diff(nodes).max():
        ahead = np.searchsorted(nodes, nodes[:K] + long.min(), side="right")
        wmax = min(cap, int(np.max(right[ahead - 1] - right[:K])) + 2)
    return D, wmax, cand


def _copy(cand: np.ndarray, j, side: str = "right"):
    """The grid index of node j's right copy, or with side "left" of its
    first copy, on the sweep's grid, which holds the nodes `cand` twice
    (`_reach`); -1 stays -1."""
    return j + np.searchsorted(cand, j, side=side)


def _read_plan(nodes: np.ndarray, us: np.ndarray):
    """Lookup data for delayed reads at the times `us`.

    Returns (exact, interval, weights): `exact[k]` is the node us[k] snaps
    to (`locate`; -1 when us[k] is interior), `interval[k]` the
    enclosing-interval index, and `weights[k]` the four Hermite weights on
    that interval, (1, 0, 0, 0) where us[k] snaps.  Weight rows where
    `interval < 0` are finite filler.  Both come from `locate`'s one
    search (`_snap_search`).
    """
    hi, below, above, exact = _snap_search(nodes, us)
    # outside the grid, and on a one-node grid, the interval is empty
    h = above - below
    h[h == 0.0] = 1.0
    xi = (us - below) / h
    xi[exact >= 0] = 0.0
    return exact, hi - 1, _hermite_weights(xi, h).T


def _read_rows(st: _Sweep, plan):
    """Rows of `_Sweep.rows_of` and blend weights of planned delayed reads
    on the sweep's grid.

    A read is sum_q weights[:, q] * row rows[:, q]; grid node j's ring slot
    starts at row 2 j modulo the ring's 2 R rows.  A read inside the step
    after grid node i blends y and f of nodes i and i + 1, the four ring
    rows from 2 i on; where node i + 1 is a left copy, they are its left
    limits.  A read that snaps to node i takes y[i] as the first of four
    rows, with the plan's weights (1, 0, 0, 0).  Reads of values zero in
    every column -- before `k_start`, the first activation, its left copy
    included, or before the grid -- take the zero rows at `zero_row`.

    The ring is taken modulo once per read, so a read's rows may run up to
    three rows past its end, into the first spare slot, which holds the
    node of slot 0 (`_tail`) while the node is within the ring's depth.
    A dense sweep has no spare slots and never wraps.

    Returns (rows, weights, node, need): `node` is the node whose data the
    read takes (huge for zero reads) and `need` the node the sweep must
    have reached before the read is ready.
    """
    exact, interval, weights = plan
    hit = exact >= 0
    node = np.where(hit, exact, interval)
    zero = node < st.k_start
    rows = (node * 2 % (2 * st.R))[:, None] + _QUAD
    rows[zero] = st.zero_row + _QUAD
    return (rows, weights, np.where(zero, np.iinfo(np.intp).max, node),
            node + ~hit)


def _affine_scan(D: np.ndarray, C: np.ndarray) -> tuple:
    """Compose the affine steps y -> y + D[k] y + C[k], k = 0 .. w - 1.

    Returns (D', C'), with y + D'[k] y + C'[k] the value after steps
    0 .. k: an inclusive Hillis-Steele scan (Blelloch 1990) in
    ceil(log2 w) passes, where step 2 after step 1 is
    (D2 + D1 + D2 D1, C2 + C1 + D2 C1).  D = P - I is kept apart from the
    identity, as in the steps themselves; D and C share one array, so a
    pass is one product and two sums.
    """
    n = D.shape[-1]
    DC = np.concatenate((D, C), axis=-1)
    o = 1
    while o < len(DC):
        later = DC[o:, :, :n] @ DC[:-o]
        later += DC[:-o]
        DC[o:] += later
        o *= 2
    return DC[:, :, :n], DC[:, :, n:]


class _Sweep:
    """The state of one chunk of columns of a sweep (`_batch_columns`).

    It holds the sweep's constants, which every chunk shares, and the
    chunk's own rows `rows_of`, window buffers, activations and events.
    `_width`, `_at_node`, `_plan` and `_window` each run one part of the
    sweep on it.

    `rows_of` holds, in this order, the history ring `H`, two rows per
    slot, the y and f of one grid node, then the zero rows, so that one
    gather serves every lag's read.  A frozen term's x(c) is fixed before
    the first step (`_check_causal`): `frozen` keeps the coefficients of
    the terms whose node is the chunk's start, where x(c) is `y0`, the
    start value, in the columns activated there and zero in the rest;
    other frozen terms read zero (`_plan` adds them as a source).  The
    grid holds
    each node with two sides twice (`_reach`): first its left copy, with
    its left limits y_pre and f_left, then its right copy, with y_post and
    f_right, joined by a step of length zero; `lefts` lists the left
    copies, and `left` marks them, with one False past the last grid node
    for a read of no node (-1).  The events -- the jumps and the chunk's
    activations -- sit at right copies.  `_tail` samples a forward sweep
    at right copies and a reflected one at first copies.
    """

    def __init__(self, shared: dict, c0: int, c1: int):
        self.__dict__.update(shared)
        n, Sc = self.n, c1 - c0
        self.c0, self.Sc = c0, Sc
        self.s_list = self.s_indices[c0:c1].tolist()
        self.k_start = self.s_list[0]
        self.rows_of = np.zeros((2 * self.slots, n, Sc * self.m))
        self.H = self.rows_of.reshape(-1, 2, n, Sc * self.m)
        # window buffers, reused by every window of the chunk: the gathered
        # rows (every column: a gather from a column prefix would copy the
        # ring first), their blends, the delayed parts d of each node's and
        # each step's read, and the stage sums c
        size = (self.wmax + 1) * n * Sc * self.m
        self.bufs = (np.empty(8 * self.nt * size),
                     np.empty(2 * self.nt * size), np.empty(2 * size),
                     np.empty(size))
        self.frozen = [c for j, c in self.frozen if j == self.k_start]
        self.y0 = np.tile(self.start, (1, _width(self, self.k_start)))
        # the chunk's columns that node s activates, as a local range
        self.activate = {s: (bisect.bisect_left(self.s_list, s),
                             _width(self, s)) for s in self.s_list}
        self.events = sorted(j for j in set(self.activate) | set(self.jumps)
                             if j > self.k_start)


def _width(st: _Sweep, j: int) -> int:
    """Chunk columns already activated at node j."""
    return bisect.bisect_right(st.s_list, j)


def _at_node(st: _Sweep, j: int, slot: int) -> None:
    """The events of grid node j, a right copy whose slot holds the value
    of its left copy: its activation, then its jump and the jump's offset.
    The forward order jumps the columns activated before node j, the
    reflected order those activated at node j too.  The one handler of an
    event node, at the sweep's start and in the window that reaches it
    (a node without events is left as it is); it changes values only, and
    `_tail` takes the samples."""
    n, m, Sc = st.n, st.m, st.Sc
    y = st.H[slot, _Y]
    if j in st.activate:
        lo, hi = st.activate[j]
        y.reshape(n, Sc, m)[:, lo:hi] = st.start[:, None, :]
    B = st.jumps.get(j)
    if B is not None:
        Wm = _width(st, j - 1 + st.reflected) * m
        y[:, :Wm] = B @ y[:, :Wm]
        if j in st.offsets:
            y[:, :Wm] += st.offsets[j][:, None]


def _rk4_maps(h: np.ndarray, M, n: int) -> np.ndarray:
    """The RK4 maps [P - I | G] (w, n, 4n) of steps of lengths h (w,) with
    zero-lag parts M (w, n, n), or None for none.

    On y = I with no delayed part the stages give P - I, the degree-4
    Taylor polynomial of e^{-hM} less I (Butcher 2008), kept apart from I
    so that its rounding does not drift y by an ulp every step; on y = 0
    they give c = G [d1; d23; d4] with
    G = h/6 [-I + hM - (hM)^2/2 + (hM)^3/4 | -4I + 2hM - (hM)^2/2 | -I].
    Both are polynomials in h: a step's maps are its powers h/6 [1, h, h^2,
    h^3] times a table of coefficients, one table and one product per run
    of steps with one M, in place of the stage chain's (w, n, n)
    temporaries.  In powers of h/6 each coefficient of G is a power of M
    times a power of two, so without M, G equals what the stages give.
    Each step keeps its own h: one h per run of like steps broke the
    1e-13 bound of the second-generation-kink exactness test.
    """
    w = len(h)
    hp = np.repeat(h[:, None], 4, axis=1)
    hp[:, 0] /= 6.0
    np.multiply.accumulate(hp, axis=1, out=hp)
    if M is None:
        M, cuts = np.zeros((1, n, n)), []
    else:
        cuts = np.flatnonzero((M[1:] != M[:-1]).any(axis=(1, 2))) + 1
        cuts = cuts.tolist()
        M = M[[0] + cuts]
    eye = np.eye(n)
    M2 = M @ M
    M3 = M2 @ M
    T = np.zeros((len(M), 4, n, 4 * n))
    T[:, 0, :, :n] = -6.0 * M
    T[:, 1, :, :n] = 3.0 * M2
    T[:, 2, :, :n] = -M3
    T[:, 3, :, :n] = 0.25 * (M3 @ M)
    T[:, 0, :, n:] = np.concatenate((-eye, -4.0 * eye, -eye), axis=1)
    T[:, 1, :, n:3 * n] = np.concatenate((M, 2.0 * M), axis=2)
    T[:, 2, :, n:3 * n] = np.concatenate((M2, M2), axis=2) * -0.5
    T[:, 3, :, n:2 * n] = 0.25 * M3
    maps = np.empty((w, n, 4 * n))
    for a, b, table in zip([0] + cuts, cuts + [w], T.reshape(len(M), 4, -1)):
        np.matmul(hp[a:b], table, out=maps[a:b].reshape(b - a, -1))
    return maps


def _plan(st: _Sweep, p0: int, p1: int):
    """The plan of the grid steps p0 .. p1 - 1: the read rows and weights,
    (w + 1, 2, nt, 4), of each node's read and its step's mid read of each
    lag (none at node p1); the coefficients A, zero-lag parts M and
    sources of the steps p0 .. p1 (the last grid node takes the last
    step's), so that a node's read and derivative take those of the step
    it starts; the RK4 maps P - I and G; the node each step's reads need,
    and the same over long reads alone; and the lifted runs
    (`_lift_runs`).  The source, (w + 1, n, k) or None, is what the
    delayed parts of the first k columns gain: less solve's g, plus each
    frozen term's A_f y0 (`_Sweep`).

    A step of length zero, from a left copy to its right copy, takes the
    mid of the step before it: so a left copy's read and derivative take
    the coefficients of the step the node ends, and its maps are P = I,
    G = 0.  A read that snaps to a doubled node takes the right copy,
    unless it is the read of a left copy, which takes the left copy.

    A node's read serves the step it ends and the step it starts, so each
    lag's 2 w + 1 reads take one `_read_plan` call.
    """
    n, nt, w = st.n, st.nt, p1 - p0
    Nr = (2 * w + 1) * nt
    # from step p0 - 1 on: a sweep starts at a right copy, so p0 > 0
    t = st.nodes[p0 - 1:p1 + 2]
    mids = t[:-1] + 0.5 * np.diff(t)
    zero = np.flatnonzero(t[1:] == t[:-1])
    mids[zero] = mids[zero - 1]
    # the last grid node takes the last step's
    mids, t = np.append(mids, mids[-1])[1:w + 2], t[1:w + 2]
    h = np.diff(t)
    # mids never sit on a break, so the side does not matter
    A = (np.concatenate([read_piecewise(c, mids) for c in st.read_coefs],
                        axis=2) if nt else np.zeros((w + 1, n, 0)))
    M = (sum(read_piecewise(c, mids) for c in st.zero_lag)
         if st.zero_lag else None)
    src = (None if st.source is None
           else -read_piecewise(st.source, mids)[..., None])
    for coef in st.frozen:
        x = read_piecewise(coef, mids) @ st.y0
        src = x if src is None else src + x
    us = np.stack((t, mids), axis=1)[:, :, None] - st.thetas
    exact, interval, weights = _read_plan(st.nodes, us.ravel()[:Nr])
    own = np.zeros((w + 1, 2, nt), dtype=bool)
    own[:, 0] = st.left[p0:p1 + 1, None]
    # a read of no node (-1) finds no left copy: `left` ends in a False
    # past the grid, whose last node is a right copy
    exact = np.where(own.ravel()[:Nr], exact - st.left[exact - 1],
                     exact + st.left[exact])
    plan = _read_rows(st, (exact, interval, weights))
    rows = np.empty((w + 1, 2, nt, 4), dtype=np.intp)
    wts = np.empty(rows.shape)
    for x, y in zip((rows, wts), plan):
        x.reshape(2 * w + 2, nt, 4)[:-1] = y.reshape(2 * w + 1, nt, 4)
    rows[w, 1], wts[w, 1] = st.zero_row + _QUAD, 0.0
    # each step's start, mid and end reads
    ready, node = (y.reshape(2 * w + 1, nt) for y in plan[3:1:-1])
    ready = np.stack((ready[:-1:2], ready[1::2], ready[2::2]), axis=1)
    oldest = np.minimum(np.minimum(node[:-1:2], node[1::2]),
                        node[2::2]).min(axis=1, initial=np.iinfo(np.intp).max)
    bad = np.flatnonzero(oldest <= np.arange(p0, p1) - st.D + 1)
    if len(bad):
        # _reach sizes the ring to the deepest read, so this is an
        # internal error, kept under python -O
        k = bad[0]
        raise RuntimeError(f"history ring too shallow: step {p0 + k} reads "
                           f"interval {oldest[k]} with depth {st.D}")
    maps = _rk4_maps(h, None if M is None else M[:w], n)
    P, G = None if M is None else maps[:, :, :n], maps[:, :, n:]
    pl = [rows, wts, A, M, P, G, src]
    need = np.maximum.accumulate(ready.max(axis=(1, 2), initial=-1))
    if not len(st.short):
        return pl, need, need, []
    need_long = np.maximum.accumulate(ready[:, :, st.long].max(axis=(1, 2),
                                                               initial=-1))
    return pl, need, need_long, _lift_runs(st, p0, pl, h, ready)


def _lift_runs(st: _Sweep, p0: int, pl, h, ready) -> list:
    """The lifted runs of a block's steps, as (k0, k1, (r, n, Psi)), the
    last the arguments of the run's `_LiftMap`.

    The reads of a short lag (`_SHORT_LAG`) at step k take rows of the
    grid nodes k - r .. k only, so the step is affine in the lifted state
    z_k of those rows, y and f per node as the ring holds them
    (`_LiftMap`): z_{k+1} = (S + Psi) z_k + C_k, where C_k holds the
    long reads.  The map stays the same over a run of steps of one
    length, with the same short-read rows and weights and the same
    short-lag and zero-lag coefficients, so a step of length zero ends a
    run, and no run reaches an event.  The state may not hold a node
    before an activation: only the window after it gives the activated
    columns their f there.  A run of at least `_LIFT_STEPS` such steps is
    lifted: its windows zero its short reads (`_lifted`), and Psi comes
    from the run's mean plan.

    The runs of a block share one depth r.  Psi holds the rows step k
    writes, y and f of node k + 1.  One probe (`_probe`) finds them for
    every run of the block: step j of the probe reads a ring of unit
    columns with run j's mean plan of the short terms, at its start, mid
    and end, through the stage formulas of every window.  y_k is read
    there but not carried; its carry is S, and its zero-lag part is added
    after, so that Psi holds P - I and not a rounded P (see `_plan`).
    """
    rows, wts, A, M, P, G = pl[:6]
    n, w, R, sh = st.n, len(h), st.R, st.short
    A, M = A[:w], None if M is None else M[:w]
    # each step's start, mid and end reads of the short lags
    rows, wts = (np.stack((x[:-1, 0], x[:-1, 1], x[1:, 0]), axis=1)[:, :, sh]
                 for x in (rows, wts))
    ks = np.arange(p0, p0 + w)
    oldest = ready[:, :, sh].min(axis=(1, 2)) - 1
    # the last activation at or before each step
    acts = np.asarray(st.s_list)
    last = acts[np.searchsorted(acts, ks, side="right") - 1]
    ok = (last < oldest) & (ks - oldest <= st.r_max)
    # steps whose lengths differ by node rounding alone count as one length
    tol = _SNAP * max(1.0, abs(st.nodes[p0]), abs(st.nodes[p0 + w]))
    rs, ws = rows[..., 0].reshape(w, -1), wts.reshape(w, -1)
    As = A[:, :, st.short_cols].reshape(w, -1)
    same = (ok[1:] & ok[:-1] & (np.abs(np.diff(h)) <= tol)
            & ((rs[1:] - rs[:-1]) % (2 * R) == 2).all(axis=1)
            & (np.abs(ws[1:] - ws[:-1])
               <= (4.0 * tol / np.maximum(h[1:], tol))[:, None])
            .all(axis=1) & (As[1:] == As[:-1]).all(axis=1))
    if M is not None:
        same &= (M[1:] == M[:-1]).all(axis=(1, 2))
    k0s = np.append(0, np.flatnonzero(~same) + 1)
    k1s = np.append(k0s[1:], w)
    keep = (k1s - k0s >= _LIFT_STEPS) & ok[k0s]
    if not keep.any():
        return []
    # one depth r for the block's runs: a run starts where the state of
    # its r + 1 nodes holds no activation
    r = int((ks - oldest)[k0s[keep]].max())
    k0s = np.maximum(k0s, last[k0s] + r + 1 - p0)
    keep &= k1s - k0s >= _LIFT_STEPS
    k0s, k1s = k0s[keep], k1s[keep]
    if not len(k0s):
        return []
    J = len(k0s)
    # each run's mean of an array: sums over [k0, k1) at the even indices
    cuts = np.stack((k0s, k1s), axis=1).ravel()
    mean = [np.add.reduceat(x, cuts[cuts < w])[::2]
            / (k1s - k0s).reshape((J,) + (1,) * (x.ndim - 1))
            for x in (wts, G) + (() if P is None else (P,))]
    # the short reads of each run's first step, as rows of the nodes
    # k0 - r .. k0 in the probe's ring, which starts at node k0 - r
    rows_p = 2 * ((rows[k0s][..., :1] // 2 - (ks[k0s] - r)[:, None, None,
                                                          None]) % R) + _QUAD
    Ms = None if M is None else M[k0s]
    fresh = _probe(r, n, rows_p, mean[0], A[k0s][:, :, st.short_cols], Ms,
                   mean[1])
    if M is not None:
        # y_k's own zero-lag part: D y_k, and f = -M y_{k+1}
        own = np.empty((J, 2, n, n))
        own[:, 0] = mean[2]
        _derivative(Ms, np.eye(n) + mean[2], np.zeros(n), own[:, 1])
        fresh[:, :, :, 2 * r * n:(2 * r + 1) * n] += own
    return [(p0 + k0, p0 + k1, (r, n, Psi)) for k0, k1, Psi
            in zip(k0s.tolist(), k1s.tolist(), fresh.reshape(J, 2 * n, -1))]


def _probe(r: int, n: int, rows, wts, A, M, G) -> np.ndarray:
    """The rows that each of J steps writes from a zero start when its
    start, mid and end reads `rows`, `wts` land on the nodes 0 .. r, and
    those hold one unit column per coordinate of the lifted state
    (`_LiftMap`): (J, 2, n, d), y and f at its end node, column j the
    response to coordinate j.  The probe's ring is laid out as the
    sweep's: node i holds y and f from row 2 i on, so a read in the step
    after it takes rows 2 i + `_QUAD`, and node r + 1 holds zero rows.

    The scratch of the gather and the blend is sized for the steps at
    hand, and steps are probed in groups that keep it within
    `_WINDOW_BYTES` (one step at least).
    """
    d = (2 * r + 2) * n
    ring = np.eye(d + 2 * n, d).reshape(-1, n, d)
    J, ns = len(rows), rows.shape[2]
    group = max(1, _WINDOW_BYTES // ((15 * ns + 6) * n * d * 8))
    bufs = [np.empty(k * min(J, group) * n * d) for k in (12 * ns, 3 * ns, 3)]
    out = np.empty((J, 2, n, d))
    for j in range(0, J, group):
        part = slice(j, j + group)
        o, p = out[part], bufs[2][:3 * n * d * len(out[part])]
        p = p.reshape(-1, 3, n, d)
        _delayed(ring, bufs, rows[part], wts[part], A[part], p)
        np.matmul(G[part], p.reshape(-1, 3 * n, d), out=o[:, 0])
        _derivative(None if M is None else M[part], o[:, 0], p[:, 2], o[:, 1])
    return out


class _LiftMap:
    """The map z -> (S + Psi) z + E C of one lifted run's steps, of depth
    r, with Psi zero but in its last c = 2n rows, y and f of the step's
    end node, given as `Psi`, and E adding C to those rows.

    The lifted state z_k holds y and f of the grid nodes k - r .. k, two
    rows per node as the sweep's ring holds them: node
    k - r + i's y from coordinate 2 i n on and its f from (2 i + 1) n.
    S, the exact part of a step, shifts the rows by one node and carries
    y_k on to y_{k+1}, with f_{k+1} zero.  `step` is [S + Psi | E], one
    step with its forcing as extra rows, and `powers` keeps
    [(S + Psi)^s | I] by s (`_lift_scan`).
    """

    def __init__(self, r: int, n: int, Psi: np.ndarray):
        self.r, self.n, self.Psi, self.powers = r, n, Psi, {}
        c, d = Psi.shape
        # the shift by one node and E, then the carry of y
        self.step = np.eye(d, d + c, c)
        self.step[range(d - c, d - n), range(d - c, d - n)] = 1.0
        self.step[d - c:, :d] += Psi


def _lift_scan(lm: _LiftMap, C: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """The last c rows of z_1 .. z_w, where z_{k+1} = (S + Psi) z_k + E C[k]
    is the map `lm`.

    The steps carry y by S, exactly: so z_k = S^k z0 + u_k, whose S^k z0
    is a copy of rows of z0, and u_{k+1} = (S + Psi) u_k + E (C[k] +
    Psi S^k z0) from u_0 = 0.  A rounded S + Psi then errs on the small
    u_k, not on y (compare `_affine_scan`, which keeps D apart from I).

    u composes in blocks of s steps, s a power of two near sqrt(w / 2):
    Horner's rule gives every block's forcing sum at once, one pass over
    the blocks gives their start values by the s-th power of the map, and
    one more pass fills the blocks in, so 2 s + w / s products in all.
    Each product takes its forcing as extra rows, [Phi | E] times [u; C],
    so that a step is one call.
    """
    w, c = C.shape[:2]
    d, cols = z0.shape
    s = 1 << max(0, round(math.log2(w / 2) / 2))
    nb, k = -(-w // s), min(w, lm.r + 1)
    if s not in lm.powers:
        power = lm.step[:, :d]
        for _ in range(s.bit_length() - 1):
            power = power @ power
        lm.powers[s] = np.concatenate((power, np.eye(d)), axis=1)
    # X[i] = [u; forcing] of step i of every block, block j in column j;
    # S^k z0 is z0 shifted by k nodes, with k copies of its last node's
    # (y, 0) behind, and the same from k = r + 1 on
    X = np.zeros((s + 1, d + c, nb, cols))
    Cb = np.zeros((nb * s, c, cols))
    ext = np.concatenate([z0] + [z0[d - c:d - lm.n],
                                 np.zeros((lm.n, cols))] * (lm.r + 1))
    Sz = np.stack([ext[c * j:c * j + d] for j in range(lm.r + 2)])
    push = np.matmul(lm.Psi, Sz)
    np.add(C[:k], push[:k], out=Cb[:k])
    np.add(C[k:], push[-1], out=Cb[k:w])
    X[:s, d:] = Cb.reshape(nb, s, c, cols).transpose(1, 2, 0, 3)
    X = X.reshape(s + 1, d + c, -1)
    for i in range(s):  # Horner: each block's forcing sum, from zero
        np.dot(lm.step, X[i], out=X[i + 1, :d])
    Y = np.zeros((nb, 2 * d, cols))  # [start; forcing sum] of each block
    Y[:, d:] = X[s, :d].reshape(d, nb, cols).transpose(1, 0, 2)
    for j in range(1, nb):
        np.dot(lm.powers[s], Y[j - 1], out=Y[j, :d])
    X[0, :d] = Y[:, :d].transpose(1, 0, 2).reshape(d, -1)
    for i in range(s):  # fill each block in from its start
        np.dot(lm.step, X[i], out=X[i + 1, :d])
    u = X[1:, d - c:d].reshape(s, c, nb, cols).transpose(2, 0, 1, 3)
    out = u.reshape(nb * s, c, cols)[:w]  # a copy
    out[:k] += Sz[1:k + 1, d - c:]
    out[k:] += Sz[-1, d - c:]
    return out


def _derivative(M, y, d, out) -> np.ndarray:
    """The derivatives -(M y + d) at nodes with values y and delayed parts
    d (M None: no zero-lag part), into `out`.  The sign flips multiply by
    -1: numpy 2.4.6's AVX-512 `negative` writes -0.0 past the first
    element into a strided output of 64-byte steps."""
    if M is None:
        return np.multiply(d, -1.0, out=out)
    np.matmul(M, y, out=out)
    out += d
    return np.multiply(out, -1.0, out=out)


def _delayed(ring, bufs, rows, wts, A, d) -> None:
    """The delayed parts d (N, q, n, Wm) of N groups of q planned reads of
    nt lags each: one gather from the history rows `ring` (rows, n,
    cols), one Hermite blend and one product with group i's coefficients
    A[i]; zero without reads.  `bufs` holds the flat scratch of the gather
    and the blend."""
    N, q, nt = rows.shape[:3]
    _, n, cols = ring.shape
    if not nt:
        d[...] = 0.0
        return
    g = bufs[0][:N * q * 4 * nt * n * cols].reshape(-1, n, cols)
    np.take(ring, rows.reshape(-1), axis=0, out=g, mode="clip")
    x = bufs[1][:N * q * nt * n * cols].reshape(-1, 1, n * cols)
    np.matmul(wts.reshape(-1, 1, 4), g.reshape(-1, 4, n * cols), out=x)
    np.matmul(A[:, None], x.reshape(N, q, nt * n, cols)[..., :d.shape[-1]],
              out=d)


def _sums(st: _Sweep, a: int, b: int, pl, Wm: int) -> tuple:
    """The delayed parts and stage sums of steps a .. b - 1 (`_plan`'s
    part for them): d (w + 1, 2, n, Wm), those of each node's read and of
    each step's mid read with the plan's source, as f = -(M y + d), so
    that step k's [d1; d23; d4] are the 3 n rows from node k's read on;
    and c (w, n, Wm), each step's stage sum on y = 0, G [d1; d23; d4]."""
    rows, wts, A, _, _, G, src = pl
    n, w, bufs = st.n, b - a, st.bufs
    d = bufs[2][:(w + 1) * 2 * n * Wm].reshape(w + 1, 2, n, Wm)
    _delayed(st.rows_of, bufs, rows, wts, A, d)
    if src is not None:
        d[..., :src.shape[-1]] += src[:, None]
    c = bufs[3][:w * n * Wm].reshape(w, n, Wm)
    np.matmul(G[:w], np.ndarray((w, 3 * n, Wm), buffer=d, strides=(
        d.strides[0], d.strides[2], d.strides[3])), out=c)
    return d, c


def _window(st: _Sweep, a: int, b: int, pl) -> None:
    """Steps a .. b - 1, whose grid nodes take the consecutive ring slots
    from a % R on (`_sums`): y and f at every node; each event it reaches
    goes to `_at_node`.  The doubling scan rounds a step of length zero,
    so each right copy then takes its left copy's y exactly."""
    M, P = pl[3], pl[4]
    m, R, H = st.m, st.R, st.H
    w, sa = b - a, a % R
    Wm = _width(st, b - 1) * m
    yp = H[:, _Y, :, :Wm]
    d, c = _sums(st, a, b, pl, Wm)
    # y_{k+1} = P_k y_k + c_k, composed by a scan between event nodes
    stops = st.events[bisect.bisect_right(st.events, a):
                      bisect.bisect_right(st.events, b)]
    if not stops or stops[-1] != b:
        stops.append(b)
    u = 0
    for e in stops:
        e -= a
        if P is None:
            seg = yp[sa + u:sa + e + 1]
            seg[1:] = c[u:e]
            np.add.accumulate(seg, axis=0, out=seg)
        else:
            y = yp[sa + u]
            D, C = _affine_scan(P[u:e], c[u:e])
            seg = yp[sa + u + 1:sa + e + 1]
            np.matmul(D, y, out=seg)
            seg += C
            seg += y
        for j in st.lefts[bisect.bisect_left(st.lefts, a + u):
                          bisect.bisect_left(st.lefts, a + e)]:
            yp[j - a + sa + 1] = yp[j - a + sa]
        _at_node(st, a + e, sa + e)
        u = e
    # node a's f came with the window before, unless it activates columns
    lo = 0 if a in st.activate else 1
    _derivative(None if M is None else M[lo:], yp[sa + lo:sa + w + 1],
                d[lo:, 0], H[sa + lo:sa + w + 1, _F, :, :Wm])
    _tail(st, a, b)


def _lifted(st: _Sweep, a: int, b: int, pl, lift: _LiftMap) -> None:
    """Steps a .. b - 1 of a lifted run (`_lift_runs`): the long reads
    give the rows each step writes from a zero start, C_k, in bulk
    (`_sums`), and the run's map composes them (`_lift_scan`) from the
    state at node a, the ring's rows of the grid nodes a - r .. a.  The
    run writes y and f of the nodes a + 1 .. b into their ring rows: f is
    the derivative a step ends with, which the next step starts with, as
    the two take the same coefficients within a run and at its end."""
    M, pl = pl[3], list(pl)
    n, m, R, H = st.n, st.m, st.R, st.H
    w, sa = b - a, a % R
    Wm = _width(st, b - 1) * m
    # the run's map holds the short terms
    pl[2] = pl[2].copy()
    pl[2][:, :, st.short_cols] = 0.0
    d, c = _sums(st, a, b, pl, Wm)
    C = np.empty((w, 2, n, Wm))
    C[:, 0] = c
    _derivative(None if M is None else M[:w], c, d[1:, 0], C[:, 1])
    rows = (2 * (a - lift.r) + np.arange(2 * lift.r + 2)) % (2 * R)
    z0 = st.rows_of[rows, :, :Wm].reshape(-1, Wm)
    C = _lift_scan(lift, C.reshape(w, 2 * n, Wm), z0).reshape(C.shape)
    H[sa + 1:sa + w + 1, :, :, :Wm] = C
    _tail(st, a, b)


def _tail(st: _Sweep, a: int, b: int) -> None:
    """After the steps a .. b - 1, or at a chunk's start node a = b: the
    samples at the nodes a .. b, a finiteness check, and the spare slots
    copied back to the ring.  Node a was sampled before, at the chunk's
    start or by the window before, with the values it holds now: a node's
    y is final after its events, and its columns beyond its width hold
    zero."""
    n, m, R, H = st.n, st.m, st.R, st.H
    w, sa = b - a, a % R
    # a numpy search per window costs more than a bisection of the list
    lo, hi = bisect.bisect_left(st.recs, a), bisect.bisect_right(st.recs, b)
    if hi > lo:
        # node b may activate columns beyond the window's width
        W = _width(st, b)
        y = H[np.subtract(st.recs[lo:hi], a - sa), _Y, :, :W * m]
        st.samples[st.rec_rows[lo:hi], st.c0:st.c0 + W] = \
            y.reshape(-1, n, W, m).transpose(0, 2, 1, 3)
    if b // 256 != a // 256 and not np.all(np.isfinite(H[sa + w, _Y])):
        raise NumericalError(f"state non-finite at t={st.nodes[b]}")
    if sa + w >= R:
        H[:sa + w + 1 - R] = H[R:sa + w + 1]


def _batch_columns(spec: SystemSpec, nodes: np.ndarray, jumps: dict,
                   s_indices: np.ndarray, record_indices: np.ndarray,
                   reflected: bool = False, start: np.ndarray = None,
                   dense: bool = False, mem_cap: int = 512 << 20,
                   source: VectorTable = None, offsets: dict = None):
    """X(t, s) start for all (record node, s node) pairs, batched over s.

    `jumps` maps node index -> jump matrix.  Every column starts as zero
    and is activated to `start` (n x m, default the identity) at its s
    node; zero columns evolve as exact zeros, which realizes X(t, s) = 0
    for t < s.  At a node the activation comes first, then the jump
    (`_at_node`).  In the forward order the jump belongs only to columns
    with s < tau, and a node is sampled at its right copy, after its
    events.  The reflected order (`kernel_rows`) jumps every column, the
    new ones included, and samples each node's first copy, the value
    before its events, which is zero in the columns it activates.  Every
    sample is taken after the window that reaches its node (`_tail`), or
    at a chunk's start node, which no window steps to.  `solve` alone
    passes a `source` g, which every column's derivative gains, and
    `offsets`, node index -> alpha, added to every column after the
    node's jump in the forward order; it sweeps one column.  A frozen
    term x(c), c at or before the first node, is a source too: x(c) is
    the start value in the columns that start at c's node and zero in the
    rest, so every read gathered from the ring is a lag's.  The s nodes
    ascend, so that within each chunk the active columns are a prefix, to
    which every operation is sliced: the sweep costs the triangle the zero
    structure allows, not the rectangle.

    The unit of work is a lag window of steps [a, b) (`_window`), whose
    delayed reads all land at or before node a: one gather, one Hermite
    blend and one product with the coefficients of every term, one read
    per node and per step's mid (`_sums`).  Where the two sides of a node
    can differ -- at events, where a read snaps to one, and at coefficient
    and source table breaks -- the sweep's grid holds the node twice, its
    left copy and then its right copy, joined by a step of length zero, so
    that every grid node has one y and one f in the ring.  Each RK4 step is
    y_{k+1} = P_k y_k + c_k, c_k the stage sum on y = 0; jumps and
    activations (`_at_node`) split the recurrence, and a doubling scan
    (`_affine_scan`) composes each segment.  Blocks of steps are planned
    at once (`_plan`), sized by `_PLAN_BYTES`.  A short lag (`_SHORT_LAG`,
    `_LIFT_SIZE`) is lifted into the state over runs of like steps
    (`_lift_runs`, `_lifted`), so its windows end at the smallest long
    lag.  Each chunk of columns runs on its own `_Sweep`.

    One search of the grid at its lag images (`_reach`) sizes the sweep
    and decides, before the first step, which nodes the grid doubles: the
    ring holds the deepest delayed read, and a window past its end writes
    on into spare slots; a window holds at most `_WINDOW_BYTES` of buffers
    and the longest window the smallest long lag allows.  The events sit
    at right copies.  With `dense` the ring
    holds every grid node and gives the dense output (y_post, y_pre,
    f_right, f_left), each (K+1, S, n, m), returned in place of the
    samples (`Trajectory`): the left limits are one gather of the nodes'
    first copies, and the right copies move down to the first K + 1 slots.

    One estimate of the bytes the sweep holds at once sizes its chunks of
    columns, at least 16 (a dense sweep must fit one), within `mem_cap`;
    a sweep whose estimate exceeds `mem_cap` even so raises ValueError
    before its grid, ring, samples or plans are allocated.
    """
    n = spec.dim
    K = len(nodes) - 1
    start = np.eye(n) if start is None else np.asarray(start, dtype=float)
    m = start.shape[1]
    s_indices = np.asarray(s_indices, dtype=np.intp)
    S = len(s_indices)
    _check_causal(spec, nodes[0])

    lags = [t for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta != 0.0]
    frozen = [t for t in spec.terms if isinstance(t.delay, FrozenTime)]
    zero_lag = [t.coefficient for t in spec.terms
                if isinstance(t.delay, ConstantLag) and t.delay.theta == 0.0]
    read_coefs = [t.coefficient for t in lags]
    nt = len(read_coefs)
    thetas = np.array([t.delay.theta for t in lags])
    # a lifted state of depth r holds (2r + 2) n numbers (`_LiftMap`),
    # with r at most _SHORT_LAG + 2, and less where a state of three rows
    # per node, (3r + 2) n numbers, would outgrow _LIFT_SIZE, the rule it
    # was measured with; a lag under r_max - 2 mean steps is short (a
    # step-by-step test would cost a pass over the grid before the sweep
    # can be refused)
    r_max = min(_SHORT_LAG + 2, (_LIFT_SIZE // n - 2) // 3)
    short = np.flatnonzero(thetas * K < (r_max - 2) * (nodes[-1] - nodes[0]))

    # grid node j sits in ring slot j % R; a window may run on into the
    # spare slots after the ring, which are copied back to its start.  Then
    # come the zero rows, two slots.  A slot's columns beyond the width
    # active at its node hold zero (the nodes a slot held before were never
    # wider), which is the value an inactive column must supply.
    dl = (2 * r_max + 2) * n if len(short) else 0  # the deepest state
    # window bytes per step and column: the gather, blend and delayed
    # parts of two reads per lag, and the stage sums; a lifted window adds
    # its scan's states and forcing, under twice dl + 2 n (`_lift_scan`),
    # and its forcing, padded forcing and rows, 2 n each
    per_col = ((10 * nt + 3) * n + (2 * dl + 10 * n if dl else 0)) * m * 8
    # plan bytes per step (reads counted as in `_PLAN_BYTES`), with the
    # source's n m values
    per_step = (192 * nt + 8 * (nt + 5) * n * n + 32
                + (8 * n * m if source is not None or frozen else 0))
    block = max(1, _PLAN_BYTES // min(per_step, 1024))
    # at a break of any term's coefficient or of the source the steps on
    # either side take different values
    tables = [c for c in [t.coefficient for t in spec.terms] + [source]
              if isinstance(c, (MatrixTable, VectorTable))]
    coef_breaks = np.unique([b for c in tables for b in c.breaks])
    # the smallest long lag ends the windows, the short ones being lifted
    long = np.delete(np.arange(len(thetas)), short)
    D, wmax, cand = _reach(
        nodes, thetas, thetas[long],
        np.union1d(np.fromiter(jumps, np.intp, len(jumps)), s_indices),
        coef_breaks, max(1, min(block, _WINDOW_BYTES // max(per_col * S, 1))),
        dense)
    K2 = K + len(cand)  # the grid's steps, one of length zero per copy
    R, spare = (K2 + 1, 0) if dense else (max(D, wmax), wmax)
    slots = R + spare + 2
    zero_row = 2 * (R + spare)
    # the bytes the sweep holds at once: per column, the ring rows, the
    # window buffers and the zero-lag scan's states, the samples, and with
    # dense output its left limits and the move of the right copies; per
    # grid node, the grid, its marks and the reach pass, and per record
    # its lists; one block's plan with its transients, a quarter more than
    # it keeps and about 320 B per term and step of read plans; and with
    # short lags, the runs' analysis and probe, 512 B per lag and step,
    # and a run's map
    T, w = len(record_indices), min(block, K2)
    col = ((2 * slots + 2 * wmax + 2 + (2 * K + 2 if dense else 0)) * n * m * 8
           + (wmax + 1) * per_col)
    held = (T * S * n * m * 8 + 40 * (K2 + 1)
            + 64 * T + w * (5 * per_step // 4 + 320 * nt)
            + (dl and 512 * len(short) * w + 24 * dl * dl))
    chunk = max(16, int((mem_cap - held) // col))
    nbytes = held + min(S, chunk) * col
    if dense and S > chunk:
        raise ValueError(f"dense output of {S} columns needs more than "
                         f"one chunk of {chunk}")
    if nbytes > mem_cap:
        raise ValueError(f"{'dense sweep' if dense else 'sweep'} needs about "
                         f"{nbytes} bytes, more than the memory budget of "
                         f"{mem_cap} bytes")

    # the sweep's grid: each node of `cand` twice, its left copy first
    grid = np.insert(nodes, cand, nodes[cand])
    lefts = cand + np.arange(len(cand))
    left = np.zeros(K2 + 2, dtype=bool)
    left[lefts] = True
    at = dict(zip(jumps, _copy(cand, np.fromiter(jumps, np.intp,
                                                 len(jumps))).tolist()))
    jumps = {at[i]: B for i, B in jumps.items()}
    offsets = {at[i]: alpha for i, alpha in (offsets or {}).items()}
    samples = np.zeros((len(record_indices), S, n, m))
    record_indices = _copy(cand, np.asarray(record_indices, dtype=np.intp),
                           "left" if reflected else "right")
    rec_rows = np.argsort(record_indices, kind="stable")
    shared = dict(
        n=n, m=m, nodes=grid, jumps=jumps, offsets=offsets, source=source,
        start=start, reflected=reflected, s_indices=_copy(cand, s_indices),
        nt=nt, read_coefs=read_coefs, thetas=thetas, short=short,
        long=long, r_max=r_max, zero_lag=zero_lag,
        short_cols=(short[:, None] * n + np.arange(n)).ravel(), left=left,
        lefts=lefts.tolist(), D=D, R=R, slots=slots, zero_row=zero_row,
        frozen=[(int(_copy(cand, locate(nodes, t.delay.c))), t.coefficient)
                for t in frozen],
        wmax=wmax, samples=samples,
        recs=record_indices[rec_rows].tolist(), rec_rows=rec_rows)
    for c0 in range(0, S, chunk):
        st = None  # the last chunk's rows go before the next one's come
        st = _Sweep(shared, c0, min(c0 + chunk, S))
        # the start node's events and samples: a chunk that starts at the
        # last node runs no window
        _at_node(st, st.k_start, st.k_start % R)
        _tail(st, st.k_start, st.k_start)
        for p0 in range(st.k_start, K2, block):
            p1 = min(p0 + block, K2)
            pl, need, need_long, runs = _plan(st, p0, p1)
            a = p0
            # plain windows up to each lifted run, then the run's windows
            for k0, k1, run in runs + [(p1, p1, None)]:
                # a run's map is built when the run is reached
                run = () if run is None else (_LiftMap(*run),)
                for end, ready, steps, lift in ((k0, need, _window, ()),
                                                (k1, need_long, _lifted, run)):
                    while a < end:
                        b = p0 + int(np.searchsorted(ready, a, side="right"))
                        b = min(max(b, a + 1), a + wmax, end)
                        part = [None if v is None else v[a - p0:b - p0 + 1]
                                for v in pl]
                        steps(st, a, b, part, *lift)
                        a = b
            # free this block's plan and last map before the next is set up
            del pl, need, need_long, runs, run, part
        if not np.all(np.isfinite(st.H[K2 % R, _Y])):
            raise NumericalError("state non-finite at final node")
    if dense:
        # the left limits are the first copies, the right ones move down;
        # y_pre[0] is y_post[0]
        j = np.arange(K + 1)
        pre = st.H[_copy(cand, j, "left")]
        H = st.H[:K + 1]
        H[...] = st.H[_copy(cand, j)]
        pre[0, _Y] = H[0, _Y]
        return tuple(x.reshape(K + 1, n, S, m).transpose(0, 2, 1, 3)
                     for x in (H[:, _Y], pre[:, _Y], H[:, _F], pre[:, _F]))
    return samples


def _reflect_coefficient(coef, shift: float):
    """sigma -> coef(shift - sigma)^T, for reads at step midpoints.

    A table keeps its pieces in reverse order, behind a repeated first
    break whose empty piece holds the value beyond the last original
    break; the sides at the reflected breaks swap, which the midpoint
    reads never see.
    """
    if not isinstance(coef, MatrixTable):
        return np.asarray(coef, dtype=float).T
    breaks = shift - coef.breaks[::-1]
    breaks = np.concatenate((breaks[:1], breaks))
    values = np.concatenate((coef.values[::-1], coef.values[:1]))
    return MatrixTable(breaks, values.transpose(0, 2, 1))


def kernel_rows(spec: SystemSpec, nodes: np.ndarray, targets) -> tuple:
    """The rows s -> X(t, s) over every node s, for each target time t, in
    one sweep.

    Returns (rows, jump_nodes): `rows[k, i]` = X(targets[k], nodes[i]),
    right-continuous in s (the impulse at s = tau is not applied) and zero
    for s > t, and the grid's jump map.  The targets must lie on grid nodes
    and must not decrease, else ValueError; a repeated target gets the
    same row at each of its places.

    For fixed t the row solves the formal adjoint equation
    d/ds X(t,s) = sum_i X(t, s + theta_i) A_i(s + theta_i) with X(t,t) = I,
    X(t,u) = 0 for u > t and X(t, tau_j - 0) = X(t, tau_j) B_j (Hale and
    Verduyn Lunel 1993, ch. 6).  With sigma = T - s, T = nodes[-1],
    Y(sigma) = X(t, T - sigma)^T solves the forward homogeneous system with
    coefficients A_i(T - sigma + theta_i)^T and jumps B_j^T at T - tau_j,
    restarted at T - t, so `_batch_columns` computes every row at once in
    its reflected order: O(K n^3) per row instead of the O(K^2 n^3) of one
    forward column per node.  That order samples each node before its
    events, where a target's own column is still zero, so X(t, t) = I is
    written at each target's node after the sweep.  Frozen-time terms with
    c = 0 act only on the s = 0 column, a null set for the integrals the
    rows feed, and are left out.
    """
    at = locate(nodes, targets)
    if np.any(at < 0) or np.any(np.diff(at) < 0):
        raise ValueError("target times must increase and lie on grid nodes")
    _check_causal(spec, nodes[0])
    jump_nodes = _jump_map(spec.impulses, nodes)
    B = spec.impulses.matrices
    t_end = float(nodes[-1])
    K = len(nodes) - 1
    terms = [DelayTerm(_reflect_coefficient(term.coefficient,
                                            t_end + term.delay.theta),
                       term.delay)
             for term in spec.terms if isinstance(term.delay, ConstantLag)]
    mirror = SystemSpec(dim=spec.dim, terms=terms, horizon=t_end)
    # the latest target restarts first, so the columns ascend
    samples = _batch_columns(mirror, t_end - nodes[::-1],
                             {K - i: B[j].T for i, j in jump_nodes.items()},
                             K - at[::-1], np.arange(K + 1), reflected=True)
    rows = samples[::-1, ::-1].transpose(1, 0, 3, 2)
    rows[np.arange(len(at)), at] = np.eye(spec.dim)
    return rows, jump_nodes


def fundamental_grid(spec: SystemSpec, s_grid, t_grid,
                     grid: StepControl = StepControl()) -> FundamentalMatrix:
    """Sample X(t, s) on the product grid; zero-fill for t < s.

    One sweep over [0, t_grid[-1]] runs the restarts s <= t_grid[-1]; a
    restart past the last t has a zero column, filled in after the sweep
    (which then may have no column at all).
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if s_grid.size == 0 or t_grid.size == 0:
        raise ValueError("empty s or t grid")
    if not (np.all(np.diff(s_grid) > 0) and np.all(np.diff(t_grid) > 0)):
        raise ValueError("grids must be strictly increasing")
    both = np.concatenate((s_grid, t_grid))
    if not np.all((both >= 0) & (both <= spec.horizon)):
        raise ValueError("grids must lie within [0, horizon]")
    require_valid(spec)

    t_end = float(t_grid[-1])
    S = int(np.searchsorted(s_grid, t_end, side="right"))
    # each column jumps to I at its s, like x at t_start: pin its images
    images = np.add.outer(s_grid, _image_shifts(_positive_lags(spec)))
    extra = np.unique(np.concatenate((t_grid, images.ravel())))
    hom = _curtailed(spec)
    nodes, jump_nodes = _prepare_grid(hom, 0.0, t_end, grid.dt, extra=extra)
    s_idx, t_idx = locate(nodes, s_grid[:S]), locate(nodes, t_grid)
    if np.any(s_idx < 0) or np.any(t_idx < 0):
        raise ValueError("grid values could not be pinned to integration nodes")
    samples = _batch_columns(hom, nodes, _jump_matrices(hom, jump_nodes),
                             s_idx, t_idx)
    if S < len(s_grid):
        samples = np.pad(samples, ((0, 0), (0, len(s_grid) - S), (0, 0), (0, 0)))
    samples.setflags(write=False)
    return FundamentalMatrix(s_grid=s_grid.copy(), t_grid=t_grid.copy(),
                             samples=samples)
