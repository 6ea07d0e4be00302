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
once; and the solution itself, as the (x0, 1) column of a homogeneous
system one dimension larger, in which the forcing, the history reads and
the jump offsets act on a constant last component.

This module owns the two numerical rules the representation layer shares:
the snap rule (`_SNAP`), applied through one lookup (`locate`) and one
table reader (`read_piecewise`), and the lag-image rule (`_image_shifts`),
applied forward by `_collect_breaks` and backward by `quadrature_nodes`.
`represent` reaches them through those names and `kernel_rows`; none of
them is exported from the package.
"""

from __future__ import annotations

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
    validate,
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
    base = np.searchsorted(points, ts)
    scale = np.maximum(1.0, np.abs(ts))
    out = np.full(ts.shape, -1, dtype=np.intp)
    # reversed candidate order, so the lowest index is written last
    for off in (1, 0, -1):
        j = base + off
        p = points.take(j, mode="clip")
        hit = np.abs(p - ts) <= _SNAP * np.maximum(scale, np.abs(p))
        out = np.where(hit & (j >= 0) & (j < len(points)), j, out)
    return out


def _pieces(breaks: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
    """Piece index of a table at each t; a t that snaps to a break is read
    as that break, so a lag image fl(fl(b + theta) - theta) of a break b,
    or a grid node that won the snap merge against b, takes b's pieces."""
    hit = locate(breaks, ts)
    ts = np.where(hit >= 0, breaks[hit], ts)
    k = np.searchsorted(breaks, ts, side="right" if side == "right" else "left")
    return np.maximum(k - 1, 0)


def read_piecewise(sig, ts, side: str = "right", dim: int = 0) -> np.ndarray:
    """A signal or coefficient at the times `ts`, one-sided at table breaks.

    `sig` is None (zero, of length `dim`), a constant array or a
    Matrix/VectorTable; the result has shape ts.shape + the value's shape.
    """
    ts = np.asarray(ts, dtype=float)
    if sig is None:
        return np.zeros(ts.shape + (dim,))
    if isinstance(sig, (MatrixTable, VectorTable)):
        return sig.values[_pieces(sig.breaks, ts, side)]
    sig = np.asarray(sig, dtype=float)
    return np.broadcast_to(sig, ts.shape + sig.shape)


def _hermite_weights(xi: float, h: float):
    xi2 = xi * xi
    xi3 = xi2 * xi
    return (
        2.0 * xi3 - 3.0 * xi2 + 1.0,
        h * (xi3 - 2.0 * xi2 + xi),
        -2.0 * xi3 + 3.0 * xi2,
        h * (xi3 - xi2),
    )


def _positive_lags(spec: SystemSpec) -> list:
    return [t.delay.theta for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta > 0]


def _image_shifts(lags: list) -> list:
    """0, theta_i and theta_i + theta_l: a point and its lag images up to
    the second generation."""
    return [0.0] + lags + [a + b for i, a in enumerate(lags) for b in lags[i:]]


def _collect_breaks(spec: SystemSpec, t_start: float, t_end: float,
                    with_history: bool, extra=()) -> np.ndarray:
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
    if with_history and isinstance(spec.phi, VectorTable):
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
    """Subdivide each inter-break segment into equal steps of length <= dt."""
    parts = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        steps = max(1, int(math.ceil((b - a) / dt - 1e-9)))
        parts.append(np.linspace(a, b, steps + 1)[1:])
    return np.concatenate(parts)


def _jump_map(schedule: ImpulseSchedule, nodes: np.ndarray) -> dict:
    """Map node index -> impulse index for every jump point on the grid
    after its first node (node 0 carries no jump: columns start there
    post-jump)."""
    idx = locate(nodes, schedule.points)
    return {int(i): j for j, i in enumerate(idx) if i > 0}


def _prepare_grid(spec: SystemSpec, t_start: float, t_end: float, dt: float,
                  extra=(), with_history: bool = False):
    """Grid nodes on [t_start, t_end] and their jump map (see `_jump_map`):
    the mandatory breaks refined to equal steps of at most dt and the
    smallest positive lag."""
    dt_eff = min([dt] + _positive_lags(spec))
    breaks = _collect_breaks(spec, t_start, t_end, with_history, extra)
    nodes = _build_nodes(breaks, dt_eff)
    return nodes, _jump_map(spec.impulses, nodes)


def quadrature_nodes(spec: SystemSpec, targets: np.ndarray, dt: float,
                     extra_breaks=()) -> np.ndarray:
    """Quadrature grid on [0, max target] for the rows s -> X(t, s).

    The rows solve the adjoint equation backward in s (see
    `_fundamental_rows`), so their breaks mirror those of `_collect_breaks`:
    a row jumps at its target and at the jump points, and the coefficient
    breaks enter through A_i(s + theta_i).  Each such anchor a gets the
    images a - u for u in `_image_shifts` (a - theta_i and
    a - theta_i - theta_l over all pairs), where a row or its first two
    derivatives may jump; they are pinned, with `extra_breaks`, as exact
    nodes of the `solve` grid.
    """
    t_end = float(targets[-1])
    anchors = [targets, spec.impulses.points]
    anchors += [t.coefficient.breaks for t in spec.terms
                if isinstance(t.coefficient, MatrixTable)]
    images = np.subtract.outer(np.concatenate(anchors),
                               _image_shifts(_positive_lags(spec)))
    extra = np.unique(np.concatenate(
        (np.asarray(extra_breaks, dtype=float), images.ravel())))
    extra = extra[(extra >= 0.0) & (extra <= t_end)]
    nodes, _ = _prepare_grid(spec, 0.0, t_end, dt, extra=extra, with_history=True)
    return nodes


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-cubic right-continuous dense output on [start, t_end].

    Each step [t_nodes[k], t_nodes[k+1]] carries the Hermite cubic through
    (y_post[k], f_right[k]) and (y_pre[k+1], f_left[k+1]); interpolants are
    never evaluated across a node.  At jump nodes y_post = B y_pre + alpha.
    Queries below `start` are answered by phi (or by zero for curtailed
    solutions).
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
    zero_history: bool  # curtailed solution: history below start is zero

    def _pre_history(self, t: float, side: str) -> np.ndarray:
        if self.zero_history:
            return np.zeros(self.dim)
        return read_piecewise(self.phi, t, side, self.dim)

    def value(self, t: float, side: str = "right") -> np.ndarray:
        """Dense-output value; side selects the limit at a node."""
        t = float(t)
        nodes = self.t_nodes
        i = int(locate(nodes, t))
        if i >= 0:
            if side == "right":
                return self.y_post[i].copy()
            if i == 0:
                return self._pre_history(self.start, "left")
            return self.y_pre[i].copy()
        if t < self.start:
            return self._pre_history(t, side)
        if t > self.t_end:
            raise ValueError(f"query t={t} beyond horizon {self.t_end}")
        i = int(np.searchsorted(nodes, t, side="right")) - 1
        h = nodes[i + 1] - nodes[i]
        w0, w1, w2, w3 = _hermite_weights((t - nodes[i]) / h, h)
        return (w0 * self.y_post[i] + w1 * self.f_right[i]
                + w2 * self.y_pre[i + 1] + w3 * self.f_left[i + 1])


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


def _augmented(spec: SystemSpec) -> SystemSpec:
    """Homogeneous system in (x, z) whose solution from (x0, 1) is (x, 1).

    Every coefficient and jump matrix gets a zero last row, except the unit
    jump diagonal that keeps z = 1.  The forcing r(t) and the history reads
    -A_i(t) phi(t - theta_i) on [0, theta_i) become one zero-lag
    coefficient acting on z, constant between the breaks of r, of the
    coefficient tables and of phi's lag images, and the lags themselves
    (all grid nodes of `solve`); the offsets alpha_j become the last
    column of the jump matrices.  Frozen terms carry over.
    """
    n, size = spec.dim, spec.dim + 1

    def pad(m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape[:-2] + (size, size))
        out[..., :n, :n] = m
        return out

    terms, lagged, cuts = [], [], [0.0]
    for term in spec.terms:
        coef = term.coefficient
        if isinstance(coef, MatrixTable):
            terms.append(DelayTerm(MatrixTable(coef.breaks, pad(coef.values)),
                                   term.delay))
            cuts.extend(coef.breaks)
        else:
            terms.append(DelayTerm(pad(coef), term.delay))
        if (isinstance(term.delay, ConstantLag) and term.delay.theta > 0
                and spec.phi is not None):
            lagged.append(term)
            cuts.append(term.delay.theta)
            if isinstance(spec.phi, VectorTable):
                cuts.extend(spec.phi.breaks + term.delay.theta)
    if isinstance(spec.forcing, VectorTable):
        cuts.extend(spec.forcing.breaks)

    if spec.forcing is not None or lagged:
        breaks = np.unique(cuts)
        breaks = breaks[(breaks >= 0.0) & (breaks < spec.horizon)]
        mids = 0.5 * (breaks + np.append(breaks[1:], spec.horizon))
        g = read_piecewise(spec.forcing, mids, "right", n)
        for term in lagged:
            theta = term.delay.theta
            a = read_piecewise(term.coefficient, mids)
            p = read_piecewise(spec.phi, mids - theta, "right", n)
            g = g - np.where((mids < theta)[:, None],
                             np.matmul(a, p[:, :, None])[:, :, 0], 0.0)
        source = np.zeros((len(breaks), size, size))
        source[:, :n, n] = -g
        terms.append(DelayTerm(MatrixTable(breaks, source), ConstantLag(0.0)))

    sch = spec.impulses
    mats = pad(sch.matrices)
    mats[:, :n, n] = sch.offsets
    mats[:, n, n] = 1.0
    return SystemSpec(dim=size, terms=terms,
                      impulses=ImpulseSchedule(sch.points, mats, None, size),
                      horizon=spec.horizon)


def _trajectory(nodes: np.ndarray, jump_nodes: dict, dense, dim: int,
                col: int, **history) -> Trajectory:
    """Trajectory of column `col`, rows :dim, of a dense single sweep."""
    y_post, y_pre, f_right, f_left = (
        np.ascontiguousarray(a[:, 0, :dim, col]) for a in dense)
    for arr in (nodes, y_post, y_pre, f_right, f_left):
        arr.setflags(write=False)
    return Trajectory(t_nodes=nodes, y_post=y_post, y_pre=y_pre,
                      f_right=f_right, f_left=f_left, jump_nodes=jump_nodes,
                      dim=dim, **history)


def solve(spec: SystemSpec, grid: StepControl = StepControl()) -> Trajectory:
    """Numerical solution of the full problem on [0, horizon].

    One dense sweep of the augmented homogeneous system (`_augmented`) from
    (x0, 1), on the grid of the original problem.
    """
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    nodes, jump_nodes = _prepare_grid(spec, 0.0, spec.horizon, grid.dt,
                                      with_history=True)
    aug = _augmented(spec)
    dense = _batch_columns(aug, nodes, _jump_matrices(aug, jump_nodes), [0],
                           [], start=np.append(spec.x0, 1.0)[:, None],
                           dense=True)
    return _trajectory(nodes, jump_nodes, dense, spec.dim, 0, start=0.0,
                       t_end=spec.horizon, phi=spec.phi, zero_history=False)


def fundamental_matrix(spec: SystemSpec, s: float,
                       grid: StepControl = StepControl()) -> list[Trajectory]:
    """Columns of X(., s): one dense sweep of the curtailed system from
    X(s, s) = I on a grid that starts at s."""
    if not (0.0 <= s < spec.horizon):
        raise ValueError(f"restart time s={s} outside [0, horizon={spec.horizon})")
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    hom = _curtailed(spec)
    nodes, jump_nodes = _prepare_grid(hom, s, spec.horizon, grid.dt)
    dense = _batch_columns(hom, nodes, _jump_matrices(hom, jump_nodes), [0],
                           [], dense=True)
    return [_trajectory(nodes, jump_nodes, dense, spec.dim, k, start=s,
                        t_end=spec.horizon, phi=None, zero_history=True)
            for k in range(spec.dim)]


# ---------------------------------------------------------------------------
# the RK4 engine, batched over restart columns on one shared grid


def _ring_depth(nodes: np.ndarray, theta_max: float) -> int:
    K = len(nodes) - 1
    if K <= 0 or not (theta_max > 0) or not math.isfinite(theta_max):
        return 2
    ks = np.arange(K)
    earliest = np.searchsorted(nodes, nodes[:K] - theta_max, side="right") - 1
    earliest = np.maximum(earliest, 0)
    return int(np.max(ks - earliest)) + 3


def _read_plan(nodes: np.ndarray, us: np.ndarray):
    """Per-step lookup data for delayed reads at the times `us`.

    Returns (exact, interval, weights): `exact[k]` is the node us[k] snaps
    to (`locate`; -1 when us[k] is interior), `interval[k]` the
    enclosing-interval index, and `weights[k]` the four Hermite weights on
    that interval.  Weight rows where `exact >= 0` or `interval < 0` are
    filler and never read.  Planned over the whole grid at once, so the
    step loop does no searching.
    """
    N = len(nodes)
    exact = locate(nodes, us)
    interval = np.searchsorted(nodes, us, side="right") - 1
    ic = np.clip(interval, 0, max(N - 2, 0))
    # a one-node grid has no interval: its weights are filler too
    h = nodes[ic + 1] - nodes[ic] if N > 1 else np.ones(us.shape)
    weights = np.stack(_hermite_weights((us - nodes[ic]) / h, h), axis=1)
    return exact, interval, weights


def _batch_columns(spec: SystemSpec, nodes: np.ndarray, jumps: dict,
                   s_indices: np.ndarray, record_indices: np.ndarray,
                   reflected: bool = False, start: np.ndarray = None,
                   dense: bool = False, mem_cap: int = 512 << 20):
    """X(t, s) start for all (record node, s node) pairs, batched over s.

    `jumps` maps node index -> jump matrix.  Every column starts as zero
    and is activated to `start` (n x m, default the identity) when the
    sweep reaches its s node; zero columns evolve as exact zeros, which
    realizes X(t, s) = 0 for t < s without masking.  In the forward order
    a node's jump comes first, so it belongs only to columns with s < tau,
    and the sample is the post-jump value.  The reflected order (see
    `_fundamental_rows`) activates first and then jumps every column, the
    new one included, and samples the pre-jump value.

    Delayed-read bookkeeping (exact-node detection, enclosing interval,
    Hermite weights) and coefficient values depend only on the shared grid,
    so both are planned once up front; the step loop then runs entirely on
    preallocated buffers.

    With `dense`, the history ring holds every step (it never wraps) and
    the sweep returns the dense output (y_post, y_pre, f_right, f_left),
    each (K+1, S, n, m), in place of the samples; see `Trajectory`.
    """
    n = spec.dim
    K = len(nodes) - 1
    start = np.eye(n) if start is None else np.asarray(start, dtype=float)
    m = start.shape[1]
    s_indices = np.asarray(s_indices, dtype=np.intp)
    S = len(s_indices)
    T = len(record_indices)
    theta_max = max((t.delay.theta for t in spec.terms
                     if isinstance(t.delay, ConstantLag)), default=0.0)
    D = K + 1 if dense else _ring_depth(nodes, theta_max)

    _check_causal(spec, nodes[0])
    frozen_cs = [t.delay.c for t in spec.terms if isinstance(t.delay, FrozenTime)]
    frozen_idx = {c: int(locate(nodes, c)) for c in frozen_cs}

    # per-step coefficient values and delayed-read plans, shared by chunks
    steps = np.diff(nodes)
    mids = nodes[:-1] + 0.5 * steps

    def per_step(coef):
        # step k sees values[piece[k]]: O(K) memory per term, not O(K n^2);
        # mids never sit on a break, so the side does not matter
        if isinstance(coef, MatrixTable):
            return coef.values, _pieces(coef.breaks, mids, "right")
        return np.asarray(coef, dtype=float)[None], np.zeros(K, dtype=np.intp)

    zero_lag = []
    term_plans = []  # ("frozen", coef, c) | ("lag", coef, (plan_a, plan_m, plan_b))
    for term in spec.terms:
        coef = per_step(term.coefficient)
        if isinstance(term.delay, FrozenTime):
            term_plans.append(("frozen", coef, term.delay.c))
        elif term.delay.theta == 0.0:
            zero_lag.append(coef)
        else:
            # the reads at nodes[:-1] - th and nodes[1:] - th share one plan
            th = term.delay.theta
            at_nodes = _read_plan(nodes, nodes - th)
            term_plans.append(("lag", coef, (tuple(a[:-1] for a in at_nodes),
                                             _read_plan(nodes, mids - th),
                                             tuple(a[1:] for a in at_nodes))))
    M = None  # summed zero-lag coefficients, as (values, piece)
    if zero_lag:
        combos, piece = np.unique(np.stack([p for _, p in zero_lag], axis=1),
                                  axis=0, return_inverse=True)
        M = (sum(v[combos[:, i]] for i, (v, _) in enumerate(zero_lag)),
             piece.reshape(-1))

    samples = np.zeros((T, S, n, m))
    rec_of_node = {int(node): row for row, node in enumerate(record_indices)}

    # process columns in ascending s order so that within each chunk the
    # active columns are always a prefix; every per-step operation is then
    # sliced to that prefix, which turns the rectangular sweep cost into the
    # triangular one the zero structure allows.  Un-permute the sample axis
    # at the end if a sort was needed.
    unsort = None
    if np.any(np.diff(s_indices) < 0):
        order = np.argsort(s_indices, kind="stable")
        unsort = np.argsort(order)
        s_indices = s_indices[order]

    bytes_per_col = D * n * m * 8 * 4
    chunk = max(16, int(mem_cap // max(bytes_per_col, 1)))
    if dense and S > chunk:
        raise ValueError(f"dense output of {S} columns needs more than one "
                         f"chunk of {chunk}")

    for c0 in range(0, S, chunk):
        cols = np.arange(c0, min(c0 + chunk, S))
        Sc = len(cols)
        col_of: dict[int, list[int]] = {}
        for local, col in enumerate(cols):
            col_of.setdefault(int(s_indices[col]), []).append(local)
        k_start = int(s_indices[cols[0]])
        # widths[k] = number of chunk columns already activated during step
        # k; the width never shrinks, so any buffer entry beyond a slot's
        # last written width has never been touched and still holds the
        # initial zero -- exactly the value an inactive column must supply
        widths = np.searchsorted(s_indices[cols], np.arange(K + 1),
                                 side="right")

        r_y0 = np.zeros((D, Sc, n, m))
        r_f0 = np.zeros((D, Sc, n, m))
        r_y1 = np.zeros((D, Sc, n, m))
        r_f1 = np.zeros((D, Sc, n, m))
        Y = np.zeros((Sc, n, m))
        snapshots = {c: np.zeros((Sc, n, m)) for c in frozen_cs}
        d1, d23, d4 = (np.zeros((Sc, n, m)) for _ in range(3))
        k2b, k3b, k4b, stage, acc, mm = (np.empty((Sc, n, m)) for _ in range(6))

        def at_node(node_idx):
            for local in col_of.get(node_idx, ()):
                Y[local] = start
            for c, idx in frozen_idx.items():
                if idx == node_idx:
                    snapshots[c][...] = Y
            row = rec_of_node.get(node_idx)
            if row is not None:
                samples[row, cols] = Y
            if reflected and node_idx in jumps:
                Wn = int(widths[node_idx])
                np.matmul(jumps[node_idx], Y[:Wn], out=mm[:Wn])
                np.copyto(Y[:Wn], mm[:Wn])

        def ring_too_shallow(i, k):
            # _ring_depth sizes the ring to the deepest delayed read, so
            # this is an internal error, kept as a check under python -O
            return RuntimeError(f"history ring too shallow: step {k} reads "
                                f"interval {i} with depth {D}")

        def delayed(out, A_k, plan, k, W, left):
            # ring slot k holds step-k data: Y at node k (post), right
            # derivative at node k, Y at node k+1 (pre), left derivative
            # at node k+1; the left limit at node i is step i-1 data.
            # Zero reads (at/below the chunk start, or before the grid)
            # contribute nothing and are skipped outright.
            exact, interval, weights = plan
            i = int(exact[k])
            if i >= 0:
                if i <= k_start:
                    # at/below the chunk start every column is still zero,
                    # except the right value at the start node itself
                    if left or i != k_start:
                        return
                    src = r_y0[i % D, :W]
                else:
                    if i <= k - D + 1:
                        raise ring_too_shallow(i, k)
                    src = (r_y1[(i - 1) % D, :W] if left
                           else r_y0[i % D, :W])
            else:
                i = int(interval[k])
                if i < k_start:
                    return
                if i <= k - D + 1:
                    raise ring_too_shallow(i, k)
                w = weights[k]
                blend = stage[:W]
                tmp = mm[:W]
                np.multiply(r_y0[i % D, :W], w[0], out=blend)
                np.multiply(r_f0[i % D, :W], w[1], out=tmp)
                np.add(blend, tmp, out=blend)
                np.multiply(r_y1[i % D, :W], w[2], out=tmp)
                np.add(blend, tmp, out=blend)
                np.multiply(r_f1[i % D, :W], w[3], out=tmp)
                np.add(blend, tmp, out=blend)
                src = blend
            np.matmul(A_k, src, out=mm[:W])
            out += mm[:W]

        at_node(k_start)
        for k in range(k_start, K):
            h = steps[k]
            W = int(widths[k])
            Yv = Y[:W]
            np.copyto(r_y0[k % D, :W], Yv)

            d1v, d23v, d4v = d1[:W], d23[:W], d4[:W]
            d1v[...] = 0.0
            d23v[...] = 0.0
            d4v[...] = 0.0
            for kind, (values, piece), payload in term_plans:
                A_k = values[piece[k]]
                if kind == "frozen":
                    np.matmul(A_k, snapshots[payload][:W], out=mm[:W])
                    d1v += mm[:W]
                    d23v += mm[:W]
                    d4v += mm[:W]
                else:
                    plan_a, plan_m, plan_b = payload
                    delayed(d1v, A_k, plan_a, k, W, False)
                    delayed(d23v, A_k, plan_m, k, W, False)
                    delayed(d4v, A_k, plan_b, k, W, True)

            k1 = r_f0[k % D, :W]
            y_new = r_y1[k % D, :W]
            f_left = r_f1[k % D, :W]
            k2 = k2b[:W]
            k4 = k4b[:W]
            st = stage[:W]
            accv = acc[:W]
            if M is not None:
                m_k = M[0][M[1][k]]
                np.matmul(m_k, Yv, out=k1)
                k1 += d1v
                np.negative(k1, out=k1)
                np.multiply(k1, 0.5 * h, out=st)
                st += Yv
                np.matmul(m_k, st, out=k2)
                k2 += d23v
                np.negative(k2, out=k2)
                np.multiply(k2, 0.5 * h, out=st)
                st += Yv
                k3 = k3b[:W]
                np.matmul(m_k, st, out=k3)
                k3 += d23v
                np.negative(k3, out=k3)
                np.multiply(k3, h, out=st)
                st += Yv
                np.matmul(m_k, st, out=k4)
                k4 += d4v
                np.negative(k4, out=k4)
            else:
                np.negative(d1v, out=k1)
                np.negative(d23v, out=k2)
                k3 = k2  # the middle stages coincide without a zero-lag part
                np.negative(d4v, out=k4)
            np.multiply(k2, 2.0, out=accv)
            accv += k1
            np.multiply(k3, 2.0, out=st)
            accv += st
            accv += k4
            np.multiply(accv, h / 6.0, out=accv)
            np.add(Yv, accv, out=y_new)
            if M is not None:
                np.matmul(m_k, y_new, out=f_left)
                f_left += d4v
                np.negative(f_left, out=f_left)
            else:
                np.negative(d4v, out=f_left)

            B = None if reflected else jumps.get(k + 1)
            if B is not None:
                np.matmul(B, y_new, out=Yv)
            else:
                np.copyto(Yv, y_new)
            # ring slot for the NEXT step must see post-jump values at
            # node k+1; r_y0 is written at the top of the next iteration
            at_node(k + 1)
            if (k + 1) % 256 == 0 and not np.all(np.isfinite(Y)):
                raise NumericalError(f"state non-finite at t={nodes[k + 1]}")
        if not np.all(np.isfinite(Y)):
            raise NumericalError("state non-finite at final node")
    if dense:
        # slot k holds node k's right data and node k+1's left data
        np.copyto(r_y0[K], Y)
        y_pre = np.roll(r_y1, 1, axis=0)
        y_pre[0] = r_y0[0]
        out = (r_y0, y_pre, r_f0, np.roll(r_f1, 1, axis=0))
        return out if unsort is None else tuple(a[:, unsort] for a in out)
    return samples if unsort is None else samples[:, unsort]


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


def _fundamental_rows(spec: SystemSpec, nodes: np.ndarray, jumps: dict,
                      rows) -> np.ndarray:
    """X(nodes[r], s) at every node s, for each r in `rows`, in one sweep.

    Returns out[k, i] = X(nodes[rows[k]], nodes[i]), right-continuous in s
    (the impulse at s = tau is not applied) and zero for s > t; the s-left
    limit at a jump node is out[k, i] @ B_j.  `jumps` maps node index ->
    jump matrix.

    For fixed t the row solves the formal adjoint equation
    d/ds X(t,s) = sum_i X(t, s + theta_i) A_i(s + theta_i) with X(t,t) = I,
    X(t,u) = 0 for u > t and X(t, tau_j - 0) = X(t, tau_j) B_j (Hale and
    Verduyn Lunel 1993, ch. 6).  With sigma = T - s, T = nodes[-1],
    Y(sigma) = X(t, T - sigma)^T solves the forward homogeneous system with
    coefficients A_i(T - sigma + theta_i)^T and jumps B_j^T at T - tau_j,
    restarted at T - t, so `_batch_columns` computes every row at once in
    its reflected order: O(K n^3) per row instead of the O(K^2 n^3) of one
    forward column per node.  Frozen-time terms with c = 0 act only on the
    s = 0 column, a null set for the integrals the rows feed, and are left
    out.
    """
    _check_causal(spec, nodes[0])
    t_end = float(nodes[-1])
    K = len(nodes) - 1
    terms = [DelayTerm(_reflect_coefficient(term.coefficient,
                                            t_end + term.delay.theta),
                       term.delay)
             for term in spec.terms if isinstance(term.delay, ConstantLag)]
    mirror = SystemSpec(dim=spec.dim, terms=terms, horizon=t_end)
    sigma = t_end - nodes[::-1]
    mirror_jumps = {K - i: B.T for i, B in jumps.items()}
    samples = _batch_columns(mirror, sigma, mirror_jumps,
                             K - np.asarray(rows, dtype=np.intp),
                             np.arange(K + 1), reflected=True)
    return samples[::-1].transpose(1, 0, 3, 2)


def kernel_rows(spec: SystemSpec, nodes: np.ndarray, targets) -> tuple:
    """The rows s -> X(t, s) over every node s, for each target time t.

    Returns (right, left, jump_nodes): `right[k, i]` = X(targets[k],
    nodes[i]) as `_fundamental_rows` gives it, `left` the same with the
    s-left limit X(t, tau_j) B_j at each jump node, and the grid's jump
    map, so trapezoid panels read one-sided limits directly.
    """
    rows = locate(nodes, targets)
    if np.any(rows < 0):
        raise ValueError("target times could not be pinned to grid nodes")
    jump_nodes = _jump_map(spec.impulses, nodes)
    jumps = _jump_matrices(spec, jump_nodes)
    right = _fundamental_rows(spec, nodes, jumps, rows)
    left = right.copy()
    for idx, B in jumps.items():
        left[:, idx] = right[:, idx] @ B
    return right, left, jump_nodes


def fundamental_grid(spec: SystemSpec, s_grid, t_grid,
                     grid: StepControl = StepControl()) -> FundamentalMatrix:
    """Sample X(t, s) on the product grid; zero-fill for t < s."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if s_grid.size == 0 or t_grid.size == 0:
        raise ValueError("empty s or t grid")
    if np.any(np.diff(s_grid) <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("grids must be strictly increasing")
    hi = spec.horizon
    if s_grid[0] < 0 or t_grid[0] < 0 or s_grid[-1] > hi or t_grid[-1] > hi:
        raise ValueError("grids must lie within [0, horizon]")
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))

    t_end = float(t_grid[-1])
    # each column jumps to I at its s, like x at t_start: pin its images
    images = np.add.outer(s_grid, _image_shifts(_positive_lags(spec)))
    extra = np.unique(np.concatenate((t_grid, images.ravel())))
    extra = extra[extra <= t_end]
    hom = _curtailed(spec)
    nodes, jump_nodes = _prepare_grid(hom, 0.0, t_end, grid.dt, extra=extra)
    s_idx, t_idx = locate(nodes, s_grid), locate(nodes, t_grid)
    if np.any(s_idx < 0) or np.any(t_idx < 0):
        raise ValueError("grid values could not be pinned to integration nodes")
    samples = _batch_columns(hom, nodes, _jump_matrices(hom, jump_nodes),
                             s_idx, t_idx)
    samples.setflags(write=False)
    return FundamentalMatrix(s_grid=s_grid.copy(), t_grid=t_grid.copy(),
                             samples=samples)
