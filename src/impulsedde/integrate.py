"""Jump-aware dense-output integration by the method of steps.

Solves x'(t) + sum_i A_i(t) x[h_i(t)] = r(t) with jumps
x(tau_j) = B_j x(tau_j - 0) + alpha_j using the classical 4-stage
Runge-Kutta scheme with cubic Hermite dense output.  Delayed values are
read from the dense history; jump points tau_j and their first-generation
images tau_j + theta_i are mandatory grid nodes, so interpolants are never
evaluated across a breakpoint.  The same engine, batched over the restart
time s, computes the fundamental matrix X(t, s) of the s-curtailed
equation (zero history below s, X(s, s) = identity, impulses only at
tau_j > s, X(t, s) = 0 for t < s); run over the reflected adjoint system,
it computes the rows s -> X(t, s) for a few t at once.
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
    "evaluate",
    "fundamental_matrix",
    "fundamental_grid",
]

# absolute/relative snap tolerance for matching times to grid nodes; catches
# 1-ulp drift of expressions like (tau + theta) - theta, five orders below
# any step size in use
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


def _snap(u: float, v: float) -> bool:
    return abs(u - v) <= _SNAP * max(1.0, abs(u), abs(v))


def _signal_value(sig, t: float, side: str, dim: int) -> np.ndarray:
    if sig is None:
        return np.zeros(dim)
    if isinstance(sig, VectorTable):
        return np.asarray(sig.value(t, side), dtype=float)
    return np.asarray(sig, dtype=float)


def _history_value(phi, t: float, side: str, dim: int) -> np.ndarray:
    # history reads land on lag images fl(fl(b + theta) - theta) of phi's
    # breaks b, so a read within the snap tolerance of a break is taken
    # there (represent._table_rows applies the same rule to arrays)
    if isinstance(phi, VectorTable):
        i = _node_index(phi.breaks, t)
        if i >= 0:
            t = float(phi.breaks[i])
    return _signal_value(phi, t, side, dim)


def _coef_value(coef, t: float) -> np.ndarray:
    # tables change only at grid breaks, so any interior time of the current
    # step sees one constant piece; callers pass the step midpoint
    if isinstance(coef, MatrixTable):
        return np.asarray(coef.value(t), dtype=float)
    return np.asarray(coef, dtype=float)


def _hermite_weights(xi: float, h: float):
    xi2 = xi * xi
    xi3 = xi2 * xi
    return (
        2.0 * xi3 - 3.0 * xi2 + 1.0,
        h * (xi3 - 2.0 * xi2 + xi),
        -2.0 * xi3 + 3.0 * xi2,
        h * (xi3 - xi2),
    )


def _min_positive_lag(spec: SystemSpec) -> float:
    lags = [t.delay.theta for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta > 0]
    return min(lags) if lags else math.inf


def _collect_breaks(spec: SystemSpec, t_start: float, t_end: float,
                    with_history: bool, extra=()) -> np.ndarray:
    """Sorted mandatory grid nodes in [t_start, t_end].

    Includes the endpoints, every jump point, first-generation propagated
    images tau_j + theta_i, the images t_start + theta_i of the initial
    discontinuity, frozen times, coefficient/forcing table breaks, and
    (when the history is phi rather than zero) the images of phi's table
    breaks.  `extra` values are forced in as exact nodes.
    """
    pts = [t_start, t_end]
    lags = [t.delay.theta for t in spec.terms if isinstance(t.delay, ConstantLag)]
    taus = spec.impulses.points
    pts.extend(taus)
    for theta in lags:
        if theta > 0:
            pts.append(t_start + theta)
            pts.extend(taus + theta)
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime):
            pts.append(term.delay.c)
        if isinstance(term.coefficient, MatrixTable):
            pts.extend(term.coefficient.breaks)
    if spec.forcing is not None and isinstance(spec.forcing, VectorTable):
        pts.extend(spec.forcing.breaks)
    if with_history and isinstance(spec.phi, VectorTable):
        for theta in lags:
            if theta > 0:
                pts.extend(spec.phi.breaks + theta)
    pts.extend(extra)

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


def _node_index(nodes: np.ndarray, t: float) -> int:
    """Exact (snap-tolerant) index of t in nodes, or -1."""
    i = int(np.searchsorted(nodes, t))
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(nodes) and _snap(nodes[j], t):
            return j
    return -1


def _jump_map(schedule: ImpulseSchedule, nodes: np.ndarray,
              after: float = 0.0) -> dict:
    """Map node index -> impulse index for every jump point tau > after on
    the grid (node 0 carries no jump: columns start there post-jump)."""
    out = {}
    t_end = nodes[-1]
    for j, tau in enumerate(schedule.points):
        if tau > after and (tau <= t_end or _snap(tau, t_end)):
            idx = _node_index(nodes, tau)
            if idx > 0:
                out[idx] = j
    return out


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
        return _history_value(self.phi, t, side, self.dim)

    def value(self, t: float, side: str = "right") -> np.ndarray:
        """Dense-output value; side selects the limit at a node."""
        t = float(t)
        if t < self.start and not _snap(t, self.start):
            return self._pre_history(t, side)
        if t > self.t_end and not _snap(t, self.t_end):
            raise ValueError(f"query t={t} beyond horizon {self.t_end}")
        nodes = self.t_nodes
        i = _node_index(nodes, t)
        if i >= 0:
            if side == "right":
                return self.y_post[i].copy()
            if i == 0:
                return self._pre_history(self.start, "left")
            return self.y_pre[i].copy()
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
        a = _node_index(self.t_grid, t)
        b = _node_index(self.s_grid, s)
        if a < 0 or b < 0:
            raise KeyError(f"(t={t}, s={s}) not on the sampled grid")
        return self.samples[a, b]


class _History:
    """Dense history reader over the arrays an integration is filling."""

    def __init__(self, traj_arrays, nodes, pre_history):
        self.nodes = nodes
        (self.y_post, self.y_pre, self.f_right, self.f_left) = traj_arrays
        self.pre_history = pre_history  # callable (t, side) -> vector

    def value(self, t: float, side: str) -> np.ndarray:
        nodes = self.nodes
        if t < nodes[0] and not _snap(t, nodes[0]):
            return self.pre_history(t, side)
        i = _node_index(nodes, t)
        if i >= 0:
            if side == "right":
                return self.y_post[i]
            if i == 0:
                return self.pre_history(nodes[0], "left")
            return self.y_pre[i]
        i = int(np.searchsorted(nodes, t, side="right")) - 1
        h = nodes[i + 1] - nodes[i]
        w0, w1, w2, w3 = _hermite_weights((t - nodes[i]) / h, h)
        return (w0 * self.y_post[i] + w1 * self.f_right[i]
                + w2 * self.y_pre[i + 1] + w3 * self.f_left[i + 1])


def _integrate(spec: SystemSpec, t_start: float, t_end: float, y0: np.ndarray,
               zero_history: bool, with_offsets: bool, with_forcing: bool,
               dt: float, impulses_after: float) -> Trajectory:
    """Shared single-trajectory engine (plain solves and curtailed columns)."""
    n = spec.dim
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime) and term.delay.c > t_start:
            raise ValueError(
                f"frozen-time term at c={term.delay.c} would be queried before c "
                f"(integration starts at {t_start}); the equation is not causal there")
    dt_eff = min(dt, _min_positive_lag(spec))
    breaks = _collect_breaks(spec, t_start, t_end, with_history=not zero_history)
    nodes = _build_nodes(breaks, dt_eff)
    K = len(nodes) - 1

    jump_nodes = _jump_map(spec.impulses, nodes, after=impulses_after)

    y_post = np.zeros((K + 1, n))
    y_pre = np.zeros((K + 1, n))
    f_right = np.zeros((K + 1, n))
    f_left = np.zeros((K + 1, n))

    def pre_history(t, side):
        if zero_history:
            return np.zeros(n)
        return _history_value(spec.phi, t, side, n)

    hist = _History((y_post, y_pre, f_right, f_left), nodes, pre_history)

    y = np.array(y0, dtype=float)
    y_post[0] = y
    y_pre[0] = y

    terms = spec.terms
    for k in range(K):
        ta, tb = nodes[k], nodes[k + 1]
        h = tb - ta
        tm = ta + 0.5 * h
        r_mid = _signal_value(spec.forcing, tm, "right", n) if with_forcing \
            else np.zeros(n)

        # split the right-hand side into the instantaneous matrix and the
        # stage-independent delayed contributions (three distinct stage times)
        m_sum = np.zeros((n, n))
        d1 = np.zeros(n)
        d23 = np.zeros(n)
        d4 = np.zeros(n)
        for term in terms:
            a = _coef_value(term.coefficient, tm)
            if isinstance(term.delay, FrozenTime):
                xc = hist.value(term.delay.c, "right")
                contrib = a @ xc
                d1 += contrib
                d23 += contrib
                d4 += contrib
            elif term.delay.theta == 0.0:
                m_sum += a
            else:
                th = term.delay.theta
                d1 += a @ hist.value(ta - th, "right")
                d23 += a @ hist.value(tm - th, "right")
                d4 += a @ hist.value(tb - th, "left")

        k1 = r_mid - d1 - m_sum @ y
        k2 = r_mid - d23 - m_sum @ (y + (0.5 * h) * k1)
        k3 = r_mid - d23 - m_sum @ (y + (0.5 * h) * k2)
        k4 = r_mid - d4 - m_sum @ (y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        f_right[k] = k1
        y_pre[k + 1] = y_new
        f_left[k + 1] = r_mid - d4 - m_sum @ y_new

        j = jump_nodes.get(k + 1)
        if j is not None:
            y = spec.impulses.matrices[j] @ y_new
            if with_offsets:
                y = y + spec.impulses.offsets[j]
        else:
            y = y_new
        y_post[k + 1] = y
        if not np.all(np.isfinite(y)):
            raise NumericalError(f"state non-finite at t={tb}")

    for arr in (nodes, y_post, y_pre, f_right, f_left):
        arr.setflags(write=False)
    return Trajectory(t_nodes=nodes, y_post=y_post, y_pre=y_pre,
                      f_right=f_right, f_left=f_left, jump_nodes=jump_nodes,
                      dim=n, start=t_start, t_end=t_end, phi=spec.phi,
                      zero_history=zero_history)


def solve(spec: SystemSpec, grid: StepControl = StepControl()) -> Trajectory:
    """Numerical solution of the full problem on [0, horizon]."""
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    return _integrate(spec, 0.0, spec.horizon, spec.x0,
                      zero_history=False, with_offsets=True, with_forcing=True,
                      dt=grid.dt, impulses_after=0.0)


def evaluate(traj: Trajectory, spec: SystemSpec, t: float) -> np.ndarray:
    """Dense-output value at t; phi answers t < 0; right-continuous at jumps."""
    if t > spec.horizon and not _snap(t, spec.horizon):
        raise ValueError(f"t={t} beyond horizon {spec.horizon}")
    return traj.value(t, side="right")


def _curtailed(spec: SystemSpec) -> SystemSpec:
    """Homogeneous version: zero forcing, zero history, no jump offsets."""
    sch = spec.impulses
    hom_sch = ImpulseSchedule(sch.points, sch.matrices,
                              np.zeros_like(sch.offsets), sch.dim)
    return SystemSpec(dim=spec.dim, terms=spec.terms, impulses=hom_sch,
                      forcing=None, phi=None, x0=None, horizon=spec.horizon)


def fundamental_matrix(spec: SystemSpec, s: float,
                       grid: StepControl = StepControl()) -> list[Trajectory]:
    """Columns of X(., s): n curtailed solves with x(s) = e_k, zero history."""
    if not (0.0 <= s < spec.horizon):
        raise ValueError(f"restart time s={s} outside [0, horizon={spec.horizon})")
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    hom = _curtailed(spec)
    cols = []
    for k in range(spec.dim):
        e = np.zeros(spec.dim)
        e[k] = 1.0
        cols.append(_integrate(hom, s, spec.horizon, e, zero_history=True,
                               with_offsets=False, with_forcing=False,
                               dt=grid.dt, impulses_after=s))
    return cols


# ---------------------------------------------------------------------------
# batched computation of X(t, s) over many s on one shared grid


def _prepare_grid(spec: SystemSpec, t_end: float, dt: float, extra=(),
                  with_history: bool = False):
    dt_eff = min(dt, _min_positive_lag(spec))
    breaks = _collect_breaks(spec, 0.0, t_end, with_history=with_history,
                             extra=extra)
    nodes = _build_nodes(breaks, dt_eff)
    return nodes, _jump_map(spec.impulses, nodes)


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

    Returns (exact, interval, weights): `exact[k]` is the snap-tolerant
    node index of us[k] (or -1 when us[k] is interior), `interval[k]` the
    enclosing-interval index, and `weights[k]` the four Hermite weights on
    that interval.  Weight rows where `exact >= 0` or `interval < 0` are
    filler and never read.  This reproduces _node_index/_snap exactly but
    vectorized over the whole grid, so the step loop does no searching.
    """
    N = len(nodes)
    base = np.searchsorted(nodes, us)
    exact = np.full(us.shape, -1, dtype=np.intp)
    # reversed candidate order so the lowest index wins ties, as _node_index's
    # first-match scan over (i-1, i, i+1) does
    for off in (1, 0, -1):
        j = base + off
        ok = (j >= 0) & (j < N)
        jj = np.clip(j, 0, N - 1)
        tol = _SNAP * np.maximum(1.0, np.maximum(np.abs(nodes[jj]), np.abs(us)))
        hit = ok & (np.abs(nodes[jj] - us) <= tol)
        exact[hit] = j[hit]
    interval = np.searchsorted(nodes, us, side="right") - 1
    ic = np.clip(interval, 0, max(N - 2, 0))
    h = nodes[ic + 1] - nodes[ic]
    weights = np.stack(_hermite_weights((us - nodes[ic]) / h, h), axis=1)
    return exact, interval, weights


def _batch_columns(spec: SystemSpec, nodes: np.ndarray, jumps: dict,
                   s_indices: np.ndarray, record_indices: np.ndarray,
                   reflected: bool = False,
                   mem_cap: int = 512 << 20) -> np.ndarray:
    """X(t, s) for all (record node, s node) pairs, batched over s.

    `jumps` maps node index -> jump matrix.  Every column starts as zero
    and is activated to the identity when the sweep reaches its s node;
    zero columns evolve as exact zeros, which realizes X(t, s) = 0 for
    t < s without masking.  In the forward order a node's jump comes
    first, so it belongs only to columns with s < tau, and the sample is
    the post-jump value.  The reflected order (see `_fundamental_rows`)
    activates first and then jumps every column, the new one included, and
    samples the pre-jump value.

    Delayed-read bookkeeping (exact-node detection, enclosing interval,
    Hermite weights) and coefficient values depend only on the shared grid,
    so both are planned once up front; the step loop then runs entirely on
    preallocated buffers.
    """
    n = spec.dim
    K = len(nodes) - 1
    s_indices = np.asarray(s_indices, dtype=np.intp)
    S = len(s_indices)
    T = len(record_indices)
    theta_max = max((t.delay.theta for t in spec.terms
                     if isinstance(t.delay, ConstantLag)), default=0.0)
    D = _ring_depth(nodes, theta_max)

    frozen_cs = [t.delay.c for t in spec.terms if isinstance(t.delay, FrozenTime)]
    for c in frozen_cs:
        if c > 0:
            raise ValueError("frozen-time term with c > 0 is not causal from t=0")
    frozen_idx = {c: _node_index(nodes, c) for c in frozen_cs}

    # per-step coefficient values and delayed-read plans, shared by chunks
    steps = np.diff(nodes)
    mids = nodes[:-1] + 0.5 * steps
    M = None  # summed zero-lag coefficients, (K, n, n)
    term_plans = []  # ("frozen", A, c) | ("lag", A, (plan_a, plan_m, plan_b))
    for term in spec.terms:
        if isinstance(term.coefficient, MatrixTable):
            A = np.stack([np.asarray(term.coefficient.value(t), dtype=float)
                          for t in mids]) if K else np.zeros((0, n, n))
        else:
            A = np.broadcast_to(np.asarray(term.coefficient, dtype=float),
                                (K, n, n))
        if isinstance(term.delay, FrozenTime):
            term_plans.append(("frozen", A, term.delay.c))
        elif term.delay.theta == 0.0:
            if M is None:
                M = np.zeros((K, n, n))
            M += A
        else:
            th = term.delay.theta
            term_plans.append(("lag", A,
                               tuple(_read_plan(nodes, pts - th)
                                     for pts in (nodes[:-1], mids, nodes[1:]))))

    samples = np.zeros((T, S, n, n))
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

    bytes_per_col = D * n * n * 8 * 4
    chunk = max(16, int(mem_cap // max(bytes_per_col, 1)))
    eye = np.eye(n)

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

        r_y0 = np.zeros((D, Sc, n, n))
        r_f0 = np.zeros((D, Sc, n, n))
        r_y1 = np.zeros((D, Sc, n, n))
        r_f1 = np.zeros((D, Sc, n, n))
        Y = np.zeros((Sc, n, n))
        snapshots = {c: np.zeros((Sc, n, n)) for c in frozen_cs}
        d1, d23, d4 = (np.zeros((Sc, n, n)) for _ in range(3))
        k2b, k3b, k4b, stage, acc, mm = (np.empty((Sc, n, n)) for _ in range(6))

        def at_node(node_idx):
            for local in col_of.get(node_idx, ()):
                Y[local] = eye
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
            for kind, A, payload in term_plans:
                if kind == "frozen":
                    np.matmul(A[k], snapshots[payload][:W], out=mm[:W])
                    d1v += mm[:W]
                    d23v += mm[:W]
                    d4v += mm[:W]
                else:
                    plan_a, plan_m, plan_b = payload
                    delayed(d1v, A[k], plan_a, k, W, False)
                    delayed(d23v, A[k], plan_m, k, W, False)
                    delayed(d4v, A[k], plan_b, k, W, True)

            k1 = r_f0[k % D, :W]
            y_new = r_y1[k % D, :W]
            f_left = r_f1[k % D, :W]
            k2 = k2b[:W]
            k4 = k4b[:W]
            st = stage[:W]
            accv = acc[:W]
            if M is not None:
                m = M[k]
                np.matmul(m, Yv, out=k1)
                k1 += d1v
                np.negative(k1, out=k1)
                np.multiply(k1, 0.5 * h, out=st)
                st += Yv
                np.matmul(m, st, out=k2)
                k2 += d23v
                np.negative(k2, out=k2)
                np.multiply(k2, 0.5 * h, out=st)
                st += Yv
                k3 = k3b[:W]
                np.matmul(m, st, out=k3)
                k3 += d23v
                np.negative(k3, out=k3)
                np.multiply(k3, h, out=st)
                st += Yv
                np.matmul(m, st, out=k4)
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
                np.matmul(M[k], y_new, out=f_left)
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
    return samples if unsort is None else samples[:, unsort]


def _reflect_coefficient(coef, shift: float):
    """sigma -> coef(shift - sigma)^T, for reads at step midpoints.

    A table keeps its pieces in reverse order; the sides at the reflected
    breaks swap, which the midpoint reads never see.
    """
    if not isinstance(coef, MatrixTable):
        return np.asarray(coef, dtype=float).T
    breaks = np.concatenate(([-np.inf], shift - coef.breaks[::-1]))
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
    for term in spec.terms:
        if isinstance(term.delay, FrozenTime) and term.delay.c > 0:
            raise ValueError("frozen-time term with c > 0 is not causal from t=0")
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
    lags = [t.delay.theta for t in spec.terms
            if isinstance(t.delay, ConstantLag) and t.delay.theta > 0]
    images = [s_grid + theta for theta in lags]
    extra = np.unique(np.concatenate((s_grid, t_grid, *images)))
    extra = extra[extra <= t_end]
    hom = _curtailed(spec)
    nodes, jump_nodes = _prepare_grid(hom, t_end, grid.dt, extra=extra)
    s_idx = np.array([_node_index(nodes, s) for s in s_grid])
    t_idx = np.array([_node_index(nodes, t) for t in t_grid])
    if np.any(s_idx < 0) or np.any(t_idx < 0):
        raise ValueError("grid values could not be pinned to integration nodes")
    jumps = {i: hom.impulses.matrices[j] for i, j in jump_nodes.items()}
    samples = _batch_columns(hom, nodes, jumps, s_idx, t_idx)
    samples.setflags(write=False)
    return FundamentalMatrix(s_grid=s_grid.copy(), t_grid=t_grid.copy(),
                             samples=samples)
