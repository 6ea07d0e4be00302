"""Typed description of linear impulsive delay systems.

The model is

    x'(t) + sum_i A_i(t) x[h_i(t)] = r(t),   t >= 0,
    x(xi)  = phi(xi),                        xi < 0,
    x(tau_j) = B_j x(tau_j - 0) + alpha_j,   0 < tau_1 < tau_2 < ...,

with x right-continuous at jumps, delayed arguments h_i(t) = t - theta_i
(constant lag) or h_i(t) = c (frozen time), piecewise-constant coefficient
tables, and a finite impulse schedule on a finite horizon.  The vector norm
is the max-norm throughout; the matrix norm is the induced infinity-norm
(max absolute row sum).  All types are immutable after construction and all
operations are pure functions.  `validate` lists a spec's violations and
holds every rule on a spec's values (the config parser checks only JSON
structure); `require_valid`, internal and not exported, is the one gate
that turns them into ValueError("invalid spec: ...") in front of every
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "ConstantLag",
    "FrozenTime",
    "MatrixTable",
    "VectorTable",
    "DelayTerm",
    "ImpulseSchedule",
    "SystemSpec",
    "HypothesesReport",
    "vec_norm",
    "mat_norm",
    "validate",
    "evaluate_delay",
    "count_impulses",
    "hypotheses_report",
]


def is_left(side: str) -> bool:
    """Whether a one-sided read asks for the left limit: `side` is "left"
    or "right", and anything else raises ValueError."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side == "left"


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def vec_norm(x: np.ndarray) -> float:
    """Max-norm of a vector."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def mat_norm(m: np.ndarray) -> Union[float, np.ndarray]:
    """Induced infinity-norm: max absolute row sum.

    Accepts a single (n, n) matrix or a stacked (..., n, n) array; in the
    stacked case returns an array of norms with the leading shape.
    """
    m = np.asarray(m, dtype=float)
    norms = np.abs(m).sum(axis=-1).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class ConstantLag:
    """Delay argument h(t) = t - theta with a fixed lag theta >= 0."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class FrozenTime:
    """Delay argument h(t) = c frozen at a fixed time c >= 0.

    The lag t - c is unbounded as t grows; stability operations reject
    such terms, the integrator supports them for t >= c.
    """

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class _Table:
    """Piecewise-constant value of time: value(t) = values[k] on [breaks[k], breaks[k+1]).

    Right-continuous; extended by the first value below breaks[0] and by the
    last value above the final break.
    """

    breaks: np.ndarray  # strictly increasing piece start times
    values: np.ndarray  # one value per piece

    def __post_init__(self):
        object.__setattr__(self, "breaks", _frozen_array(self.breaks))
        object.__setattr__(self, "values", _frozen_array(self.values))

    def value(self, t: float, side: str = "right") -> np.ndarray:
        k = int(np.searchsorted(self.breaks, t,
                                side="left" if is_left(side) else "right"))
        return self.values[max(k - 1, 0)]


class MatrixTable(_Table):
    """Piecewise-constant (n, n) matrix of time; values has shape (p, n, n)."""


class VectorTable(_Table):
    """Piecewise-constant length-n vector of time; values has shape (p, n)."""


Coefficient = Union[np.ndarray, MatrixTable]
Signal = Union[None, np.ndarray, VectorTable]  # None means identically zero
Delay = Union[ConstantLag, FrozenTime]


@dataclass(frozen=True)
class DelayTerm:
    """One summand A(t) x[h(t)] of the delay part."""

    coefficient: Coefficient  # constant (n, n) matrix or MatrixTable
    delay: Delay

    def __post_init__(self):
        if not isinstance(self.coefficient, _Table):
            object.__setattr__(self, "coefficient", _frozen_array(self.coefficient))


@dataclass(frozen=True)
class ImpulseSchedule:
    """Finite jump schedule: x(tau_j) = B_j x(tau_j - 0) + alpha_j.

    tau_0 = 0 is not a jump; the initial value x(0) lives on SystemSpec.
    Singular B_j are allowed.  `dim` is carried explicitly so the empty
    schedule still knows its space.
    """

    points: np.ndarray  # strictly increasing jump times, all > 0
    matrices: np.ndarray  # (J, n, n)
    offsets: np.ndarray  # (J, n); zero if omitted
    dim: int

    def __post_init__(self):
        # the arrays keep the shapes they are given, for `validate` to check
        points = _frozen_array(np.atleast_1d(self.points))
        matrices, offsets = self.matrices, self.offsets
        if not len(points):
            matrices = np.zeros((0, self.dim, self.dim))
        if offsets is None or not len(points):
            offsets = np.zeros((len(points), self.dim))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "matrices", _frozen_array(matrices))
        object.__setattr__(self, "offsets", _frozen_array(offsets))

    @classmethod
    def empty(cls, dim: int) -> "ImpulseSchedule":
        return cls(np.zeros(0), np.zeros((0, dim, dim)), np.zeros((0, dim)), dim)

    @classmethod
    def periodic(cls, period: float, matrix, horizon: float,
                 offset=None, dim: int | None = None) -> "ImpulseSchedule":
        """Expand a periodic rule tau_j = j*period, fixed B and alpha, to the horizon."""
        matrix = np.asarray(matrix, dtype=float)
        if dim is None:
            dim = matrix.shape[0]
        count = periodic_count(period, horizon, dim)
        points = period * np.arange(1, count + 1)
        matrices = np.repeat(matrix[None], count, axis=0)
        off = np.zeros(dim) if offset is None else np.asarray(offset, dtype=float)
        offsets = np.repeat(off[None], count, axis=0)
        return cls(points, matrices, offsets, dim)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SystemSpec:
    """Complete problem statement on a finite horizon [0, T_end]."""

    dim: int
    terms: tuple[DelayTerm, ...]
    impulses: ImpulseSchedule
    forcing: Signal  # r(t); None = zero
    phi: Signal  # initial function on (-inf, 0); None = zero
    x0: np.ndarray  # initial value x(0) = alpha_0
    horizon: float

    def __init__(self, dim, terms=(), impulses=None, forcing=None,
                 phi=None, x0=None, horizon=1.0):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "impulses",
                           impulses if impulses is not None else ImpulseSchedule.empty(int(dim)))
        for name, sig in (("forcing", forcing), ("phi", phi)):
            if sig is not None and not isinstance(sig, _Table):
                sig = _frozen_array(sig)
            object.__setattr__(self, name, sig)
        object.__setattr__(self, "x0",
                           _frozen_array(np.zeros(int(dim)) if x0 is None else x0))
        object.__setattr__(self, "horizon", float(horizon))

    def max_lag(self) -> float:
        """Largest constant lag; 0.0 when no lagged terms exist."""
        lags = [t.delay.theta for t in self.terms if isinstance(t.delay, ConstantLag)]
        return max(lags) if lags else 0.0

    def has_frozen(self) -> bool:
        return any(isinstance(t.delay, FrozenTime) for t in self.terms)


@dataclass(frozen=True)
class HypothesesReport:
    """Computed hypothesis data for one spec.

    M:     sup_j ||B_j|| over the jump points up to the horizon (0 for none).
    I_hat: windowed finite-horizon estimate of the impulse density
           limsup i(t,s)/(t-s); for a periodic schedule with period T it
           approaches 1/T as the horizon grows.
    delta: max_i (t - h_i(t)); max constant lag, inf if a frozen term exists.
    Q:     sup over [0, horizon] of sum_k ||A_k(t)||, exact over the tables.
    """

    M: float
    I_hat: float
    delta: float
    Q: float
    window: float  # minimal segment length used by the I_hat enumeration


def evaluate_delay(term: DelayTerm, t: float) -> float:
    """Delayed argument h(t) of a term; always <= t on its domain."""
    if isinstance(term.delay, ConstantLag):
        return t - term.delay.theta
    if not t >= term.delay.c:
        raise ValueError(
            f"frozen-time delay h(t) = {term.delay.c} queried at t = {t}; "
            "the equation requires h(t) <= t")
    return term.delay.c


def periodic_count(period: float, horizon: float, dim: int) -> int:
    """Number of jump points j * period, j >= 1, up to the horizon, as
    `ImpulseSchedule.periodic` expands them; none for a negative horizon,
    which `validate` then names.

    Raises ValueError("must be positive, got ...") unless period > 0 (NaN
    included), and ValueError, naming the period, when horizon / period is
    not finite or when the expanded points, matrices and offsets would take
    more than np.iinfo(np.intp).max bytes, count * 8 * (1 + n + n^2).
    """
    if not period > 0:
        raise ValueError(f"must be positive, got {period!r}")
    ratio = horizon / period
    count = max(0, math.floor(ratio + 1e-12)) if math.isfinite(ratio) else 0
    if (not math.isfinite(ratio)
            or count * 8 * (1 + dim + dim * dim) > np.iinfo(np.intp).max):
        raise ValueError(f"too small: period {period!r} gives horizon / "
                         f"period = {ratio:g} jump points")
    return count


def count_impulses(schedule: ImpulseSchedule, s: float, t: float) -> int:
    """i(t, s): number of jump points in the closed segment [s, t]."""
    if not s <= t:
        raise ValueError(f"count_impulses needs s <= t, got s={s}, t={t}")
    lo = int(np.searchsorted(schedule.points, s, side="left"))
    hi = int(np.searchsorted(schedule.points, t, side="right"))
    return hi - lo


def coefficient_pieces(coef: Coefficient, horizon: float):
    """(breaks, ||A|| per piece) of a coefficient on [0, horizon].

    The first piece is the one in force at t = 0 and starts at 0; the others
    start at the table breaks in (0, horizon].  Pieces that end before 0 are
    dropped.
    """
    if not isinstance(coef, MatrixTable):
        return np.array([0.0]), np.array([mat_norm(coef)])
    b = coef.breaks
    starts = np.concatenate(([0.0], b[(b > 0.0) & (b <= horizon)]))
    piece = np.maximum(np.searchsorted(b, starts, side="right") - 1, 0)
    return starts, mat_norm(coef.values[piece])


def schedule_gaps(schedule: ImpulseSchedule,
                  horizon: float) -> tuple[float, float]:
    """(zeta, rho): the smallest and largest gap between the jump points
    up to `horizon` (points beyond it never act).

    Both are NaN when fewer than two points remain.
    """
    points = schedule.points[schedule.points <= horizon]
    if len(points) < 2:
        return math.nan, math.nan
    gaps = np.diff(points)
    return float(gaps.min()), float(gaps.max())


def field_problems(name: str, value, shape: tuple) -> list[str]:
    """What is wrong with one array field of a spec.  It must be None
    (zero), a finite constant of `shape`, or (a coefficient, the forcing or
    phi) a non-empty table with one finite value of `shape` per break and
    finite, strictly increasing breaks.  `cauchy_apply` holds its forcing
    table to the same rule; the name is shared, not exported."""
    if value is None:
        return []
    if not isinstance(value, _Table):
        if value.shape != shape:
            return [f"{name}: expected shape {shape}, got {value.shape}"]
        return [] if np.all(np.isfinite(value)) else [f"{name}: non-finite entries"]
    breaks, values = value.breaks, value.values
    if values.size == 0:
        return [f"{name}: table has no pieces"]
    if breaks.ndim != 1 or values.shape != breaks.shape + shape:
        return [f"{name}: expected one value of shape {shape} per break, got "
                f"breaks of shape {breaks.shape} and values of shape {values.shape}"]
    bad = []
    if not np.all(np.isfinite(breaks)):
        bad.append(f"{name}: non-finite table breaks")
    elif np.any(np.diff(breaks) <= 0):
        bad.append(f"{name}: table breaks not strictly increasing")
    if not np.all(np.isfinite(values)):
        bad.append(f"{name}: non-finite entries (must be bounded)")
    return bad


def validate(spec: SystemSpec) -> list[str]:
    """Check the structural hypotheses; returns violations, empty = valid."""
    bad: list[str] = []
    n = spec.dim
    if n < 1:
        bad.append(f"dim: must be >= 1, got {n}")
        return bad
    if not (math.isfinite(spec.horizon) and spec.horizon > 0):
        bad.append(f"horizon: must be positive and finite, got {spec.horizon}")

    for i, term in enumerate(spec.terms):
        bad += field_problems(f"terms[{i}].coefficient", term.coefficient, (n, n))
        d = term.delay
        if isinstance(d, ConstantLag):
            if not (math.isfinite(d.theta) and d.theta >= 0):
                bad.append(f"terms[{i}].delay: delay negative or non-finite (lag {d.theta})")
        else:
            if not (math.isfinite(d.c) and d.c >= 0):
                bad.append(f"terms[{i}].delay: frozen time negative or non-finite ({d.c})")
            elif d.c > spec.horizon:
                bad.append(f"terms[{i}].delay: frozen time {d.c} beyond horizon {spec.horizon}")

    sch = spec.impulses
    if sch.dim != n:
        bad.append(f"impulses: schedule dim {sch.dim} != spec dim {n}")
    if len(sch) and sch.points[0] <= 0:
        bad.append(f"impulses.points: must all be > 0, got first point {sch.points[0]}")
    if np.any(np.diff(sch.points) <= 0):
        bad.append("impulses.points: not strictly increasing")
    if not np.all(np.isfinite(sch.points)):
        bad.append("impulses.points: non-finite entries")
    bad += field_problems("impulses.matrices", sch.matrices, (len(sch), n, n))
    bad += field_problems("impulses.offsets", sch.offsets, (len(sch), n))
    bad += field_problems("forcing", spec.forcing, (n,))
    phi_bad = field_problems("phi", spec.phi, (n,))
    bad += phi_bad

    delta = spec.max_lag()
    if delta > 0 and isinstance(spec.phi, VectorTable) and not phi_bad:
        if spec.phi.breaks[0] > -delta:
            bad.append(f"phi: table covers [{spec.phi.breaks[0]}, 0) but delayed reads reach "
                       f"down to -{delta}; extend the table to cover [-{delta}, 0)")
        if spec.phi.breaks[-1] >= 0:
            bad.append("phi: table breaks must lie below 0 (phi is the history on (-inf, 0))")

    return bad + field_problems("x0", spec.x0, (n,))


def require_valid(spec: SystemSpec) -> None:
    """The one gate in front of every computation on a spec: raises
    ValueError("invalid spec: ...") listing what `validate` finds."""
    bad = validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))


def hypotheses_report(spec: SystemSpec, window: float | None = None) -> HypothesesReport:
    """Hypothesis data (M, I_hat, delta, Q) computed exactly over the tables.

    I_hat maximizes i(t,s)/(t-s) over segments [s, t] with t-s >= window
    (default horizon/4).  The maximum over continuous endpoints is attained
    at impulse-point pairs with the segment length clamped to the window,
    so an exact enumeration over point pairs suffices.  An invalid spec
    raises ValueError("invalid spec: ...") (`require_valid`), and so does
    a window that is not positive and finite.
    """
    require_valid(spec)
    w = spec.horizon / 4.0 if window is None else float(window)
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"window must be positive and finite, got {w}")
    sch = spec.impulses
    keep = sch.points <= spec.horizon
    M = float(mat_norm(sch.matrices[keep]).max(initial=0.0))

    pts = sch.points[keep]
    I_hat = 0.0
    # all pairs a <= b, one offset k = b - a at a time
    for k in range(len(pts)):
        length = np.maximum(pts[k:] - pts[: len(pts) - k], w)
        I_hat = max(I_hat, float(np.max((k + 1) / length)))

    delta = math.inf if spec.has_frozen() else spec.max_lag()

    # exact vraisup of sum_k ||A_k(t)|| on [0, horizon]: piecewise-constant
    # tables make the sum a step function; evaluate on the union of breaks,
    # adding the terms in order
    pieces = [coefficient_pieces(term.coefficient, spec.horizon)
              for term in spec.terms]
    union = np.unique(np.concatenate([[0.0]] + [b for b, _ in pieces]))
    total = np.zeros(len(union))
    for breaks, norms in pieces:
        total += norms[np.searchsorted(breaks, union, side="right") - 1]
    return HypothesesReport(M=M, I_hat=I_hat, delta=delta,
                            Q=float(total.max()), window=w)
