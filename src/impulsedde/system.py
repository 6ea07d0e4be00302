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
operations are pure functions.  `validate` lists a spec's violations;
`require_valid`, internal and not exported, is the one gate that turns
them into ValueError("invalid spec: ...") in front of every computation.
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
class MatrixTable:
    """Piecewise-constant matrix of time: value(t) = values[k] on [breaks[k], breaks[k+1]).

    Right-continuous; extended by the first value below breaks[0] and by the
    last value above the final break.
    """

    breaks: np.ndarray  # ascending piece start times
    values: np.ndarray  # (p, n, n), one matrix per piece

    def __post_init__(self):
        object.__setattr__(self, "breaks", _frozen_array(self.breaks))
        object.__setattr__(self, "values", _frozen_array(self.values))

    def value(self, t: float, side: str = "right") -> np.ndarray:
        k = int(np.searchsorted(self.breaks, t, side="right" if side == "right" else "left")) - 1
        return self.values[max(k, 0)]


@dataclass(frozen=True)
class VectorTable:
    """Piecewise-constant vector of time; same conventions as MatrixTable."""

    breaks: np.ndarray  # ascending piece start times
    values: np.ndarray  # (p, n), one vector per piece

    def __post_init__(self):
        object.__setattr__(self, "breaks", _frozen_array(self.breaks))
        object.__setattr__(self, "values", _frozen_array(self.values))

    def value(self, t: float, side: str = "right") -> np.ndarray:
        k = int(np.searchsorted(self.breaks, t, side="right" if side == "right" else "left")) - 1
        return self.values[max(k, 0)]


Coefficient = Union[np.ndarray, MatrixTable]
Signal = Union[None, np.ndarray, VectorTable]  # None means identically zero
Delay = Union[ConstantLag, FrozenTime]


@dataclass(frozen=True)
class DelayTerm:
    """One summand A(t) x[h(t)] of the delay part."""

    coefficient: Coefficient  # constant (n, n) matrix or MatrixTable
    delay: Delay

    def __post_init__(self):
        if not isinstance(self.coefficient, MatrixTable):
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
        points = _frozen_array(np.atleast_1d(self.points))
        matrices = np.asarray(self.matrices, dtype=float).reshape(len(points), self.dim, self.dim) \
            if len(points) else np.zeros((0, self.dim, self.dim))
        offsets = self.offsets
        if offsets is None:
            offsets = np.zeros((len(points), self.dim))
        offsets = np.asarray(offsets, dtype=float).reshape(len(points), self.dim) \
            if len(points) else np.zeros((0, self.dim))
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
        count = int(math.floor(horizon / period + 1e-12))
        points = period * np.arange(1, count + 1)
        matrices = np.broadcast_to(matrix, (count, dim, dim)).copy()
        off = np.zeros(dim) if offset is None else np.asarray(offset, dtype=float)
        offsets = np.broadcast_to(off, (count, dim)).copy()
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
            if sig is not None and not isinstance(sig, VectorTable):
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
    if t < term.delay.c:
        raise ValueError(
            f"frozen-time delay h(t) = {term.delay.c} queried at t = {t} < c; "
            "the equation requires h(t) <= t")
    return term.delay.c


def count_impulses(schedule: ImpulseSchedule, s: float, t: float) -> int:
    """i(t, s): number of jump points in the closed segment [s, t]."""
    if s > t:
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
        coef = term.coefficient
        if isinstance(coef, MatrixTable):
            if len(coef.values) == 0:
                bad.append(f"terms[{i}].coefficient: table has no pieces")
            if coef.values.shape[1:] != (n, n):
                bad.append(f"terms[{i}].coefficient: table matrices must be {n}x{n}, "
                           f"got {coef.values.shape[1:]}")
            if len(coef.breaks) != len(coef.values):
                bad.append(f"terms[{i}].coefficient: {len(coef.breaks)} breaks vs "
                           f"{len(coef.values)} values")
            if np.any(np.diff(coef.breaks) <= 0):
                bad.append(f"terms[{i}].coefficient: table breaks not strictly increasing")
            if not np.all(np.isfinite(coef.values)):
                bad.append(f"terms[{i}].coefficient: non-finite entries (must be bounded)")
        else:
            if coef.shape != (n, n):
                bad.append(f"terms[{i}].coefficient: must be {n}x{n}, got {coef.shape}")
            elif not np.all(np.isfinite(coef)):
                bad.append(f"terms[{i}].coefficient: non-finite entries")
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
    if sch.matrices.shape != (len(sch), n, n):
        bad.append(f"impulses.matrices: expected shape {(len(sch), n, n)}, got {sch.matrices.shape}")
    elif not np.all(np.isfinite(sch.matrices)):
        bad.append("impulses.matrices: non-finite entries")
    if sch.offsets.shape != (len(sch), n):
        bad.append(f"impulses.offsets: expected shape {(len(sch), n)}, got {sch.offsets.shape}")
    elif not np.all(np.isfinite(sch.offsets)):
        bad.append("impulses.offsets: non-finite entries")

    for name, sig, width in (("forcing", spec.forcing, n), ("phi", spec.phi, n)):
        if sig is None:
            continue
        if isinstance(sig, VectorTable):
            if len(sig.values) == 0:
                bad.append(f"{name}: table has no pieces")
            if sig.values.shape[1:] != (width,):
                bad.append(f"{name}: table vectors must have length {width}, "
                           f"got {sig.values.shape[1:]}")
            if np.any(np.diff(sig.breaks) <= 0):
                bad.append(f"{name}: table breaks not strictly increasing")
            if not np.all(np.isfinite(sig.values)):
                bad.append(f"{name}: non-finite entries (must be bounded)")
        else:
            if sig.shape != (width,):
                bad.append(f"{name}: must be a length-{width} vector, got {sig.shape}")
            elif not np.all(np.isfinite(sig)):
                bad.append(f"{name}: non-finite entries")

    delta = spec.max_lag()
    if delta > 0 and isinstance(spec.phi, VectorTable) and len(spec.phi.breaks):
        if spec.phi.breaks[0] > -delta:
            bad.append(f"phi: table covers [{spec.phi.breaks[0]}, 0) but delayed reads reach "
                       f"down to -{delta}; extend the table to cover [-{delta}, 0)")
        if spec.phi.breaks[-1] >= 0:
            bad.append("phi: table breaks must lie below 0 (phi is the history on (-inf, 0))")

    if spec.x0.shape != (n,):
        bad.append(f"x0: must be a length-{n} vector, got {spec.x0.shape}")
    elif not np.all(np.isfinite(spec.x0)):
        bad.append("x0: non-finite entries")
    return bad


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
    raises ValueError("invalid spec: ...") (`require_valid`).
    """
    require_valid(spec)
    w = spec.horizon / 4.0 if window is None else float(window)
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
