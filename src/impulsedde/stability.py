"""A-priori bounds, the impulsive-ODE Cauchy matrix, and the stability
certificate.

Three executable pieces of theory live here.  First, the growth envelope

    ||X(t,s)|| <= prod_{s < tau_i <= t} (1 + ||B_i||) * exp(int_s^t sum_k ||A_k||),

evaluated exactly for piecewise-constant tables over a whole (t, s) grid
at once (with an optional tighter product prod ||B_i|| available when
every B_i is nonsingular).  Second, for the ordinary impulsive equation
x'(t) + a x(t) = 0 with jumps B_i, the Cauchy matrix in closed form,

    C_0(t,s) = exp[-a (t-s)] B_m ... B_1,   s < tau_1 < ... < tau_m <= t,

together with the decay estimate claimed for it when the jump norms are
uniformly contracting: with gamma = sup_i ||B_i|| < 1, gaps in [zeta, rho],
and alpha = -(1/zeta) ln gamma,

    ||C_0(t,s)|| <= exp[-alpha (t-s)]  if t - s > rho,  else 1.

That claimed estimate is not a bound off gap-aligned pairs: with unit gaps
and gamma = 1/2 it gives 2^{-2.5} ~= 0.177 at (s, t) = (0, 2.5), where the
exact kernel is 1/4.  Gaps of at most rho only guarantee floor((t-s)/rho)
jumps in (s, t], so the hypotheses give

    ||C_0(t,s)|| <= e^{-a (t-s)} min(1, (1/gamma) e^{(ln gamma / rho)(t-s)}).

Third, the sufficient exponential-stability certificate for the delayed
impulsive system: with the same gamma, zeta, rho, alpha,

    lhs = (sum_k sup_t ||A_k(t)||) * [ (1/alpha) e^{-alpha rho} + rho ] < 1

is the paper's margin, but alpha takes the smallest gap zeta, so lhs < 1
alone passes clustered schedules whose solutions grow.  The certificate
therefore also requires the Bohl-Perron margin (Anokhin, Berezansky and
Braverman, J. Math. Anal. Appl. 193, 1995)

    q = Q * max(sup_{t <= H} J(t), rho / (1 - gamma)) < 1,

with Q = sup_t sum_k ||A_k(t)|| and J(t) = int_0^t prod_{s < tau_j <= t}
||B_j|| ds >= int_0^t ||C_0(t,s)|| ds.  J rises with slope 1 between jumps
and is scaled by ||B_j|| at tau_j; rho / (1 - gamma) bounds it for every
continuation of the schedule past H with gaps <= rho and norms <= gamma.
Both margins together certify exponential stability; the converse is not
claimed, so a failed certificate never asserts instability.  The
hypothesis numbers gamma, zeta, rho, delta and Q come from `system`.  An
empirical counterpart fits N e^{-nu (t-s)} to sampled fundamental-matrix
norms and reports the decay rate actually observed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .system import (
    ImpulseSchedule,
    SystemSpec,
    coefficient_pieces,
    hypotheses_report,
    mat_norm,
    require_valid,
    schedule_gaps,
)
from .integrate import FundamentalMatrix

__all__ = [
    "StabilityCertificate",
    "RateEstimate",
    "gronwall_bound",
    "c0_closed_form",
    "c0_estimate",
    "certify",
    "estimate_rate",
]


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of the sufficient stability test.

    `verdict` is "Certified" when every condition holds and "NotCertified"
    otherwise, with `reasons` naming each failed condition.  NotCertified
    does not assert instability: the test is sufficient only.  Fields that
    cannot be evaluated (e.g. the margin when gamma >= 1) are NaN.
    """

    gamma: float
    zeta: float
    rho: float
    alpha: float
    lhs: float
    delta: float
    verdict: str
    reasons: tuple = ()


@dataclass(frozen=True)
class RateEstimate:
    """Log-linear fit ||X(t,s)|| ~= N exp(-nu (t-s)) over sampled pairs.

    `residual` is the max absolute log-domain fit deviation; `fit_slack`
    turns it into a usable envelope: every sampled pair satisfies
    ||X(t,s)|| <= N exp(-nu (t-s)) (1 + fit_slack).
    """

    N: float
    nu: float
    fit_window: tuple
    residual: float
    fit_slack: float
    n_samples: int


def gronwall_grid(spec: SystemSpec, s_grid, t_grid,
                  tight: bool = False) -> np.ndarray:
    """`gronwall_bound` over a product grid, shaped like fm.samples.

    out[a, b] bounds ||X(t_grid[a], s_grid[b])||; entries with t < s are
    zero.  One pass covers every s: a cumprod over the jump factors, each
    row padded with ones before its s, and per term a cumsum over its
    pieces, each row padded with zeros before the piece of its s, give
    every (t, s) at once.  Products and sums run in the scalar order (the
    partial last piece added after the cumsum, the padding exact), and
    exp is `math.exp` per entry, so each entry equals the 1x1 call bit for
    bit.
    """
    require_valid(spec)
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if not (np.all(np.isfinite(s_grid)) and np.all(np.isfinite(t_grid))):
        raise ValueError("s and t must be finite")
    points = spec.impulses.points
    norms = mat_norm(spec.impulses.matrices)
    factors = norms if tight else 1.0 + norms
    reach = max(spec.horizon, float(t_grid.max(initial=0.0)))
    lo = np.searchsorted(points, s_grid, side="right")
    pad = np.where(np.arange(len(points)) >= lo[:, None], factors, 1.0)
    prod = np.concatenate((np.ones((len(s_grid), 1)),
                           np.cumprod(pad, axis=1)), axis=1)
    prod = prod.T[np.searchsorted(points, t_grid, side="right")]
    rate = np.zeros((len(t_grid), len(s_grid)))
    for term in spec.terms:
        breaks, values = coefficient_pieces(term.coefficient, reach)
        i = np.maximum(np.searchsorted(breaks, s_grid, side="right") - 1, 0)
        j = np.searchsorted(breaks, t_grid, side="left") - 1
        q = np.arange(len(breaks) - 1)
        start = np.where(q == i[:, None], s_grid[:, None], breaks[:-1])
        full = np.where(q >= i[:, None], values[:-1] * (breaks[1:] - start),
                        0.0)
        full = np.concatenate((np.zeros((len(s_grid), 1)),
                               np.cumsum(full, axis=1)), axis=1)
        k = np.maximum(j, 0)
        part = values[k] * (t_grid - breaks[k])
        rate += np.where(j[:, None] > i, full.T[k] + part[:, None],
                         values[i] * (t_grid[:, None] - s_grid))
    out = np.zeros((len(t_grid), len(s_grid)))
    later = t_grid[:, None] >= s_grid
    out[later] = prod[later] * np.array([math.exp(r)
                                         for r in rate[later].tolist()])
    return out


def gronwall_bound(spec: SystemSpec, s: float, t: float,
                   tight: bool = False) -> float:
    """Growth envelope prod_{s<tau_i<=t}(1+||B_i||) exp(int_s^t sum ||A_k||).

    With `tight=True` the product uses ||B_i|| instead of 1 + ||B_i||, a
    sharper variant meaningful when every B_i is nonsingular; it is exact
    for zero-lag systems but can be violated by delayed feedback, which
    re-injects pre-jump history that the pure product does not see.
    This is the 1x1 case of `gronwall_grid`; an invalid spec raises
    ValueError("invalid spec: ...").
    """
    if s > t:
        raise ValueError(f"s={s} > t={t}")
    return float(gronwall_grid(spec, [s], [t], tight)[0, 0])


def c0_closed_form(a: float, schedule: ImpulseSchedule, s: float,
                   t: float) -> np.ndarray:
    """Cauchy matrix exp[-a(t-s)] B_m ... B_1 of x' + a x = 0 with jumps.

    The product runs over tau_i in (s, t] in chronological order with later
    impulses multiplying on the left, composing the jump maps along the
    flow; it is the identity when no jump point falls in (s, t].
    """
    if not s <= t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    out = np.eye(schedule.dim)
    lo = int(np.searchsorted(schedule.points, s, side="right"))
    hi = int(np.searchsorted(schedule.points, t, side="right"))
    for j in range(lo, hi):
        out = schedule.matrices[j] @ out
    return math.exp(-a * (t - s)) * out


def c0_estimate(schedule: ImpulseSchedule, s: float, t: float,
                zeta: float, rho: float) -> float:
    """Claimed decay bound for ||C_0(t,s)|| under contracting jumps.

    Evaluates exp[-alpha (t-s)] for t - s > rho and 1 otherwise, with
    alpha = -(1/zeta) ln gamma and gamma = sup_i ||B_i||.  Requires
    gamma < 1 and presumes every consecutive gap lies in [zeta, rho].

    The estimate does not bound the drift-free ||C_0(t,s)|| off gap-aligned
    pairs: with unit gaps and gamma = 1/2 it returns 0.177 at (0, 2.5),
    below the exact product 0.25.  The bound the hypotheses do give is
    min(1, (1/gamma) exp[(ln gamma / rho)(t-s)]), since gaps of at most rho
    only guarantee floor((t-s)/rho) jumps in (s, t].
    """
    if not s <= t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    if not (0.0 < zeta <= rho):
        raise ValueError(f"need 0 < zeta <= rho, got zeta={zeta}, rho={rho}")
    gamma = float(mat_norm(schedule.matrices).max(initial=0.0))
    if not gamma < 1.0:
        raise ValueError(f"bound inapplicable: need gamma < 1, got {gamma}")
    alpha = math.inf if gamma == 0.0 else -math.log(gamma) / zeta
    if t - s > rho:
        return math.exp(-alpha * (t - s))
    return 1.0


def certify(spec: SystemSpec) -> StabilityCertificate:
    """Sufficient exponential-stability test from coefficient sups and jumps.

    Computes gamma = sup_i ||B_i||, the gap range [zeta, rho], the derived
    rate alpha = -(1/zeta) ln gamma, the paper's margin
    lhs = (sum_k sup ||A_k||) ((1/alpha) e^{-alpha rho} + rho), and the
    Bohl-Perron margin q = Q max(sup_{t <= H} J(t), rho / (1 - gamma)).
    Certified requires a valid spec, finite maximal lag, at least two jump
    points, gamma < 1, lhs < 1 and q < 1.  A NotCertified verdict carries
    one reason per failed condition and never asserts instability; an
    invalid spec gets the gate's message (`hypotheses_report` validates)
    as its one reason and NaN numbers.
    """
    try:
        report = hypotheses_report(spec)
    except ValueError as e:
        return StabilityCertificate(
            gamma=math.nan, zeta=math.nan, rho=math.nan, alpha=math.nan,
            lhs=math.nan, delta=math.nan, verdict="NotCertified",
            reasons=(str(e),))
    reasons = []
    if not math.isfinite(report.delta):
        reasons.append("frozen-time term: the lag t - c is unbounded, "
                       "no finite maximal lag exists")

    # jump points beyond the horizon never act, as in hypotheses_report
    sched = spec.impulses
    keep = sched.points <= spec.horizon
    gamma = report.M if keep.any() else math.nan
    zeta, rho = schedule_gaps(sched, spec.horizon)
    if math.isnan(rho):
        reasons.append("fewer than two jump points: the gap range "
                       "[zeta, rho] is undefined")
    if not gamma < 1.0:
        reasons.append(f"gamma = sup ||B_i|| = {gamma:.6g} is not < 1")

    if gamma == 0.0:
        alpha = math.inf
    elif gamma > 0.0:
        alpha = -math.log(gamma) / zeta if math.isfinite(zeta) else math.nan
    else:
        alpha = math.nan

    sum_sup = sum(float(coefficient_pieces(term.coefficient,
                                           spec.horizon)[1].max())
                  for term in spec.terms)
    if alpha > 0.0:
        bracket = (0.0 if math.isinf(alpha)
                   else (1.0 / alpha) * math.exp(-alpha * rho)) + rho
        lhs = sum_sup * bracket
    else:
        lhs = math.nan
    if not math.isnan(lhs) and not lhs < 1.0:
        reasons.append(f"stability margin lhs = {lhs:.6g} is not < 1")

    if gamma < 1.0 and not math.isnan(rho):
        # J(t) = int_0^t prod_{s < tau_j <= t} ||B_j|| ds rises with slope 1
        # between jumps and is scaled by ||B_j|| at tau_j
        j = j_sup = last = 0.0
        for tau, b in zip(sched.points[keep].tolist(),
                          mat_norm(sched.matrices[keep]).tolist()):
            j += tau - last
            j_sup = max(j_sup, j)
            j, last = b * j, tau
        j_sup = max(j_sup, j + (spec.horizon - last))
        q = report.Q * max(j_sup, rho / (1.0 - gamma))
        if not q < 1.0:
            reasons.append(f"Bohl-Perron margin q = Q max(sup J, "
                           f"rho / (1 - gamma)) = {q:.6g} is not < 1")

    verdict = "Certified" if not reasons else "NotCertified"
    return StabilityCertificate(gamma=gamma, zeta=zeta, rho=rho, alpha=alpha,
                                lhs=lhs, delta=report.delta, verdict=verdict,
                                reasons=tuple(reasons))


def estimate_rate(fm: FundamentalMatrix, window) -> RateEstimate:
    """Least-squares exponential-rate fit over sampled (t, s) pairs.

    Fits ln ||X(t,s)|| = ln N - nu (t-s) over every grid pair with
    t - s inside `window = (t_min, t_max)`; pairs with zero norm are
    excluded from the log fit.  nu > 0 is the empirical stability signal;
    nu <= 0 is returned as-is with a warning.  Fitting across all s (not
    only s = 0) probes that one (N, nu) works uniformly in s.
    """
    t_min, t_max = float(window[0]), float(window[1])
    if not t_min <= t_max:
        raise ValueError(f"empty window [{t_min}, {t_max}]")
    d = fm.t_grid[:, None] - fm.s_grid[None, :]
    norms = mat_norm(fm.samples)
    in_window = (d >= max(t_min, 0.0)) & (d <= t_max)
    sel = in_window & (norms > 0.0)
    if np.any(in_window) and not np.any(sel):
        raise ValueError("all sampled norms in the window are zero")
    dd = d[sel]
    if dd.size < 20:
        raise ValueError(f"too few samples in window: {dd.size} < 20")
    if np.unique(dd).size < 2:
        raise ValueError("degenerate window: all pairs share one t - s")
    logs = np.log(norms[sel])
    slope, intercept = np.polyfit(dd, logs, 1)
    res = logs - (intercept + slope * dd)
    nu = -float(slope)
    if nu <= 0.0:
        warnings.warn(f"empirical rate nu = {nu:.6g} <= 0: no decay observed",
                      stacklevel=2)
    return RateEstimate(N=float(math.exp(intercept)), nu=nu,
                        fit_window=(t_min, t_max),
                        residual=float(np.max(np.abs(res))),
                        fit_slack=float(max(0.0, math.expm1(res.max()))),
                        n_samples=int(dd.size))
