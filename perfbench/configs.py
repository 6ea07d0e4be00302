"""Seeded workload items: CLI-schema configs, the CLI calls made on each,
and the fixed anchors with exact oracles.

Every generated config comes from `random.Random(seed)` through `random()`
only, so the same seed gives byte-identical configs on every Python 3.
The structure of each slot (dimension, number of lags, horizon, jump
count, which optional parts are present) is fixed by the slot; the seed
draws the numbers.  Pass cost therefore depends on the seed only through
small effects (node placement), which keeps pass times comparable across
seeds.

    python3 perfbench/configs.py --workload trajectory --seed 1 --out DIR

writes the configs of one workload so that `impulsedde <cmd> CONFIG`
replays any item by hand; the commands are printed one per line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field

TRAJECTORY_DT = "1e-3"
KERNEL_DT = "2e-3"
REPRESENTATION_DT = "1e-3"


@dataclass(frozen=True)
class Item:
    """One workload item: a config plus the CLI calls made on it.

    `calls` are argv tails; the runner inserts the config path after the
    command name and appends `--out DIR`.  `anchor` names a fixed config
    whose outputs have exact expected values (see checks.py).
    """

    name: str
    config: dict
    calls: tuple
    anchor: str = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# anchors: configs with values known in closed form


def _sec2_destabilize() -> dict:
    # x'(t) + x(t-1) = 0, x = 1 on [-1, 0], sign-flip jumps at every integer:
    # |x(2.5)| = 2.625 and |x(3.5)| = 223/48 exactly
    return {"dim": 1, "horizon": 12.0,
            "terms": [{"coefficient": [[1.0]], "lag": 1.0}],
            "impulses": {"periodic": {"period": 1.0, "matrix": [[-1.0]]}},
            "x0": [1.0]}


def _sec4_frozen() -> dict:
    # x'(t) + x(t) - x(0) = 0 keeps x = x(0) = 1 for all t
    return {"dim": 1, "horizon": 10.0,
            "terms": [{"coefficient": [[1.0]], "lag": 0.0},
                      {"coefficient": [[-1.0]], "frozen": 0.0}],
            "x0": [1.0]}


def _sec5_stabilize() -> dict:
    # x'(t) + 0.3 x(t-1) = 0 with B = 0.5 every unit: certified with
    # lhs = 0.5164042561333445 and an observed decay rate nu > 0
    return {"dim": 1, "horizon": 40.0,
            "terms": [{"coefficient": [[0.3]], "lag": 1.0}],
            "impulses": {"periodic": {"period": 1.0, "matrix": [[0.5]]}},
            "x0": [1.0]}


def _clustered_counterexample() -> dict:
    # x'(t) - 0.9 x(t - 0.05) = 0 with B = 0.9 at k and k + 0.001: the
    # paper-faithful certificate says Certified (lhs ~ 0.899) while the
    # solution grows (fitted nu ~ -0.67); kept so the known defect shows
    points = [p for k in range(1, 21) for p in (float(k), k + 0.001)]
    return {"dim": 1, "horizon": 20.5,
            "terms": [{"coefficient": [[-0.9]], "lag": 0.05}],
            "impulses": {"points": points,
                         "matrices": [[[0.9]] for _ in points]},
            "x0": [1.0]}


SEC5_LHS = 0.5164042561333445


# ---------------------------------------------------------------------------
# random building blocks


class _Draw:
    """Seeded numbers rounded to short decimals, so configs read cleanly."""

    def __init__(self, seed: int, salt: str, time_digits: int = 4):
        self.rng = random.Random(f"{seed}:{salt}")
        self.time_digits = time_digits

    def time(self, lo: float, hi: float) -> float:
        return self.uniform(lo, hi, self.time_digits)

    def uniform(self, lo: float, hi: float, digits: int = 4) -> float:
        return round(lo + (hi - lo) * self.rng.random(), digits)

    def index(self, count: int) -> int:
        return min(int(self.rng.random() * count), count - 1)

    def matrix(self, n: int, norm: float) -> list:
        """Random n x n matrix with induced max-norm at most `norm`."""
        c = norm / n
        return [[self.uniform(-c, c) for _ in range(n)] for _ in range(n)]

    def vector(self, n: int, scale: float) -> list:
        return [self.uniform(-scale, scale) for _ in range(n)]

    def singular(self, n: int, norm: float) -> list:
        """Zero matrix, or (n > 1) a matrix with one zeroed row."""
        if n == 1 or self.rng.random() < 0.3:
            return [[0.0] * n for _ in range(n)]
        m = self.matrix(n, norm)
        m[self.index(n)] = [0.0] * n
        return m

    def breaks(self, lo: float, hi: float, pieces: int) -> list:
        """`pieces` strictly increasing breaks, the first at `lo`."""
        inner = sorted(self.time(lo, hi) for _ in range(pieces - 1))
        out = [lo]
        for b in inner:
            if b > out[-1] + 0.05:
                out.append(b)
        return out

    def schedule(self, kind: str, count: int, horizon: float) -> list:
        """Jump times in (0, horizon): periodic, irregular or clustered."""
        if count == 0:
            return []
        span = horizon * 0.95
        if kind == "periodic":
            gap = round(span / count, self.time_digits)
            return [round(gap * (k + 1), self.time_digits)
                    for k in range(count)]
        if kind == "irregular":
            raw = sorted(self.time(0.05, span) for _ in range(count))
        else:  # clustered: tight groups of three
            centres = sorted(self.time(0.2, span - 0.1)
                             for _ in range((count + 2) // 3))
            raw = sorted(c + 0.004 * i for c in centres for i in range(3))
            raw = raw[:count]
        out = []
        for p in raw:
            p = round(p, self.time_digits)
            if p > 0.0 and (not out or p > out[-1] + 0.003):
                out.append(p)
        return out

    def vector_table(self, lo: float, hi: float, pieces: int, n: int,
                     scale: float) -> dict:
        breaks = self.breaks(lo, hi, pieces)
        return {"breaks": breaks,
                "values": [self.vector(n, scale) for _ in breaks]}

    def matrix_table(self, horizon: float, pieces: int, n: int,
                     norm: float) -> dict:
        breaks = self.breaks(0.0, horizon, pieces)
        return {"breaks": breaks,
                "values": [self.matrix(n, norm) for _ in breaks]}


def _system(d: _Draw, *, n: int, horizon: float, lags: list,
            zero_lag: bool = False, frozen: bool = False,
            table_term: bool = False, jumps: int = 0,
            schedule: str = "irregular", singular: int = 0,
            offsets: bool = False, forcing: bool = False,
            phi: bool = False, norm: float = 0.6,
            jump_norm: float = 0.95) -> dict:
    """One CLI-schema config with the requested structure."""
    terms = []
    for i, lag in enumerate(lags):
        coef = (d.matrix_table(horizon, 3, n, norm) if table_term and i == 0
                else d.matrix(n, norm))
        terms.append({"coefficient": coef, "lag": lag})
    if zero_lag:
        terms.append({"coefficient": d.matrix(n, norm), "lag": 0.0})
    if frozen:
        terms.append({"coefficient": d.matrix(n, 0.5 * norm), "frozen": 0.0})
    cfg = {"dim": n, "horizon": horizon, "terms": terms}
    points = d.schedule(schedule, jumps, horizon)
    if points:
        mats = [d.matrix(n, jump_norm) for _ in points]
        for _ in range(min(singular, len(points))):
            mats[d.index(len(points))] = d.singular(n, jump_norm)
        cfg["impulses"] = {"points": points, "matrices": mats}
        if offsets:
            cfg["impulses"]["offsets"] = [d.vector(n, 0.2) for _ in points]
    if forcing:
        cfg["forcing"] = d.vector_table(0.0, horizon, 3, n, 0.5)
    if phi:
        # single-piece history: see CHANGES.md on multi-piece phi tables
        cfg["phi"] = d.vector_table(-max(lags) - 0.1, -0.02, 1, n, 1.0)
    cfg["x0"] = d.vector(n, 1.0)
    return cfg


# ---------------------------------------------------------------------------
# workloads


def _small_lag(d: _Draw) -> float:
    """A lag of only a few base steps (2 to 5 steps of 1e-3)."""
    return (2 + d.index(4)) * 1e-3


def trajectory_items(seed: int) -> list:
    """`simulate` on long horizons (about 1e4 steps of 1e-3 each)."""
    calls = (("simulate", "--dt", TRAJECTORY_DT),)
    slots = []
    d = _Draw(seed, "t1")
    slots.append(("t1-n1-forced", _system(
        d, n=1, horizon=10.0, lags=[d.time(0.6, 1.2)], jumps=10,
        offsets=True, forcing=True, phi=True)))
    d = _Draw(seed, "t2")
    slots.append(("t2-n1-small-lag", _system(
        d, n=1, horizon=10.0, lags=[_small_lag(d), d.time(0.3, 0.8)],
        zero_lag=True)))
    d = _Draw(seed, "t3")
    slots.append(("t3-n2-three-lags", _system(
        d, n=2, horizon=10.0,
        lags=[_small_lag(d), d.time(0.2, 0.5), d.time(0.6, 1.5)],
        table_term=True, jumps=50, singular=5, offsets=True, norm=0.5)))
    d = _Draw(seed, "t4")
    slots.append(("t4-n4-frozen", _system(
        d, n=4, horizon=10.0, lags=[d.time(0.2, 0.6), d.time(0.7, 1.3)],
        zero_lag=True, frozen=True, jumps=20, schedule="clustered",
        singular=2, offsets=True, forcing=True, phi=True)))
    meta = {"dt": float(TRAJECTORY_DT)}
    items = [Item("paper-sec4-frozen", _sec4_frozen(), calls, "sec4", meta),
             Item("paper-sec2-destabilize", _sec2_destabilize(), calls,
                  "sec2", meta)]
    return items + [Item(name, cfg, calls, meta=meta) for name, cfg in slots]


def _kernel_calls(horizon: float, s_step: float, t_step: float,
                  rate_s_step: float, dt: str = KERNEL_DT,
                  window: str = None) -> tuple:
    """fundamental --tight on S restart times, then estimate-rate, certify.

    Steps are binary fractions so that every s value is also a t value
    and X(t, t) = I can be checked on the sampled diagonal.  Without
    `window` the fit uses the CLI default [2 rho, horizon].
    """
    half = horizon / 2.0
    rate = ("estimate-rate", "--dt", dt,
            "--s-grid", f"0:{half:g}:{rate_s_step:g}",
            "--t-grid", f"0:{horizon:g}:{t_step:g}")
    return (
        ("fundamental", "--tight", "--dt", dt,
         "--s-grid", f"0:{half:g}:{s_step:g}",
         "--t-grid", f"0:{horizon:g}:{t_step:g}"),
        rate + (("--window", window) if window else ()),
        ("certify",),
    )


def kernel_sweep_items(seed: int) -> list:
    """fundamental --tight, estimate-rate and certify on each config."""
    items = []
    specs = (
        # name, n, horizon, jumps, schedule, s_step (S = horizon/2/s_step + 1)
        ("k1-n1-periodic", 1, 16.0, 16, "periodic", 0.25),
        ("k2-n1-irregular", 1, 16.0, 24, "irregular", 0.125),
        ("k3-n2-clustered", 2, 12.0, 24, "clustered", 0.25),
        ("k4-n2-periodic", 2, 12.0, 12, "periodic", 0.125),
        ("k5-n3-irregular", 3, 8.0, 16, "irregular", 0.25),
    )
    for name, n, horizon, jumps, kind, s_step in specs:
        d = _Draw(seed, name)
        cfg = _system(d, n=n, horizon=horizon,
                      lags=[d.time(0.2, 1.0)], zero_lag=n > 1,
                      table_term=n == 2, jumps=jumps, schedule=kind,
                      norm=0.5, jump_norm=d.uniform(0.5, 1.1))
        # a fixed fit window: clustered schedules can leave the default
        # [2 rho, horizon] with too few (t, s) pairs to fit
        window = f"{horizon / 4:g}:{horizon:g}"
        items.append(Item(name, cfg, _kernel_calls(horizon, s_step, 0.25,
                                                   0.5, window=window)))
    items.append(Item("paper-sec5-stabilize", _sec5_stabilize(),
                      _kernel_calls(40.0, 1.0, 0.5, 1.0, dt="4e-3"),
                      anchor="sec5"))
    items.append(Item("clustered-counterexample", _clustered_counterexample(),
                      _kernel_calls(20.5, 0.25, 0.25, 0.5),
                      anchor="counterexample"))
    return items


def representation_items(seed: int) -> list:
    """verify-representation with 6 to 8 targets; no frozen terms."""
    items = []
    # the kernel's ring memory grows with the largest lag, so each slot
    # draws its lags from a narrow band: peak memory follows the slot, not
    # the seed
    specs = (
        # name, n, horizon, lag band starts, jumps, target step
        ("r1-n1", 1, 4.0, (0.12, 0.3), 6, 0.5),
        ("r2-n1", 1, 3.0, (0.45,), 4, 0.5),
        ("r3-n2", 2, 2.0, (0.2, 0.38), 3, 0.25),
        ("r4-n3", 3, 2.0, (0.25,), 4, 0.25),
    )
    for name, n, horizon, bands, jumps, step in specs:
        d = _Draw(seed, name, time_digits=3)
        lags = [d.time(lo, lo + 0.005) for lo in bands]
        cfg = _system(d, n=n, horizon=horizon, lags=lags, zero_lag=n > 1,
                      table_term=n == 2, jumps=jumps, singular=1,
                      offsets=True, forcing=True, phi=True)
        calls = (("verify-representation", "--dt", REPRESENTATION_DT,
                  "--t-grid", f"{step:g}:{horizon:g}:{step:g}"),)
        items.append(Item(name, cfg, calls,
                          meta={"targets": round(horizon / step)}))
    return items


BUILDERS = {
    "trajectory": trajectory_items,
    "kernel-sweep": kernel_sweep_items,
    "representation": representation_items,
}
WORKLOADS = tuple(BUILDERS)


def build_items(workload: str, seed: int) -> list:
    return BUILDERS[workload](seed)


def write_configs(items: list, directory: str) -> dict:
    """Write each item's config as `<name>.json`; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for item in items:
        path = os.path.join(directory, f"{item.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item.config, fh, indent=1)
            fh.write("\n")
        paths[item.name] = path
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    items = build_items(ns.workload, ns.seed)
    paths = write_configs(items, ns.out)
    for item in items:
        for call in item.calls:
            print(" ".join(["impulsedde", call[0], paths[item.name],
                            *call[1:]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
