"""Traced replay of one item through direct public library calls.

The traced run calls `cli.main` for an item (one `cli.main` span per
call) and then repeats the item's work layer by layer, each call inside a
span named after its module: `cli.load_spec`, `system.validate`,
`integrate.solve`, `integrate.fundamental_grid`, `represent.quad_grid`
(the RepresentationInput build), `represent.represent_solution`,
`stability.gronwall_bound` (one span per envelope loop),
`stability.estimate_rate` and `stability.certify`.  Counts ride on the
spans.  `layer_metrics` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import warnings

import numpy as np

from perfbench.tracing import self_times

LIBRARY_SPANS = (
    "cli.load_spec", "system.validate", "integrate.solve",
    "integrate.fundamental_grid", "represent.quad_grid",
    "represent.represent_solution", "stability.gronwall_bound",
    "stability.estimate_rate", "stability.certify",
)

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "system.validate_s": "s",
    "cli.load_spec_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "count",
    "integrate.solve_s": "s",
    "integrate.solve_steps": "count",
    "integrate.solve_us_per_step": "us",
    "integrate.fundamental_grid_s": "s",
    "integrate.fundamental_columns": "count",
    "integrate.fundamental_us_per_column": "us",
    "represent.quad_grid_s": "s",
    "represent.quad_nodes": "count",
    "represent.represent_solution_s": "s",
    "represent.us_per_quad_node": "us",
    "represent.max_residual": "ratio",
    "stability.gronwall_bound_s": "s",
    "stability.gronwall_calls": "count",
    "stability.estimate_rate_s": "s",
    "stability.certify_s": "s",
    "stability.certified": "count",
    "stability.certified_but_growing": "count",
    "trace.overhead_frac": "ratio",
}


def grid(spec_text: str) -> np.ndarray:
    """Values of an 'A:B:STEP' grid whose STEP divides B - A exactly."""
    a, b, step = (float(v) for v in spec_text.split(":"))
    return a + step * np.arange(round((b - a) / step) + 1)


def _flag(call, name: str):
    return call[call.index(name) + 1] if name in call else None


def _load(lib, tracer, iid, path):
    with tracer.span("cli.load_spec", iid):
        spec = lib.load_spec(path)
    with tracer.span("system.validate", iid):
        bad = lib.validate(spec)
    if bad:
        raise ValueError("invalid spec: " + "; ".join(bad))
    return spec


def _fundamental(lib, tracer, iid, spec, call):
    s_grid, t_grid = grid(_flag(call, "--s-grid")), grid(_flag(call, "--t-grid"))
    with tracer.span("integrate.fundamental_grid", iid) as sp:
        fm = lib.fundamental_grid(spec, s_grid, t_grid,
                                  lib.StepControl(float(_flag(call, "--dt"))))
    sp.counts["columns"] = len(s_grid) * spec.dim
    return fm


def _default_window(spec):
    # the CLI's default fit window: [2 rho, horizon] once two jumps exist
    pts = spec.impulses.points
    if len(pts) >= 2:
        return min(2.0 * float(np.diff(pts).max()), spec.horizon), spec.horizon
    return 0.0, spec.horizon


def replay(lib, tracer, iid: str, item, path: str) -> None:
    """Repeat each CLI call of `item` through direct library calls."""
    rate = None
    for call in item.calls:
        cmd = call[0]
        if cmd == "simulate":
            spec = _load(lib, tracer, iid, path)
            with tracer.span("integrate.solve", iid) as sp:
                traj = lib.solve(spec, lib.StepControl(float(_flag(call, "--dt"))))
            sp.counts["steps"] = len(traj.t_nodes) - 1
        elif cmd == "fundamental":
            spec = _load(lib, tracer, iid, path)
            fm = _fundamental(lib, tracer, iid, spec, call)
            pairs = [(float(s), float(t)) for t in fm.t_grid
                     for s in fm.s_grid if s <= t]
            with tracer.span("stability.gronwall_bound", iid) as sp:
                for s, t in pairs:
                    lib.gronwall_bound(spec, s, t, True)
            sp.counts["calls"] = len(pairs)
        elif cmd == "estimate-rate":
            spec = _load(lib, tracer, iid, path)
            fm = _fundamental(lib, tracer, iid, spec, call)
            with tracer.span("stability.estimate_rate", iid):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    window = _flag(call, "--window")
                    rate = lib.estimate_rate(
                        fm, tuple(float(v) for v in window.split(":"))
                        if window else _default_window(spec))
        elif cmd == "certify":
            with tracer.span("cli.load_spec", iid):
                spec = lib.load_spec(path)
            with tracer.span("stability.certify", iid) as sp:
                cert = lib.certify(spec)
            certified = cert.verdict == "Certified"
            sp.counts["certified"] = int(certified)
            sp.counts["certified_but_growing"] = int(
                certified and rate is not None and rate.nu <= 0.0)
        elif cmd == "verify-representation":
            spec = _load(lib, tracer, iid, path)
            step = lib.StepControl(float(_flag(call, "--dt")))
            targets = tuple(float(t) for t in grid(_flag(call, "--t-grid")))
            with tracer.span("represent.quad_grid", iid) as sp:
                inp = lib.RepresentationInput(spec, targets, grid=step)
            sp.counts["nodes"] = len(inp.quad_grid)
            with tracer.span("represent.represent_solution", iid) as rep_sp:
                rep = lib.represent_solution(inp)
            with tracer.span("integrate.solve", iid) as sp:
                traj = lib.solve(spec, step)
            sp.counts["steps"] = len(traj.t_nodes) - 1
            ref = [traj.value(t, side="right") for t in targets]
            rep_sp.counts["max_residual"] = max(
                lib.vec_norm(rep[k] - r) / (1.0 + lib.vec_norm(r))
                for k, r in enumerate(ref))
        else:
            raise ValueError(f"no replay for command {cmd!r}")


def _per(total_s: float, count: float) -> float:
    return 1e6 * total_s / count if count else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of the traced passes (trace.overhead_frac excluded).

    Span items are "<pass>:<item name>".  A layer's time is the sum over
    items of the item's self time in that layer, taking for each item its
    fastest traced pass; times are measured seconds.  Counts come from the
    first traced pass.  `cli.self_s` is, per item, the time of its
    `cli.main` calls minus its direct library spans: what the CLI adds
    around the library (argument handling, formatting, writing).
    """
    own = self_times(spans)
    per_pass = {}  # (item, span name) -> {pass: seconds}
    counts = {}  # span name -> {count key: total over the first pass}
    for sp in spans:
        npass, item = sp.item.split(":", 1)
        by_pass = per_pass.setdefault((item, sp.name), {})
        by_pass[npass] = by_pass.get(npass, 0.0) + own[sp.sid]
        if npass == "0":
            for key, value in sp.counts.items():
                slot = counts.setdefault(sp.name, {})
                slot[key] = (max(slot.get(key, 0.0), value)
                             if key == "max_residual"
                             else slot.get(key, 0) + value)
    best = {key: min(v.values()) for key, v in per_pass.items()}

    def total(name):
        return sum(v for (_, n), v in best.items() if n == name)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    items = {item for item, _ in best}
    cli_self = sum(best.get((item, "cli.main"), 0.0)
                   - sum(best.get((item, n), 0.0) for n in LIBRARY_SPANS)
                   for item in items)
    solve_s, steps = total("integrate.solve"), count("integrate.solve", "steps")
    fund_s = total("integrate.fundamental_grid")
    cols = count("integrate.fundamental_grid", "columns")
    rep_s = total("represent.represent_solution")
    nodes = count("represent.quad_grid", "nodes")
    return {
        "system.validate_s": total("system.validate"),
        "cli.load_spec_s": total("cli.load_spec"),
        "cli.self_s": cli_self,
        "cli.artifact_bytes": count("cli.main", "artifact_bytes"),
        "integrate.solve_s": solve_s,
        "integrate.solve_steps": steps,
        "integrate.solve_us_per_step": _per(solve_s, steps),
        "integrate.fundamental_grid_s": fund_s,
        "integrate.fundamental_columns": cols,
        "integrate.fundamental_us_per_column": _per(fund_s, cols),
        "represent.quad_grid_s": total("represent.quad_grid"),
        "represent.quad_nodes": nodes,
        "represent.represent_solution_s": rep_s,
        "represent.us_per_quad_node": _per(rep_s, nodes),
        "represent.max_residual": count("represent.represent_solution",
                                         "max_residual"),
        "stability.gronwall_bound_s": total("stability.gronwall_bound"),
        "stability.gronwall_calls": count("stability.gronwall_bound", "calls"),
        "stability.estimate_rate_s": total("stability.estimate_rate"),
        "stability.certify_s": total("stability.certify"),
        "stability.certified": count("stability.certify", "certified"),
        "stability.certified_but_growing": count(
            "stability.certify", "certified_but_growing"),
    }
