"""Benchmark of the impulsedde pipeline, driven through the CLI in-process.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 35 --trace 0

Run from the repository root.  The library is imported from `src/` of the
checkout, never from an installed copy, and the run fails (exit 2, no
result line) when `src/impulsedde` is missing.  One process makes every
call through `impulsedde.cli.main(argv)`; it starts no threads or
processes, so the library is free to use the machine's cores.

Workloads (configs from perfbench/configs.py, checks from checks.py):

    trajectory      simulate on ~1e4-step horizons: the per-step solve loop
    kernel-sweep    fundamental --tight, estimate-rate, certify: the batched
                    X(t, s) engine, the envelope loop and the certificate
    representation  verify-representation: the O(K^2) representation kernel

Set-up (import impulsedde, generate and write the configs, one warm-up
item) is repeated SETUP_REPEATS times and its median is `setup_s`.  Then
whole passes over the items run until `--seconds` is used up (at least
MIN_PASSES).  After the passes, untimed, checks.py checks the artifacts
each item left, and every execution of the item must have written the
same bytes; an execution that did not, or exited with an unexpected code,
is a failure.

Times are reported in reference seconds.  On the 2-vCPU VM the benchmark
was tuned on, the same work ran up to 2x slower for minutes at a time
(the slowdown two busy threads on its two vCPUs also show, so most likely
load on the SMT sibling); raw pass times of one workload
ranged 4.5-9.7 s across runs, so no count of passes within a run could
make them repeat.  Each timed span is therefore bracketed by a fixed
reference loop of small numpy calls (reference()), and the measured
seconds are scaled by REF_QUIET_S / (mean of the two reference timings):
the time the work would take at the reference loop's uncontended speed.
Scaled, the same runs repeat within a few percent.  The loop is part of
the benchmark, not of the library, so a library change moves the scaled
times as it moves the raw ones on a quiet machine.  Raw times are
printed on the comment lines of every run.

--trace 0 reports the end-to-end metrics: setup_s (median over the
set-ups), wall_s (one pass: the sum over items of each item's median
latency over the passes), item_p50_s (the median of those item latencies)
and peak_rss_mb (peak RSS of this process).  error_rate = failed /
attempted is printed by name and carried by the result line's `failed`
and `attempted`; it is not a listed metric because it is 0 on a correct
program.  --trace 1 alternates untraced passes with traced ones (see
layers.py) and reports the per-layer metrics of the traced passes plus
trace.overhead_frac = traced pass time / untraced pass time - 1.  Spans
are written to .perfbench/spans-<workload>-seed<seed>.jsonl.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, configs, layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
# reference loop: REF_LOOPS rounds of small numpy calls, which takes
# REF_QUIET_S on an uncontended core of the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs); the constant only fixes the unit of the results
REF_LOOPS = 10000
REF_QUIET_S = 0.036

ARTIFACTS = {
    "simulate": "trajectory.csv",
    "fundamental": "fundamental.csv",
    "estimate-rate": "rate.json",
    "certify": "certificate.json",
    "verify-representation": "representation.json",
}
# exit codes that are valid outcomes; certify's 2 is NotCertified
ALLOWED_EXIT = {"certify": (0, 2)}

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
              "peak_rss_mb": "MB"}


_REF_A = np.full((8, 2, 2), 0.5)
_REF_B = np.empty_like(_REF_A)
_REF_GRID = np.linspace(0.0, 1.0, 64)


def reference() -> float:
    """Seconds for a fixed loop of small numpy calls, the library's mix."""
    start = time.perf_counter()
    for k in range(REF_LOOPS):
        np.matmul(_REF_A, _REF_A, out=_REF_B)
        np.add(_REF_B, _REF_A, out=_REF_B)
        np.searchsorted(_REF_GRID, k / REF_LOOPS)
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Measured seconds restated at the reference loop's quiet speed.

    `before` and `after` are reference() timings taken right around the
    measured work; their mean is the machine's current speed.
    """
    return seconds * REF_QUIET_S / (0.5 * (before + after))


def environment() -> dict:
    """Machine and library settings recorded with every result."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_threads": threads}


class Workload:
    """Items of one workload and the means to run, check and trace them."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.cli = None
        self.lib = None
        self.items = []
        self.paths = {}
        self.runs = {}  # item name -> [(problems, artifact digests)]
        self.refs = []  # reference() timings of the timed passes
        self.attempted = 0
        self.failures = []

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Import the library afresh, write the configs, run one item."""
        start = time.perf_counter()
        for mod in [m for m in sys.modules
                    if m == "impulsedde" or m.startswith("impulsedde.")]:
            del sys.modules[mod]
        self.lib = importlib.import_module("impulsedde")
        self.cli = importlib.import_module("impulsedde.cli")
        self.items = configs.build_items(self.name, self.seed)
        self.paths = configs.write_configs(
            self.items, os.path.join(self.work, "configs"))
        self._run_item(self.items[0])
        return time.perf_counter() - start

    # -- one item -----------------------------------------------------------

    def _outdir(self, item) -> str:
        return os.path.join(self.work, "out", item.name)

    def _call(self, item, call) -> tuple:
        """One timed cli.main call: (seconds, problem or None)."""
        argv = [call[0], self.paths[item.name], *call[1:],
                "--out", self._outdir(item)]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # an item must not end the run; record it
            elapsed = time.perf_counter() - start
            return elapsed, f"{call[0]} raised:\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        if code not in ALLOWED_EXIT.get(call[0], (0,)):
            return elapsed, f"{call[0]} exited {code}: {sink.getvalue()[-500:]}"
        return elapsed, None

    def _run_item(self, item) -> tuple:
        total, problems = 0.0, []
        for call in item.calls:
            elapsed, problem = self._call(item, call)
            total += elapsed
            if problem:
                problems.append(problem)
        return total, problems

    def _digests(self, item) -> tuple:
        out = []
        for call in item.calls:
            path = os.path.join(self._outdir(item), ARTIFACTS[call[0]])
            with open(path, "rb") as fh:
                out.append(hashlib.sha256(fh.read()).hexdigest())
        return tuple(out)

    def _record(self, item, problems: list) -> None:
        """Keep one execution's problems and artifact digests for finish()."""
        digests = None
        if not problems:
            try:
                digests = self._digests(item)
            except OSError as e:
                problems = [f"missing artifact: {e}"]
        self.runs.setdefault(item.name, []).append((problems, digests))

    def finish(self) -> None:
        """Untimed checks after the measured passes.

        The artifacts left by each item's last execution get the full check
        of checks.py; every execution must have written byte-identical
        artifacts, or it counts as failed.
        """
        for item in self.items:
            runs = self.runs.get(item.name, [])
            try:
                problems = self._check(item)
                good = None if problems else self._digests(item)
            except Exception:  # a malformed artifact is a failed check
                problems = [f"check raised:\n{traceback.format_exc()}"]
                good = None
            for failed, digests in runs:
                self.attempted += 1
                if failed or digests != good:
                    self.failures.append((item.name, failed or problems or [
                        "artifacts differ from the checked ones"]))

    def _check(self, item) -> list:
        spec = self.cli.load_spec(self.paths[item.name])
        out = self._outdir(item)
        if self.name == "trajectory":
            return checks.check_trajectory(item, spec, out, item.meta["dt"])
        if self.name == "kernel-sweep":
            return checks.check_kernel(item, spec, out)
        return checks.check_representation(item, out, item.meta["targets"])

    # -- passes -------------------------------------------------------------

    def timed_pass(self) -> tuple:
        """Raw and reference-scaled item latencies of one untraced pass."""
        raw, scaled = [], []
        before = reference()
        for item in self.items:
            elapsed, problems = self._run_item(item)
            after = reference()
            self.refs.append(after)
            raw.append(elapsed)
            scaled.append(to_reference(elapsed, before, after))
            before = after
            self._record(item, problems)
        return raw, scaled

    def traced_pass(self, tracer, number: int) -> float:
        """One traced pass; returns its time (spans go to `tracer`)."""
        total = 0.0
        for item in self.items:
            iid = f"{number}:{item.name}"
            problems = []
            with tracer.span("item", iid) as root:
                for call in item.calls:
                    with tracer.span("cli.main", iid) as sp:
                        _, problem = self._call(item, call)
                    if problem:
                        problems.append(problem)
                    else:
                        sp.counts["artifact_bytes"] = os.path.getsize(
                            os.path.join(self._outdir(item),
                                         ARTIFACTS[call[0]]))
                try:
                    layers.replay(self.lib, tracer, iid, item,
                                  self.paths[item.name])
                except Exception:  # replay failures count like CLI ones
                    problems.append(f"replay raised:\n{traceback.format_exc()}")
            total += root.duration
            self._record(item, problems)
        return total


def run(ns) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{ns.workload}-{ns.seed}-{os.getpid()}")
    wl = Workload(ns.workload, ns.seed, work)
    try:
        setups, raw_setups = [], []
        before = reference()
        for _ in range(SETUP_REPEATS):
            raw_setups.append(wl.setup())
            after = reference()
            setups.append(to_reference(raw_setups[-1], before, after))
            before = after
        budget_start = time.perf_counter()

        def more(passes: int, last: float) -> bool:
            used = time.perf_counter() - budget_start
            return passes < MIN_PASSES or used + last <= ns.seconds

        passes, traced = [], []
        tracer = Tracer()
        last = 0.0
        scaled = []
        while more(len(passes), last):
            raw, sc = wl.timed_pass()
            passes.append(raw)
            scaled.append(sc)
            last = sum(raw)
            if ns.trace:
                traced.append(wl.traced_pass(tracer, len(traced)))
                last += traced[-1]
        wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [sum(p) for p in passes]
    typical = [statistics.median(item) for item in zip(*scaled)]
    env = environment()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = len(wl.items)
    print(f"# env {json.dumps(env)}")
    print(f"# {ns.workload} seed {ns.seed}: {items} items per pass; "
          f"pass times {' '.join(f'{w:.3f}' for w in walls)} s; "
          f"set-up times {' '.join(f'{s:.3f}' for s in raw_setups)} s; "
          f"reference loop {min(wl.refs):.4f}-{max(wl.refs):.4f} s "
          f"(quiet {REF_QUIET_S} s), all in measured seconds")
    for name, problems in wl.failures[:5]:
        print(f"# FAILED {name}: {problems[0]}")
    error_rate = len(wl.failures) / wl.attempted
    if ns.trace:
        metrics = layers.layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(walls) - 1.0)
        units = layers.LAYER_METRICS
        header = {"workload": ns.workload, "seed": ns.seed, "env": env}
        tracer.dump(os.path.join(
            OUT, f"spans-{ns.workload}-seed{ns.seed}.jsonl"), header)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": sum(typical),
                   "item_p50_s": statistics.median(typical),
                   "peak_rss_mb": peak_mb}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# error_rate = {error_rate:.6g} ratio "
          f"({len(wl.failures)} of {wl.attempted} items failed; "
          f"item_p50_s over {items} items)")
    return {"correct": not wl.failures, "attempted": wl.attempted,
            "failed": len(wl.failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=configs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "impulsedde", "__init__.py")):
        print(f"error: {SRC}/impulsedde not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
