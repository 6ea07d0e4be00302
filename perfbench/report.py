"""Print every end-to-end metric of every workload by name, with units.

    python3 perfbench/report.py --seed 1 --seconds 30

Runs perfbench/run.py once per workload, each in a fresh process so that
peak_rss_mb is the workload's own, one after another, and prints one row
per workload; error_rate is failed / attempted from the result line.
Exits 1 if any workload reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.configs import WORKLOADS  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ns = ap.parse_args(argv)
    columns = list(END_TO_END) + ["error_rate"]
    units = dict(END_TO_END, error_rate="ratio")
    print(f"{'workload':<16}" + "".join(
        f"{f'{c} [{units[c]}]':>20}" for c in columns))
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(ns.seed),
             "--seconds", str(ns.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:<16} failed (exit {proc.returncode}): "
                  f"{proc.stderr.strip()[-300:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["error_rate"] = result["failed"] / result["attempted"]
        ok = ok and result["correct"]
        print(f"{workload:<16}" + "".join(f"{values[c]:>20.6g}"
                                          for c in columns))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
