"""Run every workload untraced and traced, and print every end-to-end and
per-layer metric by name with its unit, one column per workload.

    python3 perfbench/report.py [--seed 1] [--seconds 30]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    results, status = {}, 0
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            # the trace report lines show where the time goes
            print(f"--- {w}, trace {trace}")
            print("\n".join(l for l in lines[:-1] if not l.startswith("environment")
                            and not re.match(r"[\w.-]+ = ", l)))
            res = json.loads(lines[-1])
            for name, m in res["metrics"].items():
                results.setdefault((trace, name, m["unit"]), {})[w] = m["value"]
            rate = results.setdefault((trace, f"error_rate (trace {trace})", "ratio"), {})
            rate[w] = res["failed"] / res["attempted"]
    print(f"\n{'metric':44s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for (trace, name, unit), row in sorted(results.items()):
        cells = " ".join(f"{row[w]:14.6g}" if w in row else f"{'-':>14s}" for w in WORKLOADS)
        print(f"{name:44s} {unit:6s} {cells}")
    return status


if __name__ == "__main__":
    sys.exit(main())
