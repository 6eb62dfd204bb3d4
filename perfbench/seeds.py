"""Run the benchmark once per seed and summarize each metric over the runs.

From the root of a checkout:

    python3 perfbench/seeds.py --workload sweep_k2 --seeds 1-10 [--trace 1] [--json FILE]

For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median, which is what the bounds
of BENCHMARK.json are compared with.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result, "report": proc.stdout.strip().splitlines()[:-1]})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
        spread = summary[name]["spread"]
        print(f"{name:28s} median {median:.6g} {summary[name]['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {'n/a' if spread is None else f'{spread:.4f}'}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                         "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
