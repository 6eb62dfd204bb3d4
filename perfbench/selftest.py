"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the result line has exactly the keys correct, attempted, failed and
   metrics, every metric of BENCHMARK.json with its unit, and that the
   lines before it name each metric with its unit.
2. Checks that the correctness gate catches wrong inputs: a polynomial
   scaled by 2, a curvature that does not match its potential, an item that
   raises, and a sweep point whose right-hand side vanishes (a flat bundle).
3. Checks that the command fails without printing a result in a directory
   that holds only BENCHMARK.json and the benchmark.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets the thread variables before numpy is imported

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ITEMS = {"sweep_k2": 5, "quadrature": 3, "sweep_k3": 1}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_command(cwd: Path, workload: str, trace: int, items: int | None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace)]
    if items is not None:
        cmd += ["--items", str(items)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(workload: str, trace: int) -> None:
    proc = run_command(ROOT, workload, trace, TINY_ITEMS[workload])
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit status 0 (got {proc.returncode}) {proc.stderr[-300:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last line is JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: correct, nothing failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted >= 1")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    check(set(metrics) == set(wanted), f"{label}: metric names {sorted(set(wanted) ^ set(metrics))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        value = m.get("value")
        check(m.get("unit") == unit and isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} in {unit}")
        check(any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]),
              f"{label}: {name} printed with its unit")


def check_gate() -> None:
    import numpy as np
    from csforms import bundles, invariants, zoo

    import workloads

    def doubled_polynomial(obj):
        if isinstance(obj, invariants.InvariantPolynomial):
            return replace(obj, value=lambda x, v=obj.value: 2.0 * v(x))
        return obj

    def doubled_curvature(obj):
        if isinstance(obj, bundles.BundleChart):
            return replace(obj, curvature_field=lambda x, f=obj.curvature_field: 2.0 * np.asarray(f(x)))
        return obj

    good = workloads.quadrature(3)[0]
    check(good.check(good.run()) <= 1.0, "gate passes the true S^2 Gauss-Bonnet integral")
    bad = workloads.quadrature(3, doubled_polynomial)[0]
    check(bad.check(bad.run()) > 1.0, "gate catches a polynomial scaled by 2 (S^2 integral 4, not 2)")

    items = workloads.sweep_k2(3, doubled_curvature)[:TINY_ITEMS["sweep_k2"]]
    attempted, failed, _, _ = run.check_items(items, [[item.run()] for item in items])
    check(failed == attempted,
          f"gate catches a curvature that does not match its potential ({failed}/{attempted})")

    raising = workloads.Item("raises", lambda: 1 / 0, lambda value: 0.0)
    print("(a ZeroDivisionError traceback follows on purpose)", flush=True)
    passes = run.run_passes([raising], 0.0)
    attempted, failed, _, _ = run.check_items([raising], passes["values"])
    check(failed == attempted == 1, "an item that raises counts as failed")

    flat = zoo.get_bundle("flat:u2:3")
    P = invariants.make_polynomial("chern_j", 1, "u2")
    rng = np.random.default_rng(3)
    chart, point, tangents = workloads._random_point(flat.chart, rng, P.degree)
    item = workloads._heterotic_item("flat", chart, P, point, tangents)
    value = item.run()
    attempted, failed, ratio, rhs = run.check_items([item], [[value]])
    check(ratio <= 1.0 and failed == 1, f"gate fails a vacuous point (residual ok, |rhs| = {rhs:.1e})")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(bare, "sweep_k2", 0, None)
    printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
    check(proc.returncode != 0 and not printed_result,
          f"fails without a result where src/ is missing (status {proc.returncode})")
    shutil.rmtree(bare)


def main() -> int:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace)
    check_gate()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
