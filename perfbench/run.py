"""Benchmark of csforms: seeded workloads, checked results, per-layer traces.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sweep_k2 --seed 1 --seconds 30 --trace 0

Workloads are sweep_k2, quadrature and sweep_k3 (see workloads.py); the
first two are the ones BENCHMARK.json lists.  sweep_k3 is run by hand: its
items take about 2 s each, too long to time steadily (see below).  Each is
a fixed list of items built from the seed and run back to back in one
process by one caller.  The list is repeated until --seconds is used up
(at least once); every result is checked against its acceptance reference.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones:

    setup_s        median over 5 fresh processes of the time from process
                   start to the first timed item: imports (csforms and its
                   CLI), inputs, coefficient tables, one untimed warm-up item
    wall_s         time of one pass over the item list at full machine
                   speed: the sum over the items of each item's fastest
                   time over the passes
    point_p50_ms   median over the items of each item's fastest time over
                   the passes; an item is a sweep point, or one integral or
                   the degree pair on quadrature
    peak_rss_mb    peak resident memory of the measuring process

Why the fastest time: on a shared host the speed of a core swings by up to
2x in spells of seconds to minutes, and CPU time swings with wall time (the
process is not descheduled; each instruction takes longer).  A run-wide mean
or median then mostly measures how much of the run fell in slow spells.  An
item's fastest time over passes spread across the run is its time at full
speed, which only the program can change.

With --trace 1 the first half of the time is measured untraced and the
second half traced, and the metrics are the per-layer ones (tracer.py):
call counts at the named boundaries, the self seconds of each layer per
pass, its share of the traced pass, and trace.overhead, the traced wall
time over the untraced one minus 1 (both as wall_s above).  The spans are
written to .perfbench_out/.

The lines before the last one give the same numbers for a reader, with
sample counts, and add point_p90_ms where there are at least 100 items,
fail_frac (failed / attempted), err_ratio_max (the largest
|computed - expected| / tolerance), the smallest |P(Omega) - P(Psi)| of the
sweeps, and the machine and library versions.  fail_frac is 0 and
err_ratio_max is a maximum over random points that moves several-fold from
seed to seed, so neither can carry a regression bound.

Exit status: 0 when every item met its reference, 1 when one did not or
raised (the result line is still printed), 2 for a bad argument or a
checkout without src/csforms, 3 when a measuring process failed.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import COUNTERS, LAYERS, NODE_COUNTERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_k2", "quadrature", "sweep_k3")
# set-up is timed in 5 fresh processes, 2 before the measuring one and 2
# after it, so that the median spans the run's changes in machine speed
SETUP_BEFORE = 2
SETUP_AFTER = 2
CHILD_TIMEOUT_S = 170
P90_MIN_ITEMS = 100  # so that ten items lie beyond the 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "point_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
REPORTED_COUNTS = (*COUNTERS, "liealg.calls", "rationals.calls")
PER_LAYER_UNITS = {
    **{name: "count_computed" if name in NODE_COUNTERS.values() else "count" for name in REPORTED_COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.overhead": "fraction",
}


RAISED = object()  # stands for the value of an item that raised


class ChildFailed(Exception):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="csforms benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # first N items only, for the self-test
    ap.add_argument("--items", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--child", choices=("setup", "measure"), default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.items is not None and args.items < 1:
        ap.error("--items must be at least 1")
    return args


# --- measuring process ----------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def import_package():
    sys.path.insert(0, str(SRC))
    import csforms
    import csforms.cli  # noqa: F401  the command-line front end starts with the package

    if Path(csforms.__file__).resolve().parent != SRC / "csforms":
        raise ChildFailed(f"imported csforms from {csforms.__file__}, not from {SRC}")
    return csforms


def run_passes(items, budget: float, tracer=None) -> dict:
    """Repeat the item list while another pass fits in the budget (at least once)."""
    clock = time.perf_counter
    walls: list[float] = []
    latencies: list[list[float]] = [[] for _ in items]
    values: list[list] = [[] for _ in items]
    passes_trace = []
    start = clock()
    while True:
        if tracer is not None:
            first_row, counts_before = len(tracer.spans), Counter(tracer.counts)
        t0 = clock()
        for i, item in enumerate(items):
            s = clock()
            try:
                if tracer is None:
                    value = item.run()
                else:
                    with tracer.root(item.name):
                        value = item.run()
            except Exception:  # a raising item is a failed item; the run goes on
                traceback.print_exc()
                value = RAISED
            latencies[i].append(clock() - s)
            values[i].append(value)
        walls.append(clock() - t0)
        if tracer is not None:
            passes_trace.append((tracer.self_times(first_row), tracer.counts - counts_before, walls[-1]))
        if clock() - start + statistics.median(walls) > budget:
            break
    return {"walls": walls, "latencies": latencies, "values": values, "trace": passes_trace}


def check_items(items, values) -> tuple[int, int, float, float | None]:
    """(attempted, failed, largest error ratio, smallest sweep |rhs|)."""
    from workloads import NONVACUITY_FLOOR

    attempted = failed = 0
    worst = 0.0
    smallest_rhs = None
    for item, vals in zip(items, values):
        vacuous = False
        if item.rhs is not None:
            size = float(item.rhs())
            smallest_rhs = size if smallest_rhs is None else min(smallest_rhs, size)
            vacuous = not size >= NONVACUITY_FLOOR
        for v in vals:
            ratio = math.inf if v is RAISED else float(item.check(v))
            attempted += 1
            worst = max(worst, ratio)
            if vacuous or not ratio <= 1.0:
                failed += 1
    return attempted, failed, worst, smallest_rhs


def layer_metrics(passes_trace, traced_wall: float, untraced_wall: float, available: set) -> dict:
    out: dict[str, float] = {}
    for name in REPORTED_COUNTS:
        if name in available:
            out[name] = statistics.median(c[name] for _, c, _ in passes_trace)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(s[layer] for s, _, _ in passes_trace)
        out[f"{layer}.share"] = statistics.median(s[layer] / w for s, _, w in passes_trace)
    out["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return out


def fastest(latencies: list[list[float]]) -> list[float]:
    """Each item's fastest time over the passes."""
    return [min(samples) for samples in latencies]


def write_spans(args, tracer, env: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "env": env,
                "columns": ["name", "layer", "start_s", "end_s", "parent"],
                "names": tracer.names,
                "spans": tracer.spans,
            },
            fh,
        )
    return path


def measure(args) -> dict:
    package = import_package()
    import workloads

    build = workloads.BUILDERS[args.workload]
    items = build(args.seed)[: args.items]
    items[0].run()  # warm-up: lazy imports and caches fill before timing
    print("READY", flush=True)
    if args.child == "setup":
        return {}

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(items, budget)
    attempted, failed, worst, smallest_rhs = check_items(items, plain["values"])
    # the percentiles are over items, each at its fastest (see the top)
    lat = fastest(plain["latencies"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "walls": plain["walls"],
        "items": len(items),
        "wall_s": sum(lat),
        "point_p50_ms": 1e3 * statistics.median(lat),
        "err_ratio_max": worst,
        "smallest_rhs": smallest_rhs,
        "env": environment(),
    }
    if len(lat) >= P90_MIN_ITEMS:
        result["point_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    if args.trace:
        tracer = Tracer(package)
        traced_items = build(args.seed, tracer.instrument)[: args.items]
        tracer.install()
        try:
            traced = run_passes(traced_items, args.seconds - budget, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(
            traced["trace"], sum(fastest(traced["latencies"])), result["wall_s"], tracer.available
        )
        result["traced_passes"] = len(traced["walls"])
        result["spans"] = len(tracer.spans)
        result["spans_file"] = str(write_spans(args, tracer, result["env"]).relative_to(ROOT))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def child_main(args) -> int:
    try:
        result = measure(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.child == "measure":
        print("RESULT " + json.dumps(result), flush=True)
    return 0


# --- parent process ------------------------------------------------------------

def spawn(args, role: str) -> tuple[float, dict]:
    """Start one measuring process; return its set-up time and its result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise ChildFailed(f"{role} process exited with status {proc.returncode}")
    if role == "setup":
        return setup, {}
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return setup, json.loads(line[len("RESULT "):])
    raise ChildFailed("measuring process printed no result")


def report(args, setups: list[float], r: dict) -> dict:
    setup_s = statistics.median(setups)
    lines = [
        f"# csforms benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# env: " + json.dumps(r["env"], sort_keys=True),
        f"setup_s        {setup_s:.4f} s   (median of {len(setups)} processes)",
        f"wall_s         {r['wall_s']:.4f} s   (sum of fastest times of {r['items']} items over {len(r['walls'])} passes)",
        f"# pass times: {' '.join(f'{w:.3f}' for w in r['walls'])} s",
        f"point_p50_ms   {r['point_p50_ms']:.3f} ms  (over {r['items']} items, each at its fastest)",
    ]
    if "point_p90_ms" in r:
        lines.append(f"point_p90_ms   {r['point_p90_ms']:.3f} ms  (over {r['items']} items)")
    lines += [
        f"peak_rss_mb    {r['peak_rss_mb']:.1f} MB",
        f"fail_frac      {r['failed'] / r['attempted']:.4g} ratio ({r['failed']}/{r['attempted']})",
        f"err_ratio_max  {r['err_ratio_max']:.4g} ratio",
    ]
    if r["smallest_rhs"] is not None:
        lines.append(f"min |P(Omega)-P(Psi)|  {r['smallest_rhs']:.4g} (floor 1e-8)")
    if args.trace:
        lines.append(
            f"# traced: {r['traced_passes']} passes, {r['spans']} spans in {r['spans_file']}; "
            "counts are per pass, count_computed ones from the quadrature orders"
        )
        for name, unit in PER_LAYER_UNITS.items():
            value = r["layers"].get(name)
            lines.append(f"{name:28s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    print("\n".join(lines))

    if args.trace:
        metrics = {name: {"value": r["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items() if name in r["layers"]}
    else:
        values = {"setup_s": setup_s, **{k: r[k] for k in END_TO_END_UNITS if k != "setup_s"}}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args)
    if not (SRC / "csforms" / "__init__.py").is_file():
        print(f"perfbench: no csforms sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = [spawn(args, "setup")[0] for _ in range(SETUP_BEFORE)]
        setup, result = spawn(args, "measure")
        setups += [setup] + [spawn(args, "setup")[0] for _ in range(SETUP_AFTER)]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    line = report(args, setups, result)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
