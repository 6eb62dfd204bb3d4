"""The benchmark's workloads still run, pass their gate and trace whole.

perfbench/tracer.py counts calls at named boundaries of the package (for
example the expm that bundles binds at module level) and reports a counter
as absent when its boundary is gone.  A refactor that moves or renames such
a boundary leaves the traced benchmark result without a metric it declares.
Each benchmark item also carries its own correctness gate (``check``, the
error over the acceptance tolerance), which a change must keep passing.
These tests only read perfbench/ and BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

import pytest

import csforms

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = sorted(m["name"] for m in SPEC["per_layer"] if m["unit"].startswith("count"))


@pytest.mark.parametrize("workload", ["sweep_k2", "quadrature"])
def test_every_declared_counter_is_available(workload):
    t = tracer.Tracer(csforms)
    item = workloads.BUILDERS[workload](1, t.instrument)[0]
    t.install()
    try:
        item.run()
    finally:
        t.uninstall()
    assert [name for name in COUNTS if name not in t.available] == []


SWEEP_K2_ITEMS = 5


@pytest.mark.parametrize(
    "workload,count", [("quadrature", None), ("sweep_k2", SWEEP_K2_ITEMS)]
)
def test_items_pass_their_own_gate(workload, count):
    items = workloads.BUILDERS[workload](1)[:count]
    ratios = {item.name: item.check(item.run()) for item in items}
    assert all(r <= 1.0 for r in ratios.values()), ratios
    for item in items:
        if item.rhs is not None:
            assert item.rhs() >= workloads.NONVACUITY_FLOOR, item.name
