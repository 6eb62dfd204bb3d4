"""The benchmark's per-layer tracer still finds every counter BENCHMARK.json names.

perfbench/tracer.py counts calls at named boundaries of the package (for
example the expm that bundles binds at module level) and reports a counter
as absent when its boundary is gone.  A refactor that moves or renames such
a boundary leaves the traced benchmark result without a metric it declares.
This test only reads perfbench/ and BENCHMARK.json.
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
