"""The benchmark's set-up probe still runs on the program.

perfbench/worker.py times the program's set-up stage by stage before any
op runs, and imports capflow names to do it; a rename that breaks it breaks
every benchmark run.  This test loads the worker from its file (read-only),
with perfbench/ on the path for its bare imports, and runs the probe of each
workload in-process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FLOW_STAGES = ["import_s", "make_norm_s", "anchor_vector_s", "initial_surface_s",
               "geometry_s", "slice_table_s"]
STAGES = {
    "sphere-converge": FLOW_STAGES,
    "quartic-horizon": FLOW_STAGES,
    "admissibility": ["import_s", "make_norm_s", "translated_norm_s"],
}


@pytest.fixture(scope="module")
def worker():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in ("tracer", "workloads"):
            if name not in saved_modules:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_setup_probe_runs_every_stage(worker, name):
    result = worker.setup_probe(worker.WORKLOADS[name], seed=1)
    assert list(result["stages"]) == STAGES[name]
    assert result["setup_s"] > 0.0
