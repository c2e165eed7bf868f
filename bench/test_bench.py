"""Fast self-check of the benchmark: one tiny operation per workload.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    """A directory inside the checkout, like the benchmark's own outputs."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as d:
        yield Path(d)


@pytest.fixture(scope="module")
def api():
    sys.path.insert(0, str(run.ROOT / "src"))
    return run.load_phibvp()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_operation_checks_out_untraced_and_traced(api, name, scratch):
    tracer = tracing.Tracer(api)
    tracer.op_id = 0
    tracer.install()
    ops = WORKLOADS[name].build(api, 1, scratch, tiny=True)
    tracer.uninstall()
    setup_counts = tracer.take_counts()
    assert api.solver.eval_many is api.expr.eval_many  # patches removed

    runner = run.Runner(ops, tracer)
    passes = [runner.run_pass(k, traced) for k, traced in
              enumerate((False, True, False, True))]
    assert all(p["attempted"] == len(ops) for p in passes)
    assert [x for p in passes for x in p["problems"]] == []

    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values, unsteady = run.layer_metrics(runner, passes, setup_counts, units)
    assert unsteady == []
    assert set(units) <= set(values)
    layer_time = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_time > 0


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(run.BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
