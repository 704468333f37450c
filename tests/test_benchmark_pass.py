"""A traced benchmark pass of each workload ends in a complete result.

Unlike the pinned data digests in test_cli.py, this test reads the benchmark
harness on purpose: it runs `perfbench/passrun.py --trace` as the benchmark
does, in a fresh interpreter on this checkout's `src/`, and checks that every
operation succeeds and that every per-layer metric the benchmark declares is
reported, finite. A traced pass that exits 0 but lacks a metric, or holds a
NaN, would otherwise only show when the benchmark itself is run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# computed by perfbench/run.py across passes, not inside one pass
RUN_LEVEL_METRICS = {"process.cpu_s", "tracing.overhead_s"}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


@pytest.mark.parametrize("workload", ["carpet", "gasket_exact", "tree_walk"])
def test_traced_pass_reports_every_layer_metric(tmp_path, workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    pass_dir = tmp_path / "pass"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", workload,
         "--seed", "1", "--dir", str(pass_dir), "--trace"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((pass_dir / "pass.json").read_text(), parse_constant=_reject_constant)
    assert [(op["rc"], op["error"]) for op in result["ops"]] == [(0, None)] * len(result["ops"])
    assert result["missing"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["layers"]) == {m["name"] for m in declared} - RUN_LEVEL_METRICS
