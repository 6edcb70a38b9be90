"""The benchmark's own tests, on tiny grids that run in seconds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from tracing import Tracer, installed, layer_table  # noqa: E402
from wiedlab.config import load_config  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _job(workload, tmp_path, tracer=None):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(wl.make_config(workload, 3, smoke=True)))
    out = tmp_path / ("traced" if tracer else "plain")
    cfg = load_config(cfg_path)
    if tracer is None:
        wl.run_job(workload, cfg_path, cfg, out)
    else:
        with installed(tracer):
            wl.run_job(workload, cfg_path, cfg, out)
    return wl.tree_hashes(out)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_path_and_tracing_keeps_artifacts(workload, tmp_path):
    plain = _job(workload, tmp_path)
    tracer = Tracer()
    traced = _job(workload, tmp_path, tracer)
    assert plain and traced == plain

    m = {k: v for k, (v, _) in layer_table(tracer, 1).items()}
    if workload == "run-1d":
        assert m["assembly.prec_setups_spectral"] > 0
        assert m["assembly.prec_setups_timeline"] == 0
        assert m["assembly.prec_applies"] > 0
    elif workload == "run-2d":
        assert m["assembly.prec_setups_timeline"] > 0
        assert m["assembly.prec_setups_spectral"] == 0
        assert m["linalg.bicgstab_iters"] > 0
    else:
        assert m["linalg.bicgstab_calls"] == 0
        assert m["parabolic.steps"] == wl.SIZES[workload]["smoke"]["nt"]
        assert m["diagnostics.energy_calls"] == 1
        assert m["cli.self_s"] > 0


def test_workload_configs_depend_only_on_seed():
    for workload in wl.WORKLOADS:
        a = wl.make_config(workload, 5)
        assert a == wl.make_config(workload, 5)
        assert a != wl.make_config(workload, 6)
        lo, hi = wl.RADIUS_RANGE
        assert lo <= a["initial"]["radius"] <= hi
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


def _result(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_every_metric(trace):
    rc, out = _result("--workload", "reference-1d", "--seed", "2",
                      "--seconds", "0.5", "--trace", trace, "--smoke")
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, out = _result("--workload", "run-1d", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert out.strip() == ""
