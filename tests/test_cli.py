import json
from pathlib import Path

import numpy as np
import pytest

from wiedlab.cli import main
from wiedlab.runner import load_field


def write_config(path, **overrides):
    cfg = {
        "grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
                 "nx": 6, "ny": 5, "nt": 20},
        "model": {"kind": "zero"},
        "initial": {"kind": "plateau", "radius": 0.5, "height": 0.8},
        "schedule": {"eps0": 0.05, "ratio": 0.5, "count": 2},
        "wied": {"outer_tol": 1e-9},
        "diagnostics": [{"name": "energy"},
                        {"name": "uniform-bounds"},
                        {"name": "cauchy"}],
        "seed": 7,
    }
    cfg.update(overrides)
    p = Path(path)
    p.write_text(json.dumps(cfg))
    return p


def test_run_minimal_constant_data(tmp_path, capsys):
    # constant initial data with the zero reaction: everything stays put
    cfgp = write_config(tmp_path / "cfg.json",
                        initial={"kind": "from-file",
                                 "path": str(tmp_path / "u0.npy")})
    np.save(tmp_path / "u0.npy", np.full((6, 7), 0.5))
    rc = main(["run", str(cfgp), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert all(row["pass"] for row in summary if row["pass"] is not None)
    rows = (tmp_path / "out" / "reports" / "convergence.csv"
            ).read_text().strip().splitlines()
    dists = [float(r.split(",")[-1]) for r in rows[1:]]
    assert max(dists) < 1e-9  # constants: zero distance to the reference
    energy = (tmp_path / "out" / "reports" / "energy-eps-0.05.csv"
              ).read_text().splitlines()
    vals = np.array([[float(v) for v in r.split(",")[2:]]
                     for r in energy[1:]])
    assert np.max(np.abs(vals)) < 1e-15  # all-zero diagnostics


def test_config_error_exit_code(tmp_path, capsys):
    cfgp = write_config(tmp_path / "bad.json",
                        grid={"d": 1, "a": 1.5, "L": 1.0, "Y": 1.0,
                              "T": 1.0, "nx": 6, "ny": 5, "nt": 20})
    rc = main(["run", str(cfgp)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(-1, 1)" in err


def test_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_unknown_subcommand_usage_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == 2


def test_wied_single_level_matches_run(tmp_path):
    cfgp = write_config(tmp_path / "cfg.json",
                        schedule={"eps0": 0.05, "ratio": 0.5, "count": 1})
    assert main(["run", str(cfgp), "--out", str(tmp_path / "a")]) == 0
    assert main(["wied", str(cfgp), "--eps", "0.05",
                 "--out", str(tmp_path / "b")]) == 0
    fa = (tmp_path / "a" / "fields" / "eps-0.05.f64").read_bytes()
    fb = (tmp_path / "b" / "eps-0.05.f64").read_bytes()
    assert fa == fb  # determinism: fused and single-level paths agree


def test_parabolic_subcommand_and_field_roundtrip(tmp_path):
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    grid, arr, side = load_field(tmp_path / "p" / "parabolic.f64")
    assert arr.shape == grid.spacetime_shape
    assert side["s_exponent"] == 0.25
    # constants in from-file? plateau initial here: check layer 0 values
    from wiedlab.config import load_config
    cfg = load_config(cfgp)
    U0 = cfg.initial.evaluate(grid)
    assert np.array_equal(arr.reshape(grid.spec.nt + 1, -1)[0], U0)


def test_diagnose_on_stored_field(tmp_path):
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["run", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    rc = main(["diagnose", str(cfgp),
               "--field", str(tmp_path / "out" / "fields" / "eps-0.05.f64"),
               "--which", "energy,level-sets",
               "--out", str(tmp_path / "diag")])
    assert rc == 0
    assert (tmp_path / "diag" / "energy-eps-0.05.csv").exists()
    assert (tmp_path / "diag" / "level_sets.csv").exists()
    # levels.json keeps each level's solver history: one inner solve per
    # tried step, one damping factor per accepted step
    levels = json.loads(
        (tmp_path / "out" / "reports" / "levels.json").read_text())
    for lv in levels:
        assert len(lv["damping"]) == lv["iterations"] - 1
        assert len(lv["inner_iterations"]) >= len(lv["damping"])
        assert all(0.0 < lam <= 1.0 for lam in lv["damping"])


def test_strict_support_flag(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json",
                        initial={"kind": "gaussian", "width": 0.2,
                                 "height": 0.5})
    assert main(["run", str(cfgp), "--out", str(tmp_path / "o1")]) == 0
    rc = main(["run", str(cfgp), "--strict-support",
               "--out", str(tmp_path / "o2")])
    assert rc == 2
    assert "strict-support" in capsys.readouterr().err


def test_threads_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("WIEDLAB_THREADS", "2")
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["run", str(cfgp), "--out", str(tmp_path / "out")]) == 0
