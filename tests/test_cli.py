import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wiedlab import registry
from wiedlab.cli import main
from wiedlab.runner import load_field


GRID = {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
        "nx": 6, "ny": 5, "nt": 20}


def write_config(path, **overrides):
    cfg = {
        "grid": dict(GRID),
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
    # both start the level from the parabolic reference, so the fused and
    # single-level paths agree bit for bit with a reaction too
    for name, model, wied in (
            ("zero", {"kind": "zero"}, {"outer_tol": 1e-9}),
            ("bump", {"kind": "polynomial-bump"}, {"outer_tol": 1e-9})):
        cfgp = write_config(tmp_path / f"{name}.json", model=model,
                            wied=wied,
                            schedule={"eps0": 0.05, "ratio": 0.5,
                                      "count": 1})
        a, b = tmp_path / f"{name}-run", tmp_path / f"{name}-wied"
        assert main(["run", str(cfgp), "--out", str(a)]) == 0
        assert main(["wied", str(cfgp), "--eps", "0.05",
                     "--out", str(b)]) == 0
        fa = (a / "fields" / "eps-0.05.f64").read_bytes()
        fb = (b / "eps-0.05.f64").read_bytes()
        assert fa == fb, name


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
    # levels.json keeps each level's solver history: one residual per
    # iteration, the last the reported full one, one inner solve per
    # tried step, one kind and damping factor per accepted step
    levels = json.loads(
        (tmp_path / "out" / "reports" / "levels.json").read_text())
    for lv in levels:
        assert len(lv["residuals"]) == lv["iterations"]
        assert lv["residuals"][-1] == lv["el_residual"] <= lv["el_tol_abs"]
        assert len(lv["damping"]) == lv["iterations"] - 1
        assert len(lv["steps"]) == len(lv["damping"])
        assert set(lv["steps"]) <= {"picard", "newton"}
        assert len(lv["inner_iterations"]) >= len(lv["damping"])
        assert all(0.0 < lam <= 1.0 for lam in lv["damping"])


def test_manifest_records_parabolic_corrections(tmp_path, capsys):
    # the unhashed manifests of `run` and `parabolic` report the
    # reference's trace corrections as solve_parabolic counts them, and no
    # other file carries them; `parabolic` prints them too, and two of its
    # runs write the same dump and sidecar
    from wiedlab.config import load_config
    from wiedlab.grid import build_grid
    from wiedlab.parabolic import solve_parabolic
    cfgp = write_config(tmp_path / "cfg.json",
                        model={"kind": "polynomial-bump"},
                        initial={"kind": "plateau", "radius": 0.5,
                                 "height": 1.0})
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = load_config(cfgp)
    grid = build_grid(cfg.grid)
    stats = {}
    solve_parabolic(grid, cfg.model, cfg.initial.evaluate(grid),
                    stats=stats)
    assert manifest["parabolic"] == stats
    assert stats["corrections"] >= stats["max_corrections"] >= 1
    assert 1 <= stats["max_step"] <= grid.spec.nt
    for name in manifest["artifacts"]:
        assert b"corrections" not in (out / name).read_bytes()

    refs = [tmp_path / "ref-a", tmp_path / "ref-b"]
    capsys.readouterr()
    for ref in refs:
        assert main(["parabolic", str(cfgp), "--out", str(ref)]) == 0
        assert (f"({stats['corrections']} trace corrections, at most "
                f"{stats['max_corrections']} in a step)"
                in capsys.readouterr().out)
        assert json.loads((ref / "manifest.json").read_text()) == {
            "package_version": manifest["package_version"],
            "numpy_version": np.__version__, "blas": manifest["blas"],
            "blas_kernel": manifest["blas_kernel"], "parabolic": stats}
    assert sorted(p.name for p in refs[0].iterdir()) == [
        "manifest.json", "parabolic.f64", "parabolic.json"]
    for name in ("parabolic.f64", "parabolic.json"):
        data = (refs[0] / name).read_bytes()
        assert data == (refs[1] / name).read_bytes()
        assert b"corrections" not in data


def test_manifest_records_each_levels_sweeps(tmp_path, monkeypatch):
    # the unhashed manifest reports each level's Thomas sweeps as
    # solve_wied counts them; levels.json does not, and no hashed
    # artifact changes when the counts do
    from wiedlab import wied
    cfgp = write_config(tmp_path / "cfg.json",
                        model={"kind": "polynomial-bump"},
                        initial={"kind": "plateau", "radius": 0.5,
                                 "height": 1.0})
    out = tmp_path / "a"
    assert main(["run", str(cfgp), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    levels = json.loads((out / "reports" / "levels.json").read_text())
    sweeps = manifest["sweeps"]
    assert len(sweeps) == len(levels) >= 2
    assert all(isinstance(n, int) and n > 0 for n in sweeps)
    assert all("sweeps" not in lv for lv in levels)
    solve = wied.solve_wied

    def miscounted(*args, **kwargs):
        level = solve(*args, **kwargs)
        level.stats["sweeps"] += 1000
        return level

    monkeypatch.setattr(wied, "solve_wied", miscounted)
    other = tmp_path / "b"
    assert main(["run", str(cfgp), "--out", str(other)]) == 0
    changed = json.loads((other / "manifest.json").read_text())
    assert changed["sweeps"] == [n + 1000 for n in sweeps]
    assert changed["artifacts"] == manifest["artifacts"]


def test_manifest_records_numpy_and_blas(tmp_path, monkeypatch):
    # the unhashed manifest names the numpy and BLAS builds, or null where
    # numpy cannot say, and neither record enters a hashed artifact
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["run", str(cfgp), "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    blas = manifest["blas"]
    assert blas is None or set(blas) == {"name", "version"}
    def no_mode():      # the show_config of numpy < 1.26
        return None
    monkeypatch.setattr(np, "show_config", no_mode)
    monkeypatch.setattr(np, "__version__", "0.0")
    assert main(["run", str(cfgp), "--out", str(tmp_path / "b")]) == 0
    other = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert (other["numpy_version"], other["blas"]) == ("0.0", None)
    assert other["artifacts"] == manifest["artifacts"]


def test_strict_support_flag(tmp_path, capsys):
    # strict support is the config key alone: with it a gaussian, positive
    # on the lateral boundary, exits 2 at load, and no CLI flag sets it
    gaussian = {"kind": "gaussian", "width": 0.2, "height": 0.5}
    cfgp = write_config(tmp_path / "cfg.json", initial=gaussian)
    assert main(["run", str(cfgp), "--out", str(tmp_path / "o1")]) == 0
    strict = write_config(tmp_path / "strict.json", initial=gaussian,
                          strict_support=True)
    assert main(["run", str(strict), "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strict-support" in err
    assert not (tmp_path / "o2").exists()
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfgp), "--strict-support",
              "--out", str(tmp_path / "o3")])
    assert exc.value.code == 2
    assert "--strict-support" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"initial": {"kind": "from-file"}}, "'path'"),
    ({"diagnostics": [{"name": "energy"}, {"name": "energi"}]},
     "'energi'"),
    ({"schedule": {"eps0": 0.2, "ratio": 0.5, "count": 2}}, "T/20"),
    ({"diagnostics": [{"name": "no-spikes", "center": [0.0, 0.0, 0.5],
                       "radius": 2.0}]}, "does not fit"),
    ({"diagnostics": [{"name": "energy"}, {"name": "uniform-bounds",
                                           "factor": "four"}]}, "'factor'"),
    ({"diagnostics": [{"name": "no-spikes", "center": [0.0, 0.0, 0.5],
                       "radius": 0.5, "delta": "half"}]}, "'delta'"),
    ({"diagnostics": [{"name": "holder", "centers": [], "levels": "3"}]},
     "'levels'"),
    ({"diagnostics": [{"name": "embedding", "layer_time": "t/2"}]},
     "'layer_time'"),
    ({"diagnostics": [{"name": "isoperimetric", "p": "1.5"}]}, "'p'"),
    # L = Y = 1: a radius past the grid would be clipped to the same nodes
    ({"diagnostics": [{"name": "embedding", "radius": 1.5}]},
     "leaves the grid"),
    ({"diagnostics": [{"name": "isoperimetric", "radius": 100.0}]},
     "leaves the grid"),
    ({"parabolic": {"picard_maxit": 0}}, "config 'parabolic': unknown key"),
    ({"wied": {"outer_maxit": 0}}, "wied 'outer_maxit': unknown key"),
    ({"wied": {"inner_tol": True}}, "inner_tol"),
    ({"schedule": {"eps0": 0.05, "ratio": 0.5, "count": True}}, "count"),
    # layers 1.5 apart: the half cylinder's window |t - 1| <= 1/4 is empty
    ({"grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 24.0,
               "nx": 6, "ny": 5, "nt": 16},
      "diagnostics": [{"name": "linf-l2", "center": [0.0, 0.0, 1.0],
                       "radius": 1.0}]}, "holds no grid node"),
    # values of the wrong JSON type, which no conversion may turn into
    # valid ones
    ({"strict_support": "false"}, "strict_support"),
    ({"seed": 1.7}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": "12"}, "seed"),
    ({"grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 1.0,
               "nx": 6, "ny": 5, "nt": 20, "grading": True}}, "grading"),
    ({"forcing_exponents": {"p": True, "q": "4"}}, "forcing_exponents"),
    # a Hoelder fit needs three positive oscillations: three cylinders,
    # the third (radius 1/16) holding two nodes; here it holds one node
    # (hx = 0.5, y_1 = 0.24, dt = 0.125)
    ({"diagnostics": [{"name": "holder", "centers": [], "levels": 2}]},
     "'levels'"),
    ({"grid": {"d": 1, "a": 0.5, "L": 2.0, "Y": 1.5, "T": 2.0,
               "nx": 8, "ny": 4, "nt": 16},
      "diagnostics": [{"name": "holder", "centers": [[0.0, 0.0, 1.0]]}]},
     "radius 1/16 holds 1 grid node"),
    # numbers of the initial data, the model and a cylinder center are
    # checked like every other config value
    ({"initial": {"kind": "plateau", "radius": 0.5, "height": "0.8"}},
     "'height'"),
    ({"initial": {"kind": "plateau", "radius": 0.5, "height": True}},
     "'height'"),
    ({"model": {"kind": "polynomial-bump", "params": {"m": "1"}}}, "'m'"),
    ({"model": {"kind": "piecewise-linear-hat", "params": {"peak": "0.5"}}},
     "'peak'"),
    ({"diagnostics": [{"name": "level-sets", "center": ["0", "0", "0.5"],
                       "radius": 0.25}]}, "cylinder center"),
    # keys that nothing reads, and sections of the wrong shape: each is
    # named by its path
    ({"foo": 1}, "config 'foo': unknown key"),
    ({"initial": {"kind": "plateau", "hieght": 0.5}},
     "initial 'hieght': unknown key"),
    ({"model": {"kind": "polynomial-bump", "params": {"m": 1, "k": 2}}},
     "model.params 'k': unknown key"),
    ({"model": {"kind": "zero", "lipschitz": 1.0}},
     "model 'lipschitz': unknown key"),
    ({"forcing_exponents": {"p": 3.0, "r": 2.0}},
     "forcing_exponents 'r': unknown key"),
    ({"diagnostics": [{"name": "energy"}, {"name": "uniform-bounds"},
                      {"name": "level-sets", "center": [0.0, 0.0, 0.5],
                       "radiuss": 0.25}]},
     "diagnostics[2] 'radiuss': unknown key"),
    ({"diagnostics": [{"name": "energy", "radius": 1.0}]},
     "diagnostics[0] 'radius': unknown key"),
    ({"diagnostics": [{"name": "cauchy", "eps": 0.1}]},
     "diagnostics[0] 'eps': unknown key"),
    ({"schedule": {"eps0": 0.05, "foo": 1}}, "schedule 'foo': unknown key"),
    ({"wied": {"foo": 1}}, "wied 'foo': unknown key"),
    ({"diagnostics": {"name": "energy"}},
     "config 'diagnostics' must be a list of JSON objects"),
    ({"diagnostics": ["energy"]}, "diagnostics[0] must be a JSON object"),
    ({"diagnostics": [None]}, "diagnostics[0] must be a JSON object"),
    ({"diagnostics": [{"center": [0.0, 0.0, 0.5]}]},
     "diagnostics[0] 'name': missing"),
    ({"model": {"kind": "polynomial-bump", "params": [1, 1]}},
     "model 'params' must be a JSON object"),
    # a grid whose one space-time field exceeds physical memory is
    # rejected before anything is allocated
    ({"grid": dict(GRID, nx=10**13)}, "physical memory"),
], ids=["from-file-without-path", "unknown-diagnostic", "eps0-beyond-T/20",
        "cylinder-does-not-fit", "uniform-bounds-factor-string",
        "no-spikes-delta-string", "holder-levels-string",
        "embedding-layer-time-string", "isoperimetric-p-string",
        "embedding-radius-past-grid", "isoperimetric-radius-past-grid",
        "picard-maxit-0", "outer-maxit-0", "inner-tol-boolean",
        "schedule-count-boolean",
        "linf-l2-empty-inner-cylinder", "strict-support-string",
        "seed-float", "seed-boolean", "seed-string", "grading-boolean",
        "forcing-exponents-boolean-and-string", "holder-levels-2",
        "holder-probe-unresolved", "initial-height-string",
        "initial-height-boolean", "bump-exponent-string",
        "hat-peak-string", "level-sets-center-strings", "unknown-top-level",
        "initial-hieght", "bump-param-k", "model-lipschitz",
        "forcing-exponent-r", "option-radiuss", "energy-option",
        "cauchy-option", "schedule-unknown", "wied-unknown",
        "diagnostics-object", "diagnostics-strings", "diagnostics-null",
        "diagnostic-without-name", "params-list", "grid-past-memory"])
def test_config_rejected_at_load(tmp_path, capsys, overrides, message):
    # exit 2 with a message and no traceback, before any compute writes
    cfgp = write_config(tmp_path / "bad.json", **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


# solver settings that are fixed in the code and are no config keys, each
# with the value the code uses; the parabolic reference has no section
# left, so a key of it is named by the section
DELETED_KEYS = {"outer": ("wied", "newton"), "damping": ("wied", 1.0),
                "inner_maxit": ("wied", 10), "outer_maxit": ("wied", 40),
                "dt": ("parabolic", 0.05),
                "linear_maxit": ("parabolic", 5000),
                "parabolic": ("", {"picard_tol": 1e-11, "picard_maxit": 200,
                                   "linear_tol": 1e-12})}


@pytest.mark.parametrize("key", sorted(DELETED_KEYS))
@pytest.mark.parametrize("command", ["run", "wied", "parabolic"])
def test_deleted_key_rejected_at_load(tmp_path, capsys, command, key):
    # a config that still sets a deleted key ends with exit 2, names the
    # key and writes nothing
    section, value = DELETED_KEYS[key]
    cfgp = write_config(tmp_path / "old.json",
                        **({section: {key: value}} if section else
                           {key: value}))
    out = tmp_path / "out"
    eps = ["--eps", "0.05"] if command == "wied" else []
    assert main([command, str(cfgp), *eps, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    named = (f"{section} '{key}'" if section == "wied"
             else "config 'parabolic'")
    assert f"{named}: unknown key" in err
    assert not out.exists()


@pytest.mark.parametrize("eps, message", [
    ("2", "(0, 1)"), ("-0.1", "(0, 1)"), ("nan", "finite"),
    # T = 2: a run rejects eps0 = 0.5 > T/20 too
    ("0.5", "T/20")], ids=["above-1", "negative", "nan", "past-horizon"])
def test_wied_bad_eps_rejected_before_compute(tmp_path, capsys,
                                              monkeypatch, eps, message):
    from wiedlab import wied

    def no_compute(*args, **kwargs):
        raise AssertionError("a level was solved")
    monkeypatch.setattr(wied, "sweep_epsilon", no_compute)
    cfgp = write_config(tmp_path / "cfg.json",
                        grid={"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0,
                              "T": 2.0, "nx": 6, "ny": 5, "nt": 20})
    out = tmp_path / "out"
    assert main(["wied", str(cfgp), "--eps", eps, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --eps") and message in err
    assert not out.exists()


def test_wied_builds_the_operators_once(tmp_path, monkeypatch):
    # `wied` is a one-level sweep: one DiscreteOperators for the reference
    # and the level, and one eigenbasis (two axis eigenproblems), as in
    # a run
    from wiedlab import assembly
    counts = {"ops": 0, "eigh": 0}
    init, eigh = assembly.DiscreteOperators.__init__, assembly._mass_eigh

    def counted_init(self, *args, **kwargs):
        counts["ops"] += 1
        init(self, *args, **kwargs)

    def counted_eigh(*args):
        counts["eigh"] += 1
        return eigh(*args)

    monkeypatch.setattr(assembly.DiscreteOperators, "__init__", counted_init)
    monkeypatch.setattr(assembly, "_mass_eigh", counted_eigh)
    cfgp = write_config(tmp_path / "cfg.json",
                        model={"kind": "polynomial-bump"})
    assert main(["wied", str(cfgp), "--eps", "0.05",
                 "--out", str(tmp_path / "out")]) == 0
    assert counts == {"ops": 1, "eigh": 2}


def test_diagnose_truncated_field_is_io_error(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    field = tmp_path / "p" / "parabolic.f64"
    raw = field.read_bytes()
    field.write_bytes(raw[:-8])
    with pytest.raises(OSError, match=f"{len(raw) - 8} bytes"):
        load_field(field)
    rc = main(["diagnose", str(cfgp), "--field", str(field),
               "--which", "energy", "--out", str(tmp_path / "diag")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and str(field) in err


@pytest.mark.parametrize("key, value", [
    ("dtype", "<f4"), ("order", "row-major (t, y, x)"),
    ("gridspec", {"d": 3}), ("gridspec", {**GRID, "nx": 1.5}),
    ("gridspec", {**GRID, "grading": None, "nz": 4})],
    ids=["dtype", "order", "gridspec", "gridspec-nx-fraction",
         "gridspec-unknown-key"])
def test_diagnose_bad_sidecar_is_io_error(tmp_path, capsys, key, value):
    # a sidecar the dump cannot be read by ends with exit 4 before any
    # diagnostic runs; its gridspec is checked against the config
    # schema's grid rows
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    side_path = tmp_path / "p" / "parabolic.json"
    side = json.loads(side_path.read_text())
    side[key] = value
    side_path.write_text(json.dumps(side))
    rc = main(["diagnose", str(cfgp), "--field",
               str(tmp_path / "p" / "parabolic.f64"),
               "--which", "level-sets", "--out", str(tmp_path / "diag")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and key in err
    assert not (tmp_path / "diag").exists()


def test_diagnose_energy_not_applicable_without_eps(tmp_path, capsys):
    # the parabolic reference is no WIED level: energy says so on one
    # line and writes nothing, and the other diagnostics still run
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    diag = tmp_path / "diag"
    rc = main(["diagnose", str(cfgp),
               "--field", str(tmp_path / "p" / "parabolic.f64"),
               "--which", "energy,level-sets", "--out", str(diag)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'energy' not applicable" in err
    assert not list(diag.glob("energy-*"))
    assert json.loads((diag / "diagnose_summary.json").read_text()) == []
    assert (diag / "level_sets.csv").exists()


def test_diagnose_unknown_name_rejected_before_compute(tmp_path, capsys,
                                                       monkeypatch):
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0

    def no_compute(*args):
        raise AssertionError("a diagnostic ran")
    monkeypatch.setattr(registry, "compute", no_compute)
    diag = tmp_path / "diag"
    rc = main(["diagnose", str(cfgp),
               "--field", str(tmp_path / "p" / "parabolic.f64"),
               "--which", "energy,linf-l2x", "--out", str(diag)])
    assert rc == 2
    assert "'linf-l2x'" in capsys.readouterr().err
    assert not diag.exists()


def test_diagnose_layer_past_the_field_horizon(tmp_path, capsys):
    # a config's layer_time fits its own grid (T = 8) but not the stored
    # field's (T = 1): exit 3 with a message, not an index error
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    other = write_config(tmp_path / "other.json", grid={**GRID, "T": 8.0},
                         diagnostics=[{"name": "embedding",
                                       "layer_time": 6.0}])
    diag = tmp_path / "diag"
    rc = main(["diagnose", str(other),
               "--field", str(tmp_path / "p" / "parabolic.f64"),
               "--which", "embedding", "--out", str(diag)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: diagnostic 'embedding'")
    assert "'layer_time' = 6.0 is past the horizon T = 1.0" in err


# the reports each diagnostic writes on a one-level run
ONE_LEVEL_REPORTS = {
    "energy": ["energy-eps-0.05.csv"],
    "uniform-bounds": [],            # a statement across two or more levels
    "linf-l2": ["linf_l2.csv"],
    "no-spikes": ["no_spikes.csv"],
    "level-sets": ["level_sets.csv"],
    "holder": ["holder.csv", "holder_fits.csv"],
    "embedding": ["embedding.csv"],
    "cauchy": ["cauchy.csv"],        # header only: no pair of levels
    "isoperimetric": ["isoperimetric.csv"],
}


@pytest.fixture(scope="module")
def one_level_run(tmp_path_factory):
    """A one-level run with every registered diagnostic, on a grid fine
    enough in x for a Hoelder fit."""
    tmp = tmp_path_factory.mktemp("one-level")
    cyl = {"center": [0.0, 0.0, 1.0], "radius": 1.0}
    cfgp = write_config(
        tmp / "cfg.json",
        grid={"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 2.0,
              "nx": 32, "ny": 4, "nt": 16},
        model={"kind": "polynomial-bump"},
        schedule={"eps0": 0.05, "ratio": 0.5, "count": 1},
        diagnostics=[{"name": "energy"}, {"name": "uniform-bounds"},
                     {"name": "linf-l2", **cyl}, {"name": "no-spikes", **cyl},
                     {"name": "level-sets", **cyl},
                     {"name": "holder", "centers": [cyl["center"]]},
                     {"name": "embedding", "layer_time": 1.0},
                     {"name": "isoperimetric", "layer_time": 1.0},
                     {"name": "cauchy"}])
    assert main(["run", str(cfgp), "--out", str(tmp / "run")]) == 0
    return cfgp, tmp / "run"


@pytest.mark.parametrize("name", list(registry.DIAGNOSTICS))
def test_diagnose_writes_the_rows_run_writes(one_level_run, tmp_path,
                                             capsys, name):
    assert set(ONE_LEVEL_REPORTS) == set(registry.DIAGNOSTICS)
    cfgp, run = one_level_run
    diag = tmp_path / "diag"
    assert main(["diagnose", str(cfgp),
                 "--field", str(run / "fields" / "eps-0.05.f64"),
                 "--which", name, "--out", str(diag)]) == 0
    written = sorted(p.name for p in diag.iterdir()
                     if p.name != "diagnose_summary.json")
    assert written == ONE_LEVEL_REPORTS[name]
    for fname in written:
        text = (diag / fname).read_text()
        assert text == (run / "reports" / fname).read_text()
        assert fname == "cauchy.csv" or len(text.splitlines()) > 1
    if not written:
        assert f"{name!r} not applicable" in capsys.readouterr().err
    # same summary values; diagnose knows no EL tolerance to compare with
    ran = {e["name"]: e for e in json.loads(
        (run / "summary.json").read_text())}
    for entry in json.loads((diag / "diagnose_summary.json").read_text()):
        assert entry["value"] == ran[entry["name"]]["value"]


def test_verify_removes_its_work_directory(tmp_path, capsys, monkeypatch):
    # the benchmark run of `verify` goes into a temporary directory that is
    # removed whether the criteria pass or raise
    from wiedlab import acceptance
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [acceptance.criterion_max_principle])
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["verify", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 maximum principle  PASS")
    assert not list(tmp.glob("wiedlab-acc-*"))

    def raising(ctx):
        ctx.benchmark()
        assert list(tmp.glob("wiedlab-acc-*/run-a/summary.json"))
        raise RuntimeError("criterion failed")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [raising])
    with pytest.raises(RuntimeError, match="criterion failed"):
        main(["verify", str(cfgp)])
    assert not list(tmp.glob("wiedlab-acc-*"))


def test_verify_exits_1_when_a_criterion_fails(tmp_path, capsys,
                                               monkeypatch):
    # one failing criterion among passing and skipped ones makes `verify`
    # print its FAIL line and exit 1, the code documented for it
    from wiedlab import acceptance
    Result = acceptance.CriterionResult
    monkeypatch.setattr(acceptance, "run_acceptance", lambda *a, **k: [
        Result("passing", True, "ok"),
        Result("failing", False, "bound missed"),
        Result("slow", False, "skipped (--skip-slow)", skipped=True)])
    cfgp = write_config(tmp_path / "cfg.json")
    assert main(["verify", str(cfgp)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "failing  FAIL  bound missed"
    assert out[2].startswith("slow     SKIP")


def test_nonfinite_initial_data_rejected_at_load(tmp_path, capsys):
    np.save(tmp_path / "u0.npy", np.full((6, 7), np.nan))
    cfgp = write_config(tmp_path / "bad.json",
                        initial={"kind": "from-file",
                                 "path": str(tmp_path / "u0.npy")})
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "non-finite" in err
    assert not out.exists()


def test_parabolic_failure_is_solver_error_with_manifest(tmp_path, capsys,
                                                         monkeypatch):
    # one Picard correction cannot finish the first step of a burning
    # plateau: exit 3, no traceback, and a manifest over what was written
    from wiedlab import parabolic
    monkeypatch.setattr(parabolic, "STEP_MAXIT", 1)
    cfgp = write_config(tmp_path / "cfg.json",
                        model={"kind": "polynomial-bump"})
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: parabolic reference failed")
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert not (out / "fields" / "parabolic.f64").exists()
    assert set(manifest["artifacts"]) == {
        str(p.relative_to(out)) for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"}


def test_diagnose_failure_is_solver_error(tmp_path, capsys):
    # a Hoelder fit needs three positive oscillations.  The grid resolves
    # them (hx = 1/16: the third cylinder holds three x nodes), but the
    # stored field is flat for |x| <= 0.1, so the third oscillation is 0:
    # exit 3 with a message, no traceback
    from wiedlab.config import load_config
    from wiedlab.grid import build_grid
    from wiedlab.runner import dump_field
    cfgp = write_config(tmp_path / "cfg.json",
                        grid={"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0,
                              "T": 2.0, "nx": 32, "ny": 4, "nt": 16},
                        diagnostics=[{"name": "holder",
                                      "centers": [[0.0, 0.0, 1.0]]}])
    grid = build_grid(load_config(cfgp).grid)
    flat = np.broadcast_to(np.clip(np.abs(grid.x) - 0.1, 0.0, None),
                           grid.spacetime_shape)
    dump_field(tmp_path / "flat.f64", grid, flat, {})
    rc = main(["diagnose", str(cfgp), "--field", str(tmp_path / "flat.f64"),
               "--which", "holder", "--out", str(tmp_path / "diag")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: diagnostic 'holder'")


@pytest.mark.parametrize("budget, overrides, phase, completed", [
    ("parabolic.STEP_MAXIT", {"model": {"kind": "polynomial-bump"}},
     "parabolic", 0),
    ("wied.OUTER_MAXIT", {"model": {"kind": "polynomial-bump"}}, "sweep", 0),
    (None, {"initial": {"kind": "plateau", "radius": 0.5, "height": 0.0},
            "diagnostics": [{"name": "energy"}, {"name": "embedding"}]},
     "diagnostics", 1),
], ids=["parabolic", "sweep", "diagnostics"])
def test_failed_run_records_failure_in_manifest(tmp_path, capsys, monkeypatch,
                                                budget, overrides, phase,
                                                completed):
    # the manifest of a failed run says where it stopped and why; a solver
    # phase fails on an iteration budget of 1
    if budget:
        monkeypatch.setattr(f"wiedlab.{budget}", 1)
    cfgp = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["phase"] == phase
    assert failure["completed"] == completed
    assert failure["message"] and failure["message"] in err


@pytest.mark.parametrize("outer_tol", [0.1, 0.05])
def test_eps_limit_fails_when_a_level_leaves_the_reference(tmp_path,
                                                           outer_tol):
    # with a loose outer_tol the first two levels pass their entry check
    # at the reference (distance 0) and the third does not: the entry
    # fails with a null ratio instead of dividing by the first distance,
    # and the run still writes its summary and manifest, in strict JSON
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "combustion-1d.json").read_text())
    cfg["grid"].update(nx=8, ny=3, nt=24)
    cfg["schedule"]["count"] = 3
    cfg["diagnostics"] = []
    cfg["wied"] = {"outer_tol": outer_tol}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 0
    levels = json.loads((out / "reports" / "levels.json").read_text())
    dists = [lv["dist_to_ref"] for lv in levels]
    assert dists[0] == 0.0 and dists[-1] > 0.0

    def no_constant(name):
        raise AssertionError(f"non-strict JSON constant {name}")
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=no_constant)
    entry = next(e for e in summary if e["name"] == "eps-limit-monotone")
    assert entry["value"] is None and entry["pass"] is False
    manifest = json.loads((out / "manifest.json").read_text())
    assert "failure" not in manifest
    assert "summary.json" in manifest["artifacts"]


# a burning run on a tiny grid with every diagnostic and option, which
# completes with exit 0; the holder probes are empty because a grid this
# coarse resolves no oscillation decay
MUTATION_BASE = {
    "grid": {"d": 1, "a": 0.5, "L": 2.0, "Y": 1.5, "T": 2.0,
             "nx": 8, "ny": 4, "nt": 16},
    "model": {"kind": "polynomial-bump", "params": {"m": 1, "n": 1}},
    "initial": {"kind": "plateau", "radius": 1.0, "height": 1.0,
                "axis": "trace"},
    "schedule": {"eps0": 0.1, "ratio": 0.5, "count": 2},
    "wied": {"outer_tol": 1e-9, "inner_tol": 1e-11},
    "forcing_exponents": {"p": 3.0, "q": 4.0},
    "diagnostics": [
        {"name": "energy"},
        {"name": "uniform-bounds", "factor": 4.0},
        {"name": "linf-l2", "center": [0.0, 0.0, 1.0], "radius": 1.0},
        {"name": "no-spikes", "center": [0.0, 0.0, 1.0], "radius": 1.0,
         "delta": 0.5},
        {"name": "level-sets", "center": [0.0, 0.0, 1.0], "radius": 1.0},
        {"name": "holder", "centers": [], "levels": 3},
        {"name": "embedding", "layer_time": 1.0, "radius": 1.0},
        {"name": "isoperimetric", "p": 1.5, "layer_time": 1.0,
         "radius": 1.0},
        {"name": "cauchy"},
    ],
    "seed": 7,
    "strict_support": True,
}


def _node_paths(obj, prefix=()):
    """Key/index paths of every node below obj."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        yield prefix + (key,)
        yield from _node_paths(val, prefix + (key,))


# JSON values, sizes kept small enough that any grid stays tiny
MUTATION_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 24),
    st.floats(-5.0, 50.0),
    st.sampled_from([0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.sampled_from(["picard", "newton", "zero", "piecewise-linear-hat",
                     "custom-table", "gaussian", "from-file", "radial",
                     "energy", "holder"]),
    st.lists(st.floats(-3.0, 3.0), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2),
)
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(list(_node_paths(MUTATION_BASE))),
              st.one_of(st.just("delete"), MUTATION_VALUES)),
    min_size=1, max_size=2)


def _mutated(mutations):
    cfg = json.loads(json.dumps(MUTATION_BASE))
    for path, value in mutations:
        try:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if value == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass   # an earlier mutation replaced this branch
    return cfg


# examples drawn per command; the commands other than run are bounded
# so that together they add a few seconds
MUTATION_EXAMPLES = {"run": 200, "wied": 100, "parabolic": 100,
                     "diagnose": 100}


@pytest.fixture(scope="module")
def mutation_field(tmp_path_factory):
    """The parabolic reference of MUTATION_BASE, which `diagnose` reads."""
    out = tmp_path_factory.mktemp("mutation-field")
    (out / "cfg.json").write_text(json.dumps(MUTATION_BASE))
    assert main(["parabolic", str(out / "cfg.json"), "--out", str(out)]) == 0
    return out / "parabolic.f64"


@pytest.mark.parametrize("command", list(MUTATION_EXAMPLES))
def test_mutated_config_exits_with_documented_code(command, mutation_field):
    # every config, however broken, ends in 0, 2, 3 or 4 without a
    # traceback, and an output directory of `run` always holds a manifest
    extra = {"wied": ["--eps", "0.05"],
             "diagnose": ["--field", str(mutation_field),
                          "--which", ",".join(registry.DIAGNOSTICS)]}

    @settings(max_examples=MUTATION_EXAMPLES[command], deadline=None,
              derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(MUTATIONS)
    def check(mutations):
        with tempfile.TemporaryDirectory() as tmp:
            cfgp = Path(tmp) / "cfg.json"
            cfgp.write_text(json.dumps(_mutated(mutations)))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, str(cfgp), *extra.get(command, []),
                           "--out", str(out)])
            assert rc in (0, 2, 3, 4), (rc, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if command == "run" and out.exists():
                assert (out / "manifest.json").exists(), rc
    check()
