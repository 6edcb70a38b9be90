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
    ({"parabolic": {"picard_maxit": 0}}, "picard_maxit"),
    ({"parabolic": {"linear_maxit": 0}}, "linear_maxit"),
    ({"wied": {"outer_maxit": 0}}, "outer_maxit"),
    ({"wied": {"inner_maxit": 0}}, "inner_maxit"),
    ({"wied": {"inner_tol": True}}, "inner_tol"),
    ({"schedule": {"eps0": 0.05, "ratio": 0.5, "count": True}}, "count"),
    # layers 1.5 apart: the half cylinder's window |t - 1| <= 1/4 is empty
    ({"grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0, "T": 24.0,
               "nx": 6, "ny": 5, "nt": 16},
      "diagnostics": [{"name": "linf-l2", "center": [0.0, 0.0, 1.0],
                       "radius": 1.0}]}, "holds no grid node"),
], ids=["from-file-without-path", "unknown-diagnostic", "eps0-beyond-T/20",
        "cylinder-does-not-fit", "uniform-bounds-factor-string",
        "no-spikes-delta-string", "holder-levels-string",
        "embedding-layer-time-string", "isoperimetric-p-string",
        "picard-maxit-0", "linear-maxit-0", "outer-maxit-0",
        "inner-maxit-0", "inner-tol-boolean", "schedule-count-boolean",
        "linf-l2-empty-inner-cylinder"])
def test_config_rejected_at_load(tmp_path, capsys, overrides, message):
    # exit 2 with a message and no traceback, before any compute writes
    cfgp = write_config(tmp_path / "bad.json", **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


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


def test_parabolic_failure_is_solver_error_with_manifest(tmp_path, capsys):
    # one Picard correction cannot finish the first step of a burning
    # plateau: exit 3, no traceback, and a manifest over what was written
    cfgp = write_config(tmp_path / "cfg.json",
                        model={"kind": "polynomial-bump"},
                        parabolic={"picard_maxit": 1})
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
    # a Hoelder fit needs three positive oscillations, which a grid this
    # coarse does not resolve: exit 3 with a message, no traceback
    cfgp = write_config(tmp_path / "cfg.json",
                        grid={"d": 1, "a": 0.5, "L": 2.0, "Y": 1.5,
                              "T": 2.0, "nx": 8, "ny": 4, "nt": 16},
                        diagnostics=[{"name": "holder",
                                      "centers": [[0.0, 0.0, 1.0]]}])
    assert main(["parabolic", str(cfgp), "--out", str(tmp_path / "p")]) == 0
    rc = main(["diagnose", str(cfgp),
               "--field", str(tmp_path / "p" / "parabolic.f64"),
               "--which", "holder", "--out", str(tmp_path / "diag")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: diagnostic 'holder'")


@pytest.mark.parametrize("overrides, phase, completed", [
    ({"model": {"kind": "polynomial-bump"},
      "parabolic": {"picard_maxit": 1}}, "parabolic", 0),
    ({"model": {"kind": "polynomial-bump"}, "wied": {"outer_maxit": 1}},
     "sweep", 0),
    ({"initial": {"kind": "plateau", "radius": 0.5, "height": 0.0},
      "diagnostics": [{"name": "energy"}, {"name": "embedding"}]},
     "diagnostics", 1),
], ids=["parabolic", "sweep", "diagnostics"])
def test_failed_run_records_failure_in_manifest(tmp_path, capsys, overrides,
                                                phase, completed):
    # the manifest of a failed run says where it stopped and why
    cfgp = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfgp), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["phase"] == phase
    assert failure["completed"] == completed
    assert failure["message"] and failure["message"] in err


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
    "wied": {"outer": "newton", "outer_tol": 1e-9, "outer_maxit": 40,
             "inner_tol": 1e-11, "inner_maxit": 400},
    "parabolic": {"picard_tol": 1e-11, "picard_maxit": 200,
                  "linear_tol": 1e-12, "linear_maxit": 50},
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


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(MUTATIONS)
def test_mutated_config_exits_with_documented_code(mutations):
    # every config, however broken, ends in 0, 2, 3 or 4 without a
    # traceback, and an output directory always holds a manifest
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps(_mutated(mutations)))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", str(cfgp), "--out", str(out)])
        assert rc in (0, 2, 3, 4), (rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out.exists():
            assert (out / "manifest.json").exists(), rc
