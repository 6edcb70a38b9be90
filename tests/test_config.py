"""The config schema: every key of config.SCHEMA walked through
config_from_dict alone, the README's table of it, and the defaults the
library classes share with it."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wiedlab import parabolic, wied
from wiedlab.combustion import CombustionModel, beta_eval, validate_model
from wiedlab.config import (HALF_T, REQUIRED, SCHEMA, SECTIONS, ConfigError,
                            config_from_dict)
from wiedlab.grid import GridSpec
from wiedlab.wied import EpsilonSchedule, WiedConfig

ROOT = Path(__file__).resolve().parent.parent

# a tiny config with every section and diagnostic, which loads
BASE = {
    "grid": {"d": 1, "a": 0.5, "L": 2.0, "Y": 1.5, "T": 2.0,
             "nx": 8, "ny": 4, "nt": 16, "grading": 2.0},
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
    "output": "runs/x",
    "seed": 7,
    "strict_support": False,
}
# the objects of each kind, every key given
KINDS = {
    "model.params": {
        "zero": {}, "polynomial-bump": {"m": 2, "n": 0.5},
        "piecewise-linear-hat": {"peak": 0.3},
        "custom-table": {"v": [0.0, 0.5, 1.0], "beta": [0.0, 1.0, 0.0]}},
    "initial": {
        "gaussian": {"width": 0.1, "height": 1.0},
        "plateau": {"radius": 1.0, "height": 1.0, "axis": "trace"},
        "from-file": {"path": "u0.npy"}},
}
SPATIAL = (5, 9)        # the grid's spatial shape (ny + 1, nx + 1)
DIAG_INDEX = {d["name"]: i for i, d in enumerate(BASE["diagnostics"])}


def _section_kind(section):
    base, _, kind = section.partition(" (")
    return base, kind.rstrip(")")


def located(section):
    """(a copy of BASE that holds the section's object, every key of its
    kind given; that object; the path a message names its keys by)."""
    cfg = json.loads(json.dumps(BASE))
    base, kind = _section_kind(section)
    if base == "":
        return cfg, cfg, "config"
    if base == "model.params":
        cfg["model"] = {"kind": kind, "params": dict(KINDS[base][kind])}
        return cfg, cfg["model"]["params"], "model.params"
    if base == "initial" and kind:
        cfg["initial"] = {"kind": kind, **KINDS[base][kind]}
        return cfg, cfg["initial"], "initial"
    if base == "diagnostics":
        i = DIAG_INDEX.get(kind, 0)
        return cfg, cfg["diagnostics"][i], f"diagnostics[{i}]"
    return cfg, cfg[base], base


def placed(section, key, value):
    """(located's config with value at the key, the key's path)."""
    cfg, obj, where = located(section)
    obj[key] = value
    return cfg, f"{where} {key!r}"


# every object a config holds: the top level, each section, each kind
LEVELS = ("", "grid", "model", "schedule", "wied", "forcing_exponents",
          *(f"{base} ({k})" for base, kinds in KINDS.items() for k in kinds),
          *(f"diagnostics ({n})" for n in DIAG_INDEX))


FINITE = st.one_of(st.integers(-10**6, 10**6),
                   st.floats(allow_nan=False, allow_infinity=False))
NON_NUMBER = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                       st.sampled_from([math.inf, -math.inf, math.nan]))
# per JSON type, a strategy of each kind of wrong value
WRONG = {
    "string": st.text(max_size=4), "bool": st.booleans(), "null": st.none(),
    "number": FINITE, "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(),
                              max_size=2),
    "non-finite": st.sampled_from([math.inf, -math.inf, math.nan]),
    "float": st.floats(),
    "list of non-numbers": st.lists(NON_NUMBER, min_size=1, max_size=3),
    "list of non-lists": st.lists(st.one_of(FINITE, st.text(max_size=2)),
                                  min_size=1, max_size=3),
    "list of non-objects": st.lists(st.one_of(FINITE, st.text(max_size=4),
                                              st.none()),
                                    min_size=1, max_size=3),
}
WRONG_FOR = {
    "number": ("string", "bool", "null", "list", "object", "non-finite"),
    "integer": ("string", "bool", "null", "list", "object", "float"),
    "bool": ("string", "null", "number", "list", "object"),
    "string": ("bool", "null", "number", "list", "object"),
    "list of numbers": ("string", "bool", "null", "number", "object",
                        "list of non-numbers"),
    "point": ("string", "bool", "null", "number", "object",
              "list of non-numbers"),
    "list of points": ("string", "bool", "null", "number", "object",
                       "list of non-lists"),
    "object": ("string", "bool", "null", "number", "list"),
    "list of objects": ("string", "bool", "null", "number", "object",
                        "list of non-objects"),
}
INTERNAL = ("string indices", "unexpected keyword", "not iterable",
            "NoneType", "not subscriptable", "positional argument",
            "object has no attribute")


def rejected(cfg, path):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg)
    msg = str(exc.value)
    assert path in msg, (path, msg)
    assert not any(s in msg for s in INTERNAL), msg


def test_base_and_every_kind_load(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    np.save("u0.npy", np.zeros(SPATIAL))
    for section in LEVELS:
        config_from_dict(located(section)[0])


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_schema_rejects_unknown_keys_and_wrong_types(data):
    # every key of the table gets a value of each wrong JSON type, and
    # every object an unknown key; each ends in a ConfigError naming the
    # path, before a solve could start
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wied, "sweep_epsilon", no_solve)
        mp.setattr(parabolic, "solve_parabolic", no_solve)
        for row in SCHEMA:
            for wrong in WRONG_FOR[row.type]:
                if wrong == "null" and row.default is None:
                    continue        # null is that key's default
                value = data.draw(WRONG[wrong], label=f"{row.section}."
                                  f"{row.name} {wrong}")
                cfg, path = placed(row.section, row.name, value)
                if row.type == "list of objects" and wrong.startswith("list"):
                    path = "diagnostics[0]"
                rejected(cfg, path)
        for section in LEVELS:
            rows = {r.name for r in SCHEMA if r.section in (
                section, _section_kind(section)[0])}
            key = data.draw(st.text(min_size=1, max_size=8).filter(
                lambda k: k not in rows), label=f"{section} unknown")
            cfg, path = placed(section, key, 1)
            rejected(cfg, f"{path}: unknown key")


def test_library_defaults_equal_the_schema_defaults():
    # the dataclasses and the combustion kinds keep defaults of their
    # own for callers that build them directly; they equal the table's
    for section, cls in (("grid", GridSpec), ("schedule", EpsilonSchedule),
                         ("wied", WiedConfig)):
        for f in dataclasses.fields(cls):
            # WiedConfig.eps is no key: a level takes the schedule's eps
            if f.default is not dataclasses.MISSING and f.name != "eps":
                assert f.default == SECTIONS[section][f.name].default, f
    vs = np.linspace(-0.5, 1.5, 401)
    for kind in KINDS["model.params"]:
        rows = SECTIONS.get(f"model.params ({kind})", {})
        given = {k: r.default for k, r in rows.items()
                 if r.default is not REQUIRED}
        if len(given) == len(rows):
            assert np.array_equal(
                beta_eval(validate_model(CombustionModel(kind, given)), vs),
                beta_eval(validate_model(CombustionModel(kind)), vs)), kind


def _readme_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Configs\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["section", "key", "JSON type", "range", "default"]
    return rows[2:]


def test_readme_config_table_lists_the_schema():
    special = {"required": REQUIRED, "T/2": HALF_T}
    listed = [(s if s != "top level" else "", k, t, r,
               special[d] if d in special else json.loads(d))
              for s, k, t, r, d in _readme_table()]
    assert listed == [(row.section, row.name, row.type,
                       row.range[0] if row.range else "", row.default)
                      for row in SCHEMA]
