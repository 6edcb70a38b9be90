"""Experiment configuration: the JSON schema, its walk, initial data.

SCHEMA declares each config key once; config_from_dict walks the JSON
against it before anything is built, and validate checks what spans keys."""

from __future__ import annotations

import copy
import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import registry
from .combustion import CombustionModel, validate_model
from .grid import GridSpec, WeightedGrid, build_grid
from .wied import EpsilonSchedule, WiedConfig, check_horizon


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _finite(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)      # no nan, inf or huge int


def _finites(v) -> bool:
    return isinstance(v, list) and all(map(_finite, v))


# JSON type -> (what its values are, test)
TYPES = {
    "number": ("a finite number", _finite),
    "integer": ("an integer", lambda v: isinstance(v, numbers.Integral)
                and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "list of numbers": ("a list of finite numbers", _finites),
    "point": ("a cylinder center, a list of finite numbers", _finites),
    "list of points": ("a list of cylinder centers", lambda v:
                       isinstance(v, list) and all(map(_finites, v))),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "list of objects": ("a list of JSON objects",   # entries walked
                        lambda v: isinstance(v, list)),
}


# ranges: (text, test)
def _ge(lo):
    return f">= {lo:g}", lambda v: v >= lo


def _one_of(*vals):
    return "in {" + ", ".join(map(repr, vals)) + "}", lambda v: v in vals


REQUIRED, HALF_T = "required", "T/2"   # no default; half the grid's T


class Key(NamedTuple):
    """One row of the schema; a key whose default is None takes null."""
    section: str
    name: str
    type: str
    range: tuple | None = None
    default: object = REQUIRED

    def check(self, v, label: str):
        """v, or ConfigError "<label> must be <type> <range>, got <v>"."""
        need, ok = TYPES[self.type]
        if (v is not None or self.default is not None) and not (
                ok(v) and (self.range is None or self.range[1](v))):
            rng = f" {self.range[0]}" if self.range else ""
            raise ConfigError(f"{label} must be {need}{rng}, got {v!r}")
        return v


_POS = ("> 0", lambda v: v > 0)
_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)

# A section "<base> (<kind>)" holds the keys of one kind: an initial
# data kind, a model kind's params or a diagnostic's options.
SCHEMA = tuple(Key(*row) for row in (
    ("", "grid", "object"),
    ("", "model", "object", None, {}),
    ("", "initial", "object", None, {}),
    ("", "schedule", "object", None, {}),
    ("", "wied", "object", None, {}),
    ("", "forcing_exponents", "object", None, {}),
    ("", "diagnostics", "list of objects", None, []),
    ("", "output", "string", None, "runs/out"),
    ("", "seed", "integer", None, 0),
    ("", "strict_support", "bool", None, False),
    ("grid", "d", "integer", _one_of(1, 2)),
    ("grid", "a", "number", ("in (-1, 1)", lambda v: -1 < v < 1)),
    ("grid", "L", "number", _POS),
    ("grid", "Y", "number", _POS),
    ("grid", "T", "number", _POS),
    ("grid", "nx", "integer", _ge(2)),
    ("grid", "ny", "integer", _ge(2)),
    ("grid", "nt", "integer", _ge(2)),
    ("grid", "grading", "number", _ge(1), None),
    ("schedule", "eps0", "number", _UNIT, 0.1),
    ("schedule", "ratio", "number", _UNIT, 0.5),
    ("schedule", "count", "integer", _ge(1), 1),
    ("wied", "outer_tol", "number", _POS, 1e-9),
    ("wied", "inner_tol", "number", _POS, 1e-11),
    ("forcing_exponents", "p", "number", None, 3.0),
    ("forcing_exponents", "q", "number", None, 4.0),
    ("model", "kind", "string", _one_of("zero", "polynomial-bump",
                                        "piecewise-linear-hat",
                                        "custom-table"), "zero"),
    ("model", "params", "object", None, {}),
    ("model.params (polynomial-bump)", "m", "number", _ge(0), 1.0),
    ("model.params (polynomial-bump)", "n", "number", _ge(0), 1.0),
    ("model.params (piecewise-linear-hat)", "peak", "number", _UNIT, 0.5),
    ("model.params (custom-table)", "v", "list of numbers"),
    ("model.params (custom-table)", "beta", "list of numbers"),
    ("initial", "kind", "string", _one_of("gaussian", "plateau",
                                          "from-file"), "plateau"),
    ("initial (gaussian)", "width", "number", _POS, 0.1),
    ("initial (gaussian)", "height", "number", None, 1.0),
    ("initial (plateau)", "radius", "number", _POS, 0.5),
    ("initial (plateau)", "height", "number", None, 1.0),
    ("initial (plateau)", "axis", "string", _one_of("radial", "trace"),
     "radial"),
    ("initial (from-file)", "path", "string"),
    ("diagnostics", "name", "string", _one_of(*registry.DIAGNOSTICS)),
    ("diagnostics (uniform-bounds)", "factor", "number", _POS, 4.0),
    ("diagnostics (linf-l2)", "center", "point"),
    ("diagnostics (linf-l2)", "radius", "number", _POS),
    ("diagnostics (no-spikes)", "center", "point"),
    ("diagnostics (no-spikes)", "radius", "number", _POS),
    ("diagnostics (no-spikes)", "delta", "number", _POS, 0.5),
    ("diagnostics (level-sets)", "center", "point"),
    ("diagnostics (level-sets)", "radius", "number", _POS),
    ("diagnostics (holder)", "centers", "list of points", None, []),
    ("diagnostics (holder)", "levels", "integer", _ge(3), 3),
    ("diagnostics (embedding)", "layer_time", "number", _ge(0), HALF_T),
    ("diagnostics (embedding)", "radius", "number", _POS, 1.0),
    ("diagnostics (isoperimetric)", "layer_time", "number", _ge(0), HALF_T),
    ("diagnostics (isoperimetric)", "radius", "number", _POS, 1.0),
    ("diagnostics (isoperimetric)", "p", "number",
     ("in (1, 2)", lambda v: 1 < v < 2), 1.5),
))

SECTIONS: dict[str, dict[str, Key]] = {}
for _key in SCHEMA:
    SECTIONS.setdefault(_key.section, {})[_key.name] = _key

# sections whose objects carry their kind in this key
_KIND_KEY = {"initial": "kind", "diagnostics": "name"}


def defaults(section: str, T: float | None = None) -> dict:
    """The defaults of the section's keys that have one, HALF_T as T/2."""
    return {k: T / 2.0 if r.default is HALF_T else copy.copy(r.default)
            for k, r in SECTIONS.get(section, {}).items()
            if r.default is not REQUIRED}


def walk(obj, where: str, section: str, T: float | None = None) -> dict:
    """obj checked against the rows of section and of obj's kind: each
    key known, of its type and in its range, each required key given.
    Returns obj with the defaults of the keys it omits filled in."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    sections = [section]
    kind = SECTIONS.get(section, {}).get(_KIND_KEY.get(section))
    if kind and kind.name not in obj and kind.default is REQUIRED:
        raise ConfigError(f"{where} {kind.name!r}: missing")
    if kind:
        given = kind.check(obj.get(kind.name, kind.default),
                           f"{where} {kind.name!r}")
        sections.append(f"{section} ({given})")
    rows = {k: r for s in sections for k, r in SECTIONS.get(s, {}).items()}
    out = {k: v for s in sections for k, v in defaults(s, T).items()}
    for key, v in obj.items():
        if key not in rows:
            raise ConfigError(f"{where} {key!r}: unknown key")
        out[key] = rows[key].check(v, f"{where} {key!r}")
    missing = [k for k in rows if k not in out]
    if missing:
        raise ConfigError(f"{where} {missing[0]!r}: missing")
    return out


@dataclass
class InitialData:
    kind: str                 # gaussian | plateau | from-file
    params: dict = field(default_factory=dict)

    def evaluate(self, grid: WeightedGrid) -> np.ndarray:
        p = {**defaults(f"initial ({self.kind})"), **self.params}
        if self.kind == "gaussian":
            w, h = float(p["width"]), float(p["height"])
            U0 = grid.eval_spatial(
                lambda *xy: h * np.exp(-(sum(v**2 for v in xy)) / (4.0 * w)))
        elif self.kind == "plateau":
            r0, h = float(p["radius"]), float(p["height"])
            if p["axis"] == "radial":
                U0 = grid.eval_spatial(
                    lambda *xy: h * np.clip(
                        1.0 - sum(v**2 for v in xy) / r0**2, 0.0, None) ** 2)
            else:
                # supported in x only, constant in the extension variable
                U0 = grid.eval_spatial(
                    lambda *xy: h * np.clip(
                        1.0 - sum(v**2 for v in xy[:-1]) / r0**2,
                        0.0, None) ** 2 + 0.0 * xy[-1])
        else:
            path = Path(p["path"])
            if not path.exists():
                raise ConfigError(f"initial data file not found: {path}")
            U0 = np.load(path)
            if U0.shape != grid.spatial_shape:
                raise ConfigError(
                    f"initial field shape {U0.shape} != grid "
                    f"{grid.spatial_shape}")
        U0 = np.asarray(U0, dtype=float).ravel()
        if not np.all(np.isfinite(U0)):
            raise ConfigError(
                f"initial data {self.kind!r} has non-finite values")
        return U0


@dataclass
class DiagnosticRequest:
    name: str
    options: dict = field(default_factory=dict)   # every option, defaults too


@dataclass
class ExperimentConfig:
    grid: GridSpec
    model: CombustionModel
    initial: InitialData
    schedule: EpsilonSchedule
    wied: WiedConfig
    diagnostics: list
    output: str
    seed: int
    strict_support: bool
    forcing_exponents: tuple

    def validate(self) -> "ExperimentConfig":
        """Check what depends on more than one key before any compute,
        and raise ConfigError on the first problem."""
        try:
            check_horizon(self.schedule.eps0, self.grid.T)
            grid = build_grid(self.grid)
            U0 = self.initial.evaluate(grid).reshape(grid.spatial_shape)
            # strict support: the initial trace vanishes on the lateral
            # boundary (a finite ignition region inside the truncated box)
            edge = np.ones(U0.shape[1:], dtype=bool)
            edge[(slice(1, -1),) * grid.d] = False
            if self.strict_support and np.any(U0[0][edge] > 0.0):
                raise ConfigError(
                    "strict-support: initial trace is positive on the lateral "
                    "boundary; shrink the support or enlarge L")
        except ValueError as exc:   # GridError and ConfigError included
            raise ConfigError(str(exc)) from exc
        except ArithmeticError as exc:
            raise ConfigError(f"a value is out of numeric range: {exc}") \
                from exc
        for req in self.diagnostics:
            try:
                registry.DIAGNOSTICS[req.name].check(req.options, grid, self)
            except ValueError as exc:   # GridError included
                raise ConfigError(f"diagnostic {req.name!r}: {exc}") from exc
        return self


def _no_constant(name):
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(), parse_constant=_no_constant)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_from_dict(data) -> ExperimentConfig:
    """The config of parsed JSON, walked against SCHEMA and validated."""
    top = walk(data, "config", "")
    grid = GridSpec(**walk(top["grid"], "grid", "grid"))
    model = walk(top["model"], "model", "model")
    walk(model["params"], "model.params", f"model.params ({model['kind']})")
    init = walk(top["initial"], "initial", "initial")
    sched, wcfg, fexp = (walk(top[s], s, s) for s in (
        "schedule", "wied", "forcing_exponents"))
    diags = [walk(d, f"diagnostics[{i}]", "diagnostics", grid.T)
             for i, d in enumerate(top["diagnostics"])]
    try:
        cfg = ExperimentConfig(
            grid=grid,
            model=validate_model(CombustionModel(
                kind=model["kind"], params=dict(model["params"]))),
            initial=InitialData(kind=init["kind"], params={
                k: v for k, v in top["initial"].items() if k != "kind"}),
            schedule=EpsilonSchedule(**sched),
            wied=WiedConfig(eps=sched["eps0"], **wcfg),
            diagnostics=[DiagnosticRequest(d.pop("name"), d) for d in diags],
            output=top["output"], seed=top["seed"],
            strict_support=top["strict_support"],
            forcing_exponents=(float(fexp["p"]), float(fexp["q"])))
    except ValueError as exc:   # ModelError and a schedule leaving (0, 1)
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
