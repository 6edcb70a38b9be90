"""Experiment configuration: JSON schema, validation, initial data."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import registry
from .combustion import CombustionModel, model_from_dict
from .grid import GridSpec, WeightedGrid, build_grid
from .parabolic import ParabolicConfig, check_time_step
from .wied import EpsilonSchedule, WiedConfig, check_horizon


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class InitialData:
    kind: str                 # gaussian | plateau | from-file
    params: dict = field(default_factory=dict)

    def evaluate(self, grid: WeightedGrid) -> np.ndarray:
        if self.kind == "gaussian":
            w = float(self.params.get("width", 0.1))
            h = float(self.params.get("height", 1.0))
            if w <= 0:
                raise ConfigError("gaussian width must be positive")
            U0 = grid.eval_spatial(
                lambda *xy: h * np.exp(-(sum(v**2 for v in xy)) / (4.0 * w)))
        elif self.kind == "plateau":
            r0 = float(self.params.get("radius", 0.5))
            h = float(self.params.get("height", 1.0))
            axis = self.params.get("axis", "radial")
            if r0 <= 0:
                raise ConfigError("plateau radius must be positive")
            if axis == "radial":
                U0 = grid.eval_spatial(
                    lambda *xy: h * np.clip(
                        1.0 - sum(v**2 for v in xy) / r0**2, 0.0, None) ** 2)
            elif axis == "trace":
                # supported in x only, constant in the extension variable
                U0 = grid.eval_spatial(
                    lambda *xy: h * np.clip(
                        1.0 - sum(v**2 for v in xy[:-1]) / r0**2,
                        0.0, None) ** 2 + 0.0 * xy[-1])
            else:
                raise ConfigError(f"unknown plateau axis {axis!r}")
        elif self.kind == "from-file":
            if "path" not in self.params:
                raise ConfigError("initial data 'from-file' needs a 'path'")
            path = Path(self.params["path"])
            if not path.exists():
                raise ConfigError(f"initial data file not found: {path}")
            U0 = np.load(path)
            if U0.shape != grid.spatial_shape:
                raise ConfigError(
                    f"initial field shape {U0.shape} != grid "
                    f"{grid.spatial_shape}")
        else:
            raise ConfigError(f"unknown initial data kind {self.kind!r}")
        U0 = np.asarray(U0, dtype=float).ravel()
        if not np.all(np.isfinite(U0)):
            raise ConfigError(
                f"initial data {self.kind!r} has non-finite values")
        return U0

    def check_strict_support(self, grid: WeightedGrid):
        """Initial trace must vanish near the lateral boundary (finite
        ignition region, strictly inside the truncated box)."""
        U0 = self.evaluate(grid).reshape(grid.spatial_shape)
        u0 = U0[0]
        edge = np.zeros(u0.shape, dtype=bool)
        for k in range(grid.d):
            sl = [slice(None)] * grid.d
            for j in (0, -1):
                sl[k] = j
                edge[tuple(sl)] = True
        if np.any(u0[edge] > 0.0):
            raise ConfigError(
                "strict-support: initial trace is positive on the lateral "
                "boundary; shrink the support or enlarge L")


@dataclass
class DiagnosticRequest:
    name: str
    options: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    grid: GridSpec
    model: CombustionModel
    initial: InitialData
    schedule: EpsilonSchedule
    wied: WiedConfig
    parabolic: ParabolicConfig
    diagnostics: list
    output: str = "runs/out"
    seed: int = 0
    strict_support: bool = False
    forcing_exponents: tuple = (3.0, 4.0)

    def validate(self) -> "ExperimentConfig":
        """Check everything that can be checked before any compute, and
        raise ConfigError on the first problem."""
        try:
            self._validate()
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:   # GridError included
            raise ConfigError(str(exc)) from exc
        except ArithmeticError as exc:
            raise ConfigError(f"a value is out of numeric range: {exc}") \
                from exc
        return self

    def _validate(self):
        if not isinstance(self.output, str):
            raise ConfigError(f"output must be a path string, "
                              f"got {self.output!r}")
        check_horizon(self.schedule.eps0, self.grid.T)
        grid = build_grid(self.grid)
        check_time_step(self.parabolic, grid)
        if self.strict_support:
            self.initial.check_strict_support(grid)
        else:
            self.initial.evaluate(grid)
        for req in self.diagnostics:
            try:
                registry.check(req.name, req.options, grid, self)
            except (TypeError, ValueError) as exc:   # GridError included
                raise ConfigError(f"diagnostic {req.name!r}: {exc}") from exc


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


def _section(data: dict, key: str, default) -> dict:
    sec = data.get(key, default)
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, "
                          f"got {sec!r}")
    return sec


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    try:
        grid = GridSpec.from_dict(_section(data, "grid", None))
        model = model_from_dict(_section(data, "model", {"kind": "zero"}))
        init = _section(data, "initial", {"kind": "plateau"})
        initial = InitialData(kind=init.get("kind", "plateau"),
                              params={k: v for k, v in init.items()
                                      if k != "kind"})
        schedule = EpsilonSchedule(**_section(
            data, "schedule", {"eps0": 0.1, "ratio": 0.5, "count": 1}))
        wied = WiedConfig(eps=schedule.eps0, **_section(data, "wied", {}))
        parab = ParabolicConfig(**_section(data, "parabolic", {}))
        diags = [DiagnosticRequest(name=d["name"],
                                   options={k: v for k, v in d.items()
                                            if k != "name"})
                 for d in data.get("diagnostics", [])]
        fexp = data.get("forcing_exponents", {"p": 3.0, "q": 4.0})
        cfg = ExperimentConfig(
            grid=grid, model=model, initial=initial, schedule=schedule,
            wied=wied, parabolic=parab, diagnostics=diags,
            output=data.get("output", "runs/out"),
            seed=int(data.get("seed", 0)),
            strict_support=bool(data.get("strict_support", False)),
            forcing_exponents=(float(fexp["p"]), float(fexp["q"])),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # GridError and ModelError are ValueErrors
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
