"""Truncated, y-graded space-time meshes with exact |y|^a quadrature.

The extension variable y carries the Muckenhoupt weight y^a, a in (-1, 1).
All weighted y-integrals are computed from the closed-form cell masses

    m_j = (y_{j+1}^{1+a} - y_j^{1+a}) / (1 + a),

and weighted fluxes from the harmonic face transmissibilities

    tau_{j+1/2} = (1 - a) / (y_{j+1}^{1-a} - y_j^{1-a}),

which are exact for steady weighted flux y^a dU/dy = const.  x and t are
uniform.  Grids are immutable after construction and cheap enough to
rebuild from their spec, which is the only thing ever serialized.

A parabolic cylinder's nodes form an index box of the tensor grid, one
slice per axis; every cylinder-restricted measure, norm and energy sums
the nodal weights of that box (restrict).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, asdict

import numpy as np


class GridError(ValueError):
    """Invalid grid specification or region."""


def default_grading(a: float) -> float:
    """Grading exponent that equidistributes weighted mass near y = 0."""
    return 2.0 / (1.0 + a)


@dataclass(frozen=True)
class GridSpec:
    """Spec for a truncated tensor-product space-time mesh.

    Parameters
    ----------
    d : spatial dimension of x (1 or 2)
    a : weight exponent, must lie in (-1, 1)
    L : half-width of the x box, domain is [-L, L]^d
    Y : extension height, y in [0, Y]
    T : time horizon, t in [0, T]
    nx, ny, nt : cell counts per axis (>= 2 each)
    grading : exponent g >= 1 for y-node placement y_j = Y (j/ny)^g;
        None selects the weight-adapted default 2/(1+a).
    """

    d: int
    a: float
    L: float
    Y: float
    T: float
    nx: int
    ny: int
    nt: int
    grading: float | None = None

    @property
    def g(self) -> float:
        return default_grading(self.a) if self.grading is None else float(self.grading)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WeightedGrid:
    """Mesh plus exact weighted measures.  Treat as immutable."""

    spec: GridSpec
    x: np.ndarray            # (nx+1,) x nodes, shared by all x axes
    y: np.ndarray            # (ny+1,) graded y nodes, y[0] = 0, y[-1] = Y
    t: np.ndarray            # (nt+1,) uniform time nodes
    cell_mass_y: np.ndarray  # (ny,) weighted cell masses m_j
    face_trans_y: np.ndarray  # (ny,) transmissibilities between y-node j and j+1
    hx: float
    dt: float
    xvol: np.ndarray         # (nx+1,) nodal dual lengths in x
    yvol: np.ndarray         # (ny+1,) nodal dual weighted lengths in y
    tvol: np.ndarray         # (nt+1,) nodal dual lengths in t

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def a(self) -> float:
        return self.spec.a

    @property
    def spatial_shape(self) -> tuple:
        return (self.spec.ny + 1,) + (self.spec.nx + 1,) * self.spec.d

    @property
    def spacetime_shape(self) -> tuple:
        return (self.spec.nt + 1,) + self.spatial_shape

    @property
    def n_spatial(self) -> int:
        return int(np.prod(self.spatial_shape))

    @property
    def xmass(self) -> np.ndarray:
        """Dual-cell x volumes on the trace layer, flattened."""
        if self.spec.d == 1:
            return self.xvol
        return np.multiply.outer(self.xvol, self.xvol).ravel()

    @property
    def node_mass(self) -> np.ndarray:
        """Spatial nodal |y|^a masses (one-sided in y), flattened y-major."""
        return np.multiply.outer(self.yvol, self.xmass).ravel()

    def coords(self):
        """Open-mesh spatial coordinate arrays (y, x1[, x2])."""
        ax = [self.y] + [self.x] * self.spec.d
        return np.meshgrid(*ax, indexing="ij", sparse=True)

    def eval_spatial(self, fn) -> np.ndarray:
        """Evaluate fn(x..., y) on spatial nodes; fn takes (*x, y)."""
        mesh = self.coords()
        y = mesh[0]
        xs = mesh[1:]
        return np.asarray(fn(*xs, y) + np.zeros(self.spatial_shape))


def build_grid(spec: GridSpec) -> WeightedGrid:
    """Build the weighted mesh; node coordinates are bit-exact from spec.

    Raises GridError before allocating anything when one space-time field
    of the grid, 8 (nt+1)(ny+1)(nx+1)^d bytes, exceeds physical memory.
    """
    field_bytes = 8 * math.prod(
        (spec.nt + 1, spec.ny + 1) + (spec.nx + 1,) * spec.d)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if field_bytes > memory:
        raise GridError(
            f"one space-time field of this grid takes {field_bytes} bytes, "
            f"more than the {memory} bytes of physical memory")
    a, g = spec.a, spec.g
    x = np.linspace(-spec.L, spec.L, spec.nx + 1)
    j = np.arange(spec.ny + 1, dtype=float)
    y = spec.Y * (j / spec.ny) ** g
    t = np.linspace(0.0, spec.T, spec.nt + 1)

    if not np.all(np.diff(y) > 0.0):
        raise GridError("y nodes are not strictly increasing (check grading)")

    yp1a = y ** (1.0 + a)
    cell_mass_y = np.diff(yp1a) / (1.0 + a)
    y1ma = y ** (1.0 - a)
    face_trans_y = (1.0 - a) / np.diff(y1ma)

    hx = (x[-1] - x[0]) / spec.nx
    dt = (t[-1] - t[0]) / spec.nt

    xvol = np.full(spec.nx + 1, hx)
    xvol[[0, -1]] = hx / 2.0
    tvol = np.full(spec.nt + 1, dt)
    tvol[[0, -1]] = dt / 2.0
    yvol = np.zeros(spec.ny + 1)
    yvol[:-1] += cell_mass_y / 2.0
    yvol[1:] += cell_mass_y / 2.0

    grid = WeightedGrid(
        spec=spec, x=x, y=y, t=t,
        cell_mass_y=cell_mass_y, face_trans_y=face_trans_y,
        hx=hx, dt=dt, xvol=xvol, yvol=yvol, tvol=tvol,
    )

    total = spec.Y ** (1.0 + a) / (1.0 + a)
    if abs(cell_mass_y.sum() - total) > 1e-12 * total:
        raise GridError("weighted y quadrature lost telescoping exactness")
    if not (np.all(cell_mass_y > 0) and np.all(np.isfinite(face_trans_y))
            and np.all(face_trans_y > 0)):
        raise GridError("degenerate weighted cell mass or transmissibility")
    return grid


@dataclass(frozen=True)
class Cylinder:
    """Parabolic cylinder, realized as the axis-aligned box

        |x_k - cx_k| <= r,  |y - cy| <= r (intersected with y >= 0),
        |t - ct| <= r^2.

    center is (*x, y, t); nodes inside the box belong to the cylinder.
    The node coordinates are monotone on each axis, so these nodes form
    an index box of the grid (see box).
    """

    center: tuple
    radius: float

    def _parts(self, d: int):
        c = tuple(float(v) for v in self.center)
        if len(c) != d + 2:
            raise GridError(
                f"cylinder center must have {d + 2} entries (*x, y, t), got {len(c)}"
            )
        return c[:d], c[d], c[d + 1]

    def fits(self, grid: WeightedGrid, time: bool = True) -> bool:
        """Whether the box lies in [-L, L]^d x [0, Y] x [0, T] (1e-12
        slack); with time False only its spatial part is checked."""
        cx, cy, ct = self._parts(grid.d)
        r = self.radius
        sp = grid.spec
        ok_x = all(abs(v) + r <= sp.L + 1e-12 for v in cx)
        ok_y = (cy + r) <= sp.Y + 1e-12 and cy >= -1e-12
        ok_t = (ct - r * r) >= -1e-12 and (ct + r * r) <= sp.T + 1e-12
        return ok_x and ok_y and (ok_t or not time)

    def require_fits(self, grid: WeightedGrid):
        if not self.fits(grid):
            raise GridError(
                f"cylinder (center={self.center}, r={self.radius}) "
                "does not fit inside the grid"
            )

    def box(self, grid: WeightedGrid) -> tuple:
        """Node index box, one slice per axis in the order (t, y, x[, x]).

        Each slice runs from the first to the last node with
        |coord - c| <= h + 1e-14 (h = r^2 in t, r otherwise); a window
        that holds no node gives an empty slice.  The spatial box is
        box[1:].
        """
        cx, cy, ct = self._parts(grid.d)
        r = self.radius
        windows = [(grid.t, ct, r**2), (grid.y, cy, r)]
        windows += [(grid.x, c, r) for c in cx]
        out = []
        for coord, c, h in windows:
            idx = np.flatnonzero(np.abs(coord - c) <= h + 1e-14)
            out.append(slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0))
        return tuple(out)


def restrict(grid: WeightedGrid, field: np.ndarray,
             region: Cylinder | None = None):
    """(values, weights) of a spatial or space-time field on the index box
    of region (every node without one).

    The weights are the nodal |y|^a masses, times each node's dual time
    length for a space-time field.  The caller checks that region fits.
    """
    if field.shape == grid.spatial_shape:
        skip = 1
    elif field.shape == grid.spacetime_shape:
        skip = 0
    else:
        raise GridError(
            f"field shape {field.shape} matches neither spatial "
            f"{grid.spatial_shape} nor space-time {grid.spacetime_shape}"
        )
    box = (tuple(slice(0, n) for n in grid.spacetime_shape) if region is None
           else region.box(grid))[skip:]
    w = grid.node_mass.reshape(grid.spatial_shape)[box[-(grid.d + 1):]]
    if skip == 0:
        w = np.multiply.outer(grid.tvol[box[0]], w)
    return field[box], w


def weighted_measure(grid: WeightedGrid, flags: np.ndarray,
                     region: Cylinder | None = None) -> float:
    """|A|_a of the flagged node set: sum of nodal dual masses.

    flags may be spatial (measure in d+1 space dims) or space-time
    (then each node also carries its dual time length).  With a region,
    the sum runs over the region's index box.
    """
    if region is not None:
        region.require_fits(grid)
    f, w = restrict(grid, np.asarray(flags), region)
    return float(np.sum(w * f))


def _grad_energy_spatial(grid: WeightedGrid, U: np.ndarray,
                         box: tuple) -> float:
    """Discrete int |y|^a |grad U|^2 over the edges inside a spatial box.

    Uses the same transmissibilities / dual volumes as the assembled
    stiffness operator; box is one slice per axis (y, x[, x]) with
    explicit start and stop, and an edge counts when both of its
    endpoints lie in the box.
    """
    Ub = U.reshape(grid.spatial_shape)[box]
    xsec = grid.xmass.reshape(grid.spatial_shape[1:])[box[1:]]
    total = 0.0
    # y edges: coefficient tau_j times the x cross-section volume
    dy = np.diff(Ub, axis=0)
    j0 = box[0].start
    coef = np.multiply.outer(grid.face_trans_y[j0:j0 + dy.shape[0]], xsec)
    total += float(np.sum(coef * dy * dy))
    # x edges per axis: (yvol x cross)/hx
    for k in range(grid.d):
        ax = 1 + k
        dx = np.diff(Ub, axis=ax)
        shape = [1] * (grid.d + 1)
        shape[0] = -1
        coef = grid.yvol[box[0]].reshape(shape) / grid.hx
        if grid.d == 2:
            other = 1 + (1 - k)
            oshape = [1] * (grid.d + 1)
            oshape[other] = -1
            coef = coef * grid.xvol[box[other]].reshape(oshape)
        total += float(np.sum(coef * dx * dx))
    return total


def weighted_norm(grid: WeightedGrid, field: np.ndarray, norm: str,
                  p: float = 2.0, q: float = 2.0,
                  region: Cylinder | None = None) -> float:
    """Discrete weighted norms, over the region's index box if given.

    norm is one of
      'L2a'            weighted L^2 over the (space-time or spatial) field
      'Lpa'            weighted L^p, exponent p
      'LinfT_Lq_trace' sup over time layers of the plain L^q norm of a
                       trace field (shape (nt+1, trace...)); a region
                       restricts t and x, and a region without a time
                       node gives 0
    """
    field = np.asarray(field, dtype=float)
    if region is not None:
        region.require_fits(grid)

    if norm in ("L2a", "Lpa"):
        ex = 2.0 if norm == "L2a" else float(p)
        f, w = restrict(grid, field, region)
        return float(np.sum(w * np.abs(f) ** ex) ** (1.0 / ex))

    if norm == "LinfT_Lq_trace":
        trace_shape = (grid.spec.nt + 1,) + (grid.spec.nx + 1,) * grid.d
        if field.shape != trace_shape:
            raise GridError(
                f"trace field shape {field.shape} != expected {trace_shape}"
            )
        qq = float(q)
        box = (slice(None),) * (grid.d + 1)
        if region is not None:
            tb, _, *xb = region.box(grid)
            box = (tb, *xb)
        w = grid.xmass.reshape(trace_shape[1:])[box[1:]].ravel()
        # a C-ordered copy, so the row sums do not depend on memory order
        lay = np.ascontiguousarray(field[box])
        lay = lay.reshape(lay.shape[0], w.size)
        vals = np.sum(w * np.abs(lay) ** qq, axis=1) ** (1.0 / qq)
        return float(np.max(vals)) if vals.size else 0.0

    raise GridError(f"unknown norm tag {norm!r}")
