"""Truncated, y-graded space-time meshes with exact |y|^a quadrature.

The extension variable y carries the Muckenhoupt weight y^a, a in (-1, 1).
All weighted y-integrals are computed from the closed-form cell masses

    m_j = (y_{j+1}^{1+a} - y_j^{1+a}) / (1 + a),

and weighted fluxes from the harmonic face transmissibilities

    tau_{j+1/2} = (1 - a) / (y_{j+1}^{1-a} - y_j^{1-a}),

which are exact for steady weighted flux y^a dU/dy = const.  x and t are
uniform.  Grids are immutable after construction and cheap enough to
rebuild from their spec, which is the only thing ever serialized.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if self.d not in (1, 2):
            raise GridError(f"spatial dimension d must be 1 or 2, got {self.d}")
        if not -1.0 < self.a < 1.0:
            raise GridError(
                f"weight exponent a must lie strictly in (-1, 1), got {self.a}"
            )
        for name in ("L", "Y", "T"):
            if not getattr(self, name) > 0.0:
                raise GridError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("nx", "ny", "nt"):
            n = getattr(self, name)
            if not (isinstance(n, (int, np.integer)) and n >= 2):
                raise GridError(f"{name} must be an integer >= 2, got {n}")
        if self.grading is not None and not self.grading >= 1.0:
            raise GridError(f"grading must be >= 1, got {self.grading}")

    @property
    def g(self) -> float:
        return default_grading(self.a) if self.grading is None else float(self.grading)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "GridSpec":
        known = {f: data[f] for f in GridSpec.__dataclass_fields__ if f in data}
        extra = set(data) - set(known)
        if extra:
            raise GridError(f"unknown GridSpec fields: {sorted(extra)}")
        return GridSpec(**known)


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
    """Build the weighted mesh; node coordinates are bit-exact from spec."""
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
    """

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GridError(f"cylinder radius must be positive, got {self.radius}")

    def _parts(self, d: int):
        c = tuple(float(v) for v in self.center)
        if len(c) != d + 2:
            raise GridError(
                f"cylinder center must have {d + 2} entries (*x, y, t), got {len(c)}"
            )
        return c[:d], c[d], c[d + 1]

    def fits(self, grid: WeightedGrid) -> bool:
        cx, cy, ct = self._parts(grid.d)
        r = self.radius
        sp = grid.spec
        ok_x = all(abs(v) + r <= sp.L + 1e-12 for v in cx)
        ok_y = (cy + r) <= sp.Y + 1e-12 and cy >= -1e-12
        ok_t = (ct - r * r) >= -1e-12 and (ct + r * r) <= sp.T + 1e-12
        return ok_x and ok_y and ok_t

    def require_fits(self, grid: WeightedGrid):
        if not self.fits(grid):
            raise GridError(
                f"cylinder (center={self.center}, r={self.radius}) "
                "does not fit inside the grid"
            )

    def spatial_mask(self, grid: WeightedGrid) -> np.ndarray:
        cx, cy, _ = self._parts(grid.d)
        r = self.radius
        my = np.abs(grid.y - cy) <= r + 1e-14
        mask = my.reshape((-1,) + (1,) * grid.d)
        for k in range(grid.d):
            mx = np.abs(grid.x - cx[k]) <= r + 1e-14
            shape = [1] * (grid.d + 1)
            shape[1 + k] = -1
            mask = mask & mx.reshape(shape)
        return np.broadcast_to(mask, grid.spatial_shape).copy()

    def time_mask(self, grid: WeightedGrid) -> np.ndarray:
        _, _, ct = self._parts(grid.d)
        return np.abs(grid.t - ct) <= self.radius**2 + 1e-14

    def mask(self, grid: WeightedGrid) -> np.ndarray:
        """Space-time node membership, shape grid.spacetime_shape."""
        ms = self.spatial_mask(grid)
        mt = self.time_mask(grid)
        return mt.reshape((-1,) + (1,) * (grid.d + 1)) & ms[None, ...]


def weighted_measure(grid: WeightedGrid, flags: np.ndarray,
                     region: Cylinder | None = None) -> float:
    """|A|_a of the flagged node set: sum of nodal dual masses.

    flags may be spatial (measure in d+1 space dims) or space-time
    (then each node also carries its dual time length).
    """
    flags = np.asarray(flags)
    if flags.shape == grid.spatial_shape:
        w = grid.node_mass.reshape(grid.spatial_shape)
        if region is not None:
            region.require_fits(grid)
            flags = flags & region.spatial_mask(grid)
        return float(np.sum(w * flags))
    if flags.shape == grid.spacetime_shape:
        w = np.multiply.outer(
            grid.tvol, grid.node_mass.reshape(grid.spatial_shape)
        )
        if region is not None:
            region.require_fits(grid)
            flags = flags & region.mask(grid)
        return float(np.sum(w * flags))
    raise GridError(
        f"flags shape {flags.shape} matches neither spatial {grid.spatial_shape} "
        f"nor space-time {grid.spacetime_shape}"
    )


def _grad_energy_spatial(grid: WeightedGrid, U: np.ndarray,
                         mask: np.ndarray | None = None) -> float:
    """Discrete int |y|^a |grad U|^2 of a spatial slice by edge sums.

    Uses the same transmissibilities / dual volumes as the assembled
    stiffness operator; with mask, only edges with both endpoints
    flagged contribute.
    """
    U = U.reshape(grid.spatial_shape)
    tau = grid.face_trans_y
    total = 0.0
    # y edges: coefficient tau_j times the x cross-section volume
    dy = np.diff(U, axis=0)
    xsec = grid.xmass.reshape(grid.spatial_shape[1:])
    coef = np.multiply.outer(tau, xsec)
    act = 1.0 if mask is None else (mask[1:] & mask[:-1])
    total += float(np.sum(coef * dy * dy * act))
    # x edges per axis: (yvol x cross)/hx
    for k in range(grid.d):
        ax = 1 + k
        dx = np.diff(U, axis=ax)
        shape = [1] * (grid.d + 1)
        shape[0] = -1
        coef = grid.yvol.reshape(shape) / grid.hx
        if grid.d == 2:
            other = 1 + (1 - k)
            oshape = [1] * (grid.d + 1)
            oshape[other] = -1
            coef = coef * grid.xvol.reshape(oshape)
        if mask is not None:
            lo = [slice(None)] * (grid.d + 1)
            hi = [slice(None)] * (grid.d + 1)
            lo[ax] = slice(None, -1)
            hi[ax] = slice(1, None)
            act = mask[tuple(lo)] & mask[tuple(hi)]
        else:
            act = 1.0
        total += float(np.sum(coef * dx * dx * act))
    return total


def weighted_norm(grid: WeightedGrid, field: np.ndarray, norm: str,
                  p: float = 2.0, q: float = 2.0,
                  region: Cylinder | None = None) -> float:
    """Discrete weighted norms.

    norm is one of
      'L2a'            weighted L^2 over the (space-time or spatial) field
      'Lpa'            weighted L^p, exponent p
      'H1a'            weighted H^1 (squared terms summed, then sqrt)
      'LinfT_Lq_trace' sup over time layers of the plain L^q norm of a
                       trace field (shape (nt+1, trace...))
    """
    field = np.asarray(field, dtype=float)
    if region is not None:
        region.require_fits(grid)

    if norm in ("L2a", "Lpa"):
        ex = 2.0 if norm == "L2a" else float(p)
        if field.shape == grid.spatial_shape:
            w = grid.node_mass.reshape(grid.spatial_shape)
            if region is not None:
                w = w * region.spatial_mask(grid)
        elif field.shape == grid.spacetime_shape:
            w = np.multiply.outer(grid.tvol,
                                  grid.node_mass.reshape(grid.spatial_shape))
            if region is not None:
                w = w * region.mask(grid)
        else:
            raise GridError(f"field shape {field.shape} not on this grid")
        return float(np.sum(w * np.abs(field) ** ex) ** (1.0 / ex))

    if norm == "H1a":
        sq = weighted_norm(grid, field, "L2a", region=region) ** 2
        msk = None
        if field.shape == grid.spatial_shape:
            if region is not None:
                msk = region.spatial_mask(grid)
            sq += _grad_energy_spatial(grid, field, msk)
        elif field.shape == grid.spacetime_shape:
            if region is not None:
                msk = region.spatial_mask(grid)
                mt = region.time_mask(grid)
            layers = field.reshape(grid.spec.nt + 1, -1)
            ge = np.array([
                _grad_energy_spatial(grid, lay, msk) for lay in layers
            ])
            tw = grid.tvol if region is None else grid.tvol * mt
            sq += float(np.sum(tw * ge))
            # time derivative term, cellwise
            dU = np.diff(layers, axis=0) / grid.dt
            w = grid.node_mass[None, :]
            if msk is not None:
                w = w * msk.ravel()[None, :]
            icell = np.sum(dU * dU * w, axis=1)
            ct = np.ones(grid.spec.nt)
            if region is not None:
                ct = (mt[:-1] & mt[1:]).astype(float)
            sq += float(np.sum(grid.dt * ct * icell))
        else:
            raise GridError(f"field shape {field.shape} not on this grid")
        return float(np.sqrt(sq))

    if norm == "LinfT_Lq_trace":
        trace_shape = (grid.spec.nt + 1,) + (grid.spec.nx + 1,) * grid.d
        if field.shape != trace_shape:
            raise GridError(
                f"trace field shape {field.shape} != expected {trace_shape}"
            )
        qq = float(q)
        lay = field.reshape(grid.spec.nt + 1, -1)
        w = grid.xmass[None, :]
        keep = np.ones(grid.spec.nt + 1, dtype=bool)
        if region is not None:
            cx = region._parts(grid.d)[0]
            mx = np.ones((grid.spec.nx + 1,) * grid.d, dtype=bool)
            for k in range(grid.d):
                m1 = np.abs(grid.x - cx[k]) <= region.radius + 1e-14
                shape = [1] * grid.d
                shape[k] = -1
                mx = mx & m1.reshape(shape)
            w = w * mx.ravel()[None, :]
            keep = region.time_mask(grid)
        vals = np.sum(w * np.abs(lay) ** qq, axis=1) ** (1.0 / qq)
        return float(np.max(vals[keep])) if np.any(keep) else 0.0

    raise GridError(f"unknown norm tag {norm!r}")
