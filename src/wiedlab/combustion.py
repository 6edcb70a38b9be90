"""Combustion-type nonlinearities and their potentials.

A reaction term is a continuous beta >= 0 supported on [0, 1] with
int_0^1 beta = 1/2; its potential is Phi(v) = 2 int_0^v beta, so Phi
climbs monotonically from 0 to exactly 1 across [0, 1].  Built-ins have
closed-form potentials; custom tables are piecewise linear and get
rescaled to the exact normalization.  kind="zero" switches the reaction
off (the linear problem) and is exempt from the normalization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np


class ModelError(ValueError):
    """Invalid combustion model."""


@dataclass(frozen=True)
class CombustionModel:
    kind: str = "polynomial-bump"
    params: dict = field(default_factory=dict)
    lipschitz: float = 0.0

    @functools.cached_property
    def poly(self) -> tuple[float, float, float]:
        """(m, n, c) of the polynomial bump c v^m (1-v)^n, parsed once
        per model rather than on every evaluation."""
        m, n = _poly_exponents(self)
        return m, n, _poly_coef(m, n)


ZERO_MODEL = CombustionModel(kind="zero")


def _poly_exponents(model) -> tuple[float, float]:
    return tuple(float(model.params.get(key, 1.0)) for key in ("m", "n"))


@functools.lru_cache(maxsize=32)
def _poly_coef(m: float, n: float) -> float:
    # c v^m (1-v)^n with int over [0,1] equal to 1/2, c = 1 / (2 B(m+1, n+1));
    # for integer exponents 1/B = (m+n+1)!/(m! n!) is an integer and the
    # quotient by 2 is correctly rounded, or inf past the float range (as
    # 0.5 / beta is; validate_model then rejects the model).  Cached
    # because every beta evaluation asks for it
    if m.is_integer() and n.is_integer():
        try:
            return (int(m + n) + 1) * math.comb(int(m + n), int(m)) / 2
        except OverflowError:
            return math.inf
    from scipy import special
    return 0.5 / special.beta(m + 1.0, n + 1.0)


def _hat_peak(model) -> float:
    return float(model.params.get("peak", 0.5))


def _table(model) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(model.params["v"], dtype=float)
    b = np.asarray(model.params["beta"], dtype=float)
    if v.ndim != 1 or v.shape != b.shape or v.size < 2:
        raise ModelError("custom-table v/beta must be equal-length 1d, size >= 2")
    if not np.all(np.diff(v) > 0):
        raise ModelError("custom-table v knots must be strictly increasing")
    return v, b


def _clamp(v: np.ndarray) -> np.ndarray:
    # np.clip(v, 0, 1) bit for bit (maximum(0, -0.0) keeps -0.0 as clip
    # does), except that NaN goes to 0: every caller zeroes beta there
    # anyway.  Three ufuncs cost less than np.clip's Python wrapper.
    return np.minimum(1.0, np.maximum(0.0, np.fmax(v, -1.0)))


def beta_eval(model: CombustionModel, v) -> np.ndarray | float:
    """beta(v); total on the reals, zero outside [0, 1]."""
    v = np.asarray(v, dtype=float)
    if model.kind == "zero":
        out = np.zeros_like(v)
        return out if out.ndim else float(out)
    vc = _clamp(v)
    if model.kind == "polynomial-bump":
        # x**1.0 is x for every x, NaN and -0.0 included, so an exponent
        # of 1 (the shipped bump's) skips its power with the same bits
        m, n, c = model.poly
        out = c * (vc if m == 1.0 else vc**m)
        out = out * (1.0 - vc if n == 1.0 else (1.0 - vc) ** n)
        if m > 0.0 and n > 0.0:
            # zero at both ends: the clamp alone zeroes it outside [0, 1]
            return out if out.ndim else float(out)
    elif model.kind == "piecewise-linear-hat":
        c = _hat_peak(model)
        out = np.where(vc <= c, vc / c, (1.0 - vc) / (1.0 - c))
    else:
        tv, tb = _table(model)
        out = np.interp(vc, tv, tb, left=0.0, right=0.0)
    out = np.where((v >= 0.0) & (v <= 1.0), out, 0.0)
    return out if out.ndim else float(out)


def _bernstein_tail(v: np.ndarray, m: int, n: int) -> np.ndarray:
    """The regularized incomplete beta function I_v(m + 1, n + 1) for
    integer m, n >= 0 and v in [0, 1], as the Bernstein sum

        sum_{j=m+1}^{N} C(N, j) v^j (1 - v)^(N - j),   N = m + n + 1,

    whose terms are all nonnegative; 3 v^2 (1 - v) + v^3 for m = n = 1.
    It is 0 at v = 0 and 1 at v = 1 exactly."""
    N = m + n + 1
    w = 1.0 - v
    out = np.zeros_like(v)
    for j in range(m + 1, N + 1):
        out += math.comb(N, j) * v**j * w ** (N - j)
    return out


def phi_eval(model: CombustionModel, v) -> np.ndarray | float:
    """Phi(v) = 2 int_0^{clamp(v, 0, 1)} beta; closed form for built-ins.

    The polynomial bump's Phi is the regularized incomplete beta function
    I_v(m + 1, n + 1): a Bernstein sum when both exponents are integers
    (the shipped m = n = 1 gives 3 v^2 - 2 v^3), scipy's betainc
    otherwise."""
    v = np.asarray(v, dtype=float)
    if model.kind == "zero":
        out = np.zeros_like(v)
        return out if out.ndim else float(out)
    vc = np.clip(v, 0.0, 1.0)
    if model.kind == "polynomial-bump":
        m, n, _ = model.poly
        if m.is_integer() and n.is_integer():
            out = _bernstein_tail(vc, int(m), int(n))
        else:
            from scipy import special
            out = special.betainc(m + 1.0, n + 1.0, vc)
    elif model.kind == "piecewise-linear-hat":
        c = _hat_peak(model)
        left = vc**2 / c
        right = 1.0 - (1.0 - vc) ** 2 / (1.0 - c)
        out = np.where(vc <= c, left, right)
    else:
        tv, tb = _table(model)
        knots = np.concatenate(([0.0], tv, [1.0]))
        bk = np.concatenate(([0.0 if tv[0] > 0 else tb[0]], tb,
                             [0.0 if tv[-1] < 1 else tb[-1]]))
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (bk[1:] + bk[:-1]) * np.diff(knots)))
        )
        idx = np.searchsorted(knots, vc, side="right") - 1
        idx = np.clip(idx, 0, knots.size - 2)
        v0 = knots[idx]
        b0 = bk[idx]
        b1 = bk[idx + 1]
        h = knots[idx + 1] - v0
        s = np.where(h > 0, (vc - v0) / np.where(h > 0, h, 1.0), 0.0)
        seg = h * (b0 * s + 0.5 * (b1 - b0) * s**2)
        out = 2.0 * (cum[idx] + seg)
    return out if out.ndim else float(out)


def beta_prime_eval(model: CombustionModel, v) -> np.ndarray | float:
    """d beta / dv, used by the Newton outer iteration."""
    v = np.asarray(v, dtype=float)
    if model.kind == "zero":
        out = np.zeros_like(v)
        return out if out.ndim else float(out)
    vc = _clamp(v)
    if model.kind == "polynomial-bump":
        # the exponents are >= 0 and vc is finite, so every term is finite
        m, n, c = model.poly
        out = c * (m * vc ** max(m - 1.0, 0.0) * (1.0 - vc) ** n
                   - n * vc**m * (1.0 - vc) ** max(n - 1.0, 0.0))
    elif model.kind == "piecewise-linear-hat":
        c = _hat_peak(model)
        out = np.where(vc <= c, 1.0 / c, -1.0 / (1.0 - c))
    else:
        tv, tb = _table(model)
        slopes = np.diff(tb) / np.diff(tv)
        idx = np.clip(np.searchsorted(tv, vc, side="right") - 1, 0, tv.size - 2)
        out = slopes[idx]
    out = np.where((v > 0.0) & (v < 1.0), out, 0.0)
    return out if out.ndim else float(out)


def lipschitz_bound(model: CombustionModel) -> float:
    if model.kind == "zero":
        return 0.0
    if model.kind == "polynomial-bump":
        vs = np.linspace(0.0, 1.0, 4097)
        return float(np.max(np.abs(beta_prime_eval(model, vs))))
    if model.kind == "piecewise-linear-hat":
        c = _hat_peak(model)
        return float(max(1.0 / c, 1.0 / (1.0 - c)))
    tv, tb = _table(model)
    return float(np.max(np.abs(np.diff(tb) / np.diff(tv))))


def sup_bound(model: CombustionModel) -> float:
    """||beta||_inf, which enters the Hoelder constants of the estimates."""
    if model.kind == "zero":
        return 0.0
    vs = np.linspace(0.0, 1.0, 8193)
    return float(np.max(beta_eval(model, vs)))


def validate_model(model: CombustionModel) -> CombustionModel:
    """Check sign, support and normalization; rescale custom tables.

    Returns a normalized model (built-ins come back with the Lipschitz
    constant filled in; custom tables are rescaled so that the exact
    trapezoid integral of beta over [0, 1] equals 1/2).
    """
    if model.kind == "zero":
        return model

    if model.kind == "custom-table":
        tv, tb = _table(model)
        if np.any(tb < 0):
            i = int(np.argmax(tb < 0))
            raise ModelError(f"negative beta value at v={tv[i]}")
        out_of_support = (tv < 0.0) | (tv > 1.0)
        if np.any(tb[out_of_support] != 0.0):
            i = int(np.argmax((tb != 0.0) & out_of_support))
            raise ModelError(f"support violation at v={tv[i]}")
        keep = (tv >= 0.0) & (tv <= 1.0)
        tv, tb = tv[keep], tb[keep]
        integral = float(np.trapezoid(tb, tv))
        if integral <= 0.0:
            raise ModelError("custom-table beta integrates to zero")
        scale = 0.5 / integral
        new = replace(
            model,
            params={"v": tv.tolist(), "beta": (scale * tb).tolist(),
                    "rescale_factor": scale},
            lipschitz=lipschitz_bound(
                CombustionModel("custom-table",
                                {"v": tv.tolist(),
                                 "beta": (scale * tb).tolist()})),
        )
        return new

    # built-ins: closed forms are exactly normalized; sample densely as a guard
    vs = np.linspace(-0.5, 1.5, 2001)
    bv = beta_eval(model, vs)
    if np.any(bv < 0):
        raise ModelError(f"negative beta value at v={vs[int(np.argmax(bv < 0))]}")
    outside = (vs < 0.0) | (vs > 1.0)
    if np.any(bv[outside] != 0.0):
        i = int(np.argmax((bv != 0.0) & outside))
        raise ModelError(f"support violation at v={vs[i]}")
    quad = float(np.trapezoid(bv[(vs >= 0) & (vs <= 1)], vs[(vs >= 0) & (vs <= 1)]))
    if abs(quad - 0.5) > 1e-4:  # trapezoid check, closed forms are exact
        raise ModelError(f"beta integral {2*quad} != 1 (normalization broken)")
    if abs(float(phi_eval(model, 1.0)) - 1.0) > 1e-10:
        raise ModelError("Phi(1) != 1")
    return replace(model, lipschitz=lipschitz_bound(model))

