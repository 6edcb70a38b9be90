import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from wiedlab.combustion import (CombustionModel, ModelError, ZERO_MODEL,
                                beta_eval, beta_prime_eval, lipschitz_bound,
                                phi_eval, sup_bound, validate_model)

BUMP = validate_model(CombustionModel("polynomial-bump"))
HAT = validate_model(CombustionModel("piecewise-linear-hat"))


def test_bump_value_at_half():
    # 3 v (1 - v), normalization forced by int_0^1 v(1-v) = 1/6
    assert abs(beta_eval(BUMP, 0.5) - 0.75) < 1e-14


@pytest.mark.parametrize("model", [BUMP, HAT, ZERO_MODEL])
@pytest.mark.parametrize("v", [-0.3, 2.0, -1e-9, 1.0 + 1e-9])
def test_support(model, v):
    assert beta_eval(model, v) == 0.0


def test_phi_saturation():
    for model in (BUMP, HAT):
        assert phi_eval(model, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert phi_eval(model, 3.0) == pytest.approx(1.0, abs=1e-14)
        assert phi_eval(model, 0.0) == 0.0
        assert phi_eval(model, -2.0) == 0.0


def test_phi_closed_form_vs_quadrature():
    # Phi(1/2) = 2 (1.5 v^2 - v^3)|_{1/2} = 1/2 for the default bump
    assert abs(phi_eval(BUMP, 0.5) - 0.5) < 1e-14
    for v in (0.2, 0.35, 0.8):
        ref, _ = quad(lambda s: 2.0 * beta_eval(BUMP, s), 0.0, v)
        assert abs(phi_eval(BUMP, v) - ref) < 1e-10


@pytest.mark.parametrize("m, n, bound", [(1, 1, 4.4e-16), (0, 0, 4.4e-16),
                                         (2, 3, 1.1e-15), (4, 4, 1.1e-15)])
def test_phi_integer_bump_matches_betainc(m, n, bound):
    # integer exponents take the Bernstein sum, which must agree with
    # scipy's regularized incomplete beta function (observed: 2.2e-16 for
    # the shipped m = n = 1, 6.7e-16 for m = 2, n = 3) and hit 0 and 1
    # exactly
    from scipy import special
    model = validate_model(CombustionModel("polynomial-bump",
                                           {"m": m, "n": n}))
    v = np.concatenate([
        np.linspace(0.0, 1.0, 100001),
        np.random.default_rng(4).random(100000),
        [0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
         np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -3.0, 2.5,
         -1e-300, 1.0 + 1e-12]])
    ref = special.betainc(m + 1.0, n + 1.0, np.clip(v, 0.0, 1.0))
    assert np.max(np.abs(phi_eval(model, v) - ref)) <= bound
    assert phi_eval(model, 0.0) == 0.0 and phi_eval(model, 1.0) == 1.0
    assert phi_eval(model, -0.5) == 0.0 and phi_eval(model, 1.5) == 1.0


def test_phi_non_integer_bump_is_betainc():
    from scipy import special
    model = validate_model(CombustionModel("polynomial-bump",
                                           {"m": 1.5, "n": 2.0}))
    v = np.linspace(-0.5, 1.5, 2001)
    assert np.array_equal(phi_eval(model, v),
                          special.betainc(2.5, 3.0, np.clip(v, 0.0, 1.0)))


def test_phi_prime_is_two_beta():
    vs = np.linspace(0.05, 0.95, 37)
    h = 1e-7  # small enough that the hat kink's curvature jump stays below tol
    for model in (BUMP, HAT):
        fd = (phi_eval(model, vs + h) - phi_eval(model, vs - h)) / (2 * h)
        assert np.max(np.abs(fd - 2.0 * beta_eval(model, vs))) < 1e-6


def test_custom_table_rescaled_by_three():
    v = np.linspace(0.0, 1.0, 2001)
    model = validate_model(CombustionModel(
        "custom-table", {"v": v.tolist(), "beta": (v * (1 - v)).tolist()}))
    assert model.params["rescale_factor"] == pytest.approx(3.0, rel=1e-6)
    tb = np.asarray(model.params["beta"])
    assert abs(np.trapezoid(tb, v) - 0.5) < 1e-12


def test_support_violation_reported_with_location():
    with pytest.raises(ModelError, match="support violation at v=1.1"):
        validate_model(CombustionModel(
            "custom-table", {"v": [0.0, 0.5, 1.1], "beta": [0.0, 1.0, 0.2]}))


def test_negative_beta_rejected():
    with pytest.raises(ModelError, match="negative"):
        validate_model(CombustionModel(
            "custom-table", {"v": [0.0, 0.5, 1.0], "beta": [0.0, -1.0, 0.0]}))


def test_valid_hat_passes_unchanged():
    model = validate_model(CombustionModel("piecewise-linear-hat",
                                           {"peak": 0.5}))
    assert model.kind == "piecewise-linear-hat"
    assert model.params == {"peak": 0.5}
    assert abs(beta_eval(model, 0.5) - 1.0) < 1e-14  # peak height 1


def test_sup_and_lipschitz_reported():
    assert abs(sup_bound(BUMP) - 0.75) < 1e-6
    assert abs(BUMP.lipschitz - 3.0) < 1e-2
    assert abs(HAT.lipschitz - 2.0) < 1e-12
    assert sup_bound(ZERO_MODEL) == 0.0


@settings(max_examples=60, deadline=None)
@given(v1=st.floats(-1.0, 2.0), v2=st.floats(-1.0, 2.0))
def test_phi_monotone_and_bounded(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    for model in (BUMP, HAT):
        plo, phi_ = phi_eval(model, lo), phi_eval(model, hi)
        assert plo <= phi_ + 1e-15
        assert -1e-15 <= plo <= 1 + 1e-15
        assert beta_eval(model, v1) >= 0.0


def test_beta_prime_matches_fd():
    vs = np.linspace(0.05, 0.95, 19)
    h = 1e-7
    fd = (beta_eval(BUMP, vs + h) - beta_eval(BUMP, vs - h)) / (2 * h)
    assert np.max(np.abs(fd - beta_prime_eval(BUMP, vs))) < 1e-5


def test_unknown_kind_rejected():
    # a kind is checked where a model enters the program: the config
    from wiedlab.config import ConfigError, config_from_dict
    with pytest.raises(ConfigError, match="model 'kind' must be"):
        config_from_dict({"grid": {"d": 1, "a": 0.5, "L": 1.0, "Y": 1.0,
                                   "T": 1.0, "nx": 4, "ny": 4, "nt": 4},
                          "model": {"kind": "frobnicator"}})


def _exact_bump_constant(m: int, n: int) -> Fraction:
    # c with int_0^1 c v^m (1-v)^n = 1/2: c = 1 / (2 B(m+1, n+1))
    return Fraction(math.factorial(m + n + 1),
                    2 * math.factorial(m) * math.factorial(n))


def test_bump_constant_is_exact_for_integer_exponents():
    # correctly rounded for every integer pair (scipy's beta is off by up
    # to 2 ulp on some of them), the shipped (1, 1) is 3; non-integer
    # exponents still go through scipy's beta
    from scipy import special
    from wiedlab.combustion import _poly_coef
    for m in range(13):
        for n in range(13):
            assert _poly_coef(float(m), float(n)) == float(
                _exact_bump_constant(m, n)), (m, n)
    assert _poly_coef(1.0, 1.0) == 3.0
    assert _poly_coef(1.5, 1.0) == 0.5 / special.beta(2.5, 2.0)
    # past the float range the constant is inf and the model is rejected
    assert _poly_coef(600.0, 600.0) == math.inf
    with pytest.raises(ModelError), np.errstate(invalid="ignore"):
        validate_model(CombustionModel("polynomial-bump",
                                       {"m": 600, "n": 600}))


def _beta_formulas(model, v):
    # the clip/mask formulas beta_eval and beta_prime_eval evaluate,
    # written out as the reference for the faster implementation
    from scipy import special
    v = np.asarray(v, dtype=float)
    vc = np.clip(v, 0.0, 1.0)
    if model.kind == "polynomial-bump":
        m = float(model.params.get("m", 1.0))
        n = float(model.params.get("n", 1.0))
        c = (float(_exact_bump_constant(int(m), int(n)))
             if m.is_integer() and n.is_integer()
             else 0.5 / special.beta(m + 1.0, n + 1.0))
        beta = c * vc**m * (1.0 - vc) ** n
        with np.errstate(divide="ignore", invalid="ignore"):
            prime = c * (m * vc ** max(m - 1.0, 0.0) * (1.0 - vc) ** n
                         - n * vc**m * (1.0 - vc) ** max(n - 1.0, 0.0))
        prime = np.nan_to_num(prime)
    elif model.kind == "piecewise-linear-hat":
        c = float(model.params.get("peak", 0.5))
        beta = np.where(vc <= c, vc / c, (1.0 - vc) / (1.0 - c))
        prime = np.where(vc <= c, 1.0 / c, -1.0 / (1.0 - c))
    else:
        tv = np.asarray(model.params["v"], dtype=float)
        tb = np.asarray(model.params["beta"], dtype=float)
        beta = np.interp(vc, tv, tb, left=0.0, right=0.0)
        slopes = np.diff(tb) / np.diff(tv)
        idx = np.clip(np.searchsorted(tv, vc, side="right") - 1, 0,
                      tv.size - 2)
        prime = slopes[idx]
    beta = np.where((v >= 0.0) & (v <= 1.0), beta, 0.0)
    prime = np.where((v > 0.0) & (v < 1.0), prime, 0.0)
    return beta, prime


@pytest.mark.parametrize("model", [
    BUMP, HAT,
    validate_model(CombustionModel("polynomial-bump", {"m": 2, "n": 0.5})),
    validate_model(CombustionModel("polynomial-bump", {"m": 0, "n": 3})),
    validate_model(CombustionModel("polynomial-bump", {"m": 1.5, "n": 0})),
    validate_model(CombustionModel("piecewise-linear-hat", {"peak": 0.3})),
    validate_model(CombustionModel("custom-table",
                                   {"v": [0.0, 0.2, 0.7, 1.0],
                                    "beta": [0.0, 1.0, 0.4, 0.0]})),
], ids=["bump", "hat", "bump-2-0.5", "bump-0-3", "bump-1.5-0", "hat-0.3",
        "table"])
def test_beta_bits_match_clip_and_mask_formulas(model):
    # same bits as the clip/mask formulas, signed zeros, the interval ends,
    # infinities and NaN included, on 0-d input and on array lengths that
    # take the vector loops and their remainders
    rng = np.random.default_rng(21)
    special = [-0.0, 0.0, 1.0, -1e-300, 1e-300, 1.0 - 1e-16, 1.0 + 1e-15,
               np.inf, -np.inf, np.nan]
    cases = [np.array(s) for s in special]
    for n in (1, 7, 9, 17, 81, 4000):
        for s in special:
            v = rng.uniform(-0.5, 1.5, n)
            v[rng.integers(n)] = s
            cases.append(v)
    for v in cases:
        beta, prime = _beta_formulas(model, v)
        for got, ref in ((beta_eval(model, v), beta),
                         (beta_prime_eval(model, v), prime)):
            got = np.asarray(got)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (1, 0), (0, 1),
                                (1.5, 1), (1, 0.5), (3, 3)])
def test_bump_skips_unit_powers_with_the_same_bits(mn):
    # beta_eval skips the power of an exponent 1; its output stays, bit
    # for bit, the power formula c vc^m (1 - vc)^n on the clamped vc with
    # the support mask where an exponent is 0, on random values in and
    # out of [0, 1], signed zeros, infinities and NaN, 0-d and 1-d
    m, n = mn
    model = validate_model(CombustionModel("polynomial-bump",
                                           {"m": m, "n": n}))
    c = model.poly[2]

    def power_formula(v):
        vc = np.minimum(1.0, np.maximum(0.0, np.fmax(v, -1.0)))
        out = c * vc ** float(m) * (1.0 - vc) ** float(n)
        if not (m > 0 and n > 0):
            out = np.where((v >= 0.0) & (v <= 1.0), out, 0.0)
        return np.asarray(out)

    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 1.0, -1.0, 2.0, 1e-300, 1.0 - 1e-16,
               np.inf, -np.inf, np.nan]
    cases = [np.array(s) for s in special]
    for size in (1, 81, 1000):
        v = rng.uniform(-1.0, 2.0, size)
        v[rng.integers(size, size=min(size, len(special)))] = \
            special[:min(size, len(special))]
        cases.append(v)
    for v in cases:
        got = np.asarray(beta_eval(model, v))
        ref = power_formula(v)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
