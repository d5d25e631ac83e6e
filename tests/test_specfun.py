"""Special functions against independent high-precision oracles."""

import re

import numpy as np
import pytest

from genfrac.quadrature import QuadratureRule, integrate_singular
from genfrac.specfun import (
    Kernel,
    euler_oracle,
    gamma,
    kernel_family_from_label,
    rl_family,
    rl_kernel,
    tempered_family,
    tempered_kernel,
)

# mpmath-computed reference values (40 significant digits upstream).
GAMMA_HALF = 1.7724538509055160273
INV_GAMMA_HALF = 0.56418958354775628695
TWO_INV_GAMMA_HALF = 1.1283791670955125739
G2_OVER_G25 = 0.75225277806367504926
TEMPERED_MASS_HALF_LAM1 = 0.84270079294971486934  # lower incomplete gamma(1/2, 1)/gamma(1/2)


def test_gamma_small_integers():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-14)


def test_gamma_against_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in np.concatenate(
        [np.linspace(0.05, 1.0, 21), np.linspace(1.0, 30.0, 30), [0.07, 0.31, 12.345]]
    ):
        ref = float(mp.gamma(mp.mpf(float(x))))
        assert gamma(float(x)) == pytest.approx(ref, rel=1e-13), x


def test_gamma_recurrence():
    rng = np.random.default_rng(20260808)
    xs = rng.uniform(0.05, 20.0, size=200)
    for x in xs:
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), 1e-310, 5e-324, 172.0])
def test_gamma_domain(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        gamma(bad)


def test_rl_kernel_order_one_is_unit():
    k = rl_kernel(1.0)
    x = np.geomspace(1e-8, 1.0, 30)
    np.testing.assert_allclose(k(x), 1.0, rtol=0, atol=0)
    assert k.singularity_exponent == 0.0


def test_rl_kernel_values():
    k = rl_kernel(0.5)
    assert float(k(np.array(0.25))) == pytest.approx(TWO_INV_GAMMA_HALF, rel=1e-12)
    assert float(k(np.array(1.0))) == pytest.approx(INV_GAMMA_HALF, rel=1e-12)
    assert k.singularity_exponent == 0.5


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
def test_rl_kernel_domain(alpha):
    with pytest.raises(ValueError):
        rl_kernel(alpha)


def test_kernel_order_is_a_real_number_stored_as_float():
    # True == 1 passed the range check, and gave the order-1 kernel
    for bad in (True, np.bool_(True), "0.5"):
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            rl_kernel(bad)
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            tempered_kernel(bad, 1.0)
    with pytest.raises(ValueError, match="alpha must be a finite real"):
        rl_family().instantiate(True)
    for k in (rl_kernel(np.float32(0.5)), tempered_kernel(np.float64(0.5), 1.0)):
        assert type(k.order_param) is float and k.order_param == 0.5
        assert type(k.singularity_exponent) is float


def test_kernel_parameters_refuse_non_reals_with_value_error():
    # a text order or rate used to raise TypeError, or a format error in
    # tempered_family, and a Kernel built directly kept a bool or a float32
    with pytest.raises(ValueError, match="alpha must be a finite real"):
        rl_family().instantiate("0.5")
    for bad in ("1", None, True, np.bool_(False), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tempering rate must be a finite real"):
            tempered_kernel(0.5, bad)
        with pytest.raises(ValueError, match="tempering rate must be a finite real"):
            tempered_family(bad)
    evaluate = rl_kernel(0.5).evaluate
    for name in ("order_param", "singularity_exponent"):
        for bad in (True, "0.5", None):
            fields = {"order_param": 0.5, "singularity_exponent": 0.5, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be a finite real"):
                Kernel(evaluate=evaluate, label="k", **fields)
    k = Kernel(np.float32(0.5), evaluate, np.float32(0.5), "k")
    assert type(k.order_param) is float and type(k.singularity_exponent) is float
    assert k.cache_key == ("k", 0.5, 0.5)
    # the built-in kernels keep their labels and cache keys
    assert tempered_family(1).label == "tempered(lam=1)"
    assert tempered_family(1).instantiate(0.5).cache_key == ("tempered(lam=1.0)", 0.5, 0.5)
    assert tempered_kernel(0.25, np.float64(2)).cache_key == ("tempered(lam=2.0)", 0.25, 0.75)
    assert rl_family().instantiate(np.float32(0.25)).cache_key == ("rl", 0.25, 0.75)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_singularity_exponent_honesty(alpha):
    # evaluate(x) * x**sigma must stay in a bounded, nonvanishing band near 0
    for kern in (rl_kernel(alpha), tempered_kernel(alpha, 1.0)):
        x = np.geomspace(1e-12, 1e-2, 40)
        band = kern(x) * x**kern.singularity_exponent
        assert np.all(np.isfinite(band))
        assert band.max() <= 10.0
        assert band.min() >= 1e-2


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_kernel_l1_integrability_by_refinement(alpha, lam):
    # successive panel-doubled quadratures of |k| must agree to 1e-8 relative
    kern = tempered_kernel(alpha, lam) if lam else rl_kernel(alpha)
    vals = [
        integrate_singular(lambda u: 1.0, kern, 0.0, 1.0, "lo", QuadratureRule(panels=p))
        for p in (8, 16, 32)
    ]
    assert abs(vals[2] - vals[1]) < 1e-8 * abs(vals[2])


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_rl_kernel_l1_mass_analytic(alpha, L):
    mass = integrate_singular(lambda u: 1.0, rl_kernel(alpha), 0.0, L, "lo")
    exact = L**alpha / gamma(alpha + 1.0)
    assert mass == pytest.approx(exact, rel=1e-10)


def test_tempered_kernel_l1_mass():
    mass = integrate_singular(lambda u: 1.0, tempered_kernel(0.5, 1.0), 0.0, 1.0, "lo")
    assert mass == pytest.approx(TEMPERED_MASS_HALF_LAM1, rel=1e-10)


def test_tempered_reduces_to_power_at_lam_zero():
    x = np.linspace(0.01, 1.0, 17)
    np.testing.assert_allclose(
        tempered_kernel(0.3, 0.0)(x), rl_kernel(0.3)(x), rtol=1e-15
    )


def test_kernel_family_pairing():
    fam = rl_family()
    assert fam.instantiate(0.25).order_param == 0.25
    with pytest.raises(ValueError):
        fam.instantiate(1.5)
    assert tempered_family(2.0).label == "tempered(lam=2)"


def test_kernel_family_from_label():
    assert kernel_family_from_label("rl").label == "rl"
    assert kernel_family_from_label("tempered:1.5").label == "tempered(lam=1.5)"
    with pytest.raises(ValueError):
        kernel_family_from_label("nope")
    with pytest.raises(ValueError):
        kernel_family_from_label("tempered")
    with pytest.raises(ValueError):
        kernel_family_from_label("tempered:abc")


# {{{ euler oracle


def test_euler_examples():
    assert euler_oracle("left", "integral", 0.5, 0.0, 0.0, 2.0, 1.0) == pytest.approx(
        TWO_INV_GAMMA_HALF, rel=1e-12
    )
    assert euler_oracle("left", "caputo_derivative", 0.3, 0.0, -1.0, 2.0, 0.5) == 0.0
    assert euler_oracle("left", "rl_derivative", 0.5, 1.0, 0.0, 2.0, 1.0) == pytest.approx(
        TWO_INV_GAMMA_HALF, rel=1e-12
    )


def test_euler_rl_caputo_agree_for_positive_beta():
    for alpha in (0.25, 0.5, 0.75):
        for beta in (0.5, 1.0, 2.0, 2.5):
            for t in (0.2, 0.9):
                r = euler_oracle("left", "rl_derivative", alpha, beta, 0.0, 1.0, t)
                c = euler_oracle("left", "caputo_derivative", alpha, beta, 0.0, 1.0, t)
                assert abs(r - c) <= 1e-12 * abs(r)


def test_euler_domain_errors():
    with pytest.raises(ValueError):
        euler_oracle("left", "integral", 0.5, -1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        euler_oracle("left", "rl_derivative", 0.75, 0.0, 0.0, 1.0, 0.0)  # blows up at t=a
    with pytest.raises(ValueError):
        euler_oracle("up", "integral", 0.5, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        euler_oracle("left", "integral", 1.5, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        euler_oracle("left", "integral", 0.5, 1.0, 1.0, 0.0, 0.5)  # a >= b


def _mp_left_integral(mp, alpha, beta, a, t):
    return (
        mp.quad(
            lambda u: u ** (alpha - 1) * (t - a - u) ** beta,
            [0, t - a],
            method="tanh-sinh",
        )
        / mp.gamma(alpha)
    )


def _mp_right_integral(mp, alpha, beta, b, t):
    return (
        mp.quad(
            lambda u: u ** (alpha - 1) * (b - t - u) ** beta,
            [0, b - t],
            method="tanh-sinh",
        )
        / mp.gamma(alpha)
    )


def test_euler_integral_vs_brute_force():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for alpha, beta, t in [(0.5, 0.0, 1.0), (0.25, 2.5, 0.7), (0.75, 1.0, 0.3)]:
        ref = float(_mp_left_integral(mp, mp.mpf(alpha), mp.mpf(beta), mp.mpf(0), mp.mpf(t)))
        val = euler_oracle("left", "integral", alpha, beta, 0.0, 1.0, t)
        assert val == pytest.approx(ref, rel=1e-9)
        refr = float(_mp_right_integral(mp, mp.mpf(alpha), mp.mpf(beta), mp.mpf(1), mp.mpf(t)))
        valr = euler_oracle("right", "integral", alpha, beta, 0.0, 1.0, t)
        assert valr == pytest.approx(refr, rel=1e-9)


def test_euler_derivatives_vs_brute_force():
    # RL derivative: high-precision differentiation of the order-(1-alpha)
    # integral; Caputo: order-(1-alpha) integral of the derivative.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for alpha, beta, t in [(0.5, 1.0, 0.6), (0.25, 2.5, 0.7)]:
        al, be, tt = mp.mpf(alpha), mp.mpf(beta), mp.mpf(t)

        def K(s, al=al, be=be):
            return (
                mp.quad(
                    lambda u: u ** (-al) * (s - u) ** be, [0, s], method="tanh-sinh"
                )
                / mp.gamma(1 - al)
            )

        ref_rl = float(mp.diff(K, tt))
        assert euler_oracle("left", "rl_derivative", alpha, beta, 0.0, 1.0, t) == pytest.approx(
            ref_rl, rel=1e-8
        )
        ref_cap = float(
            mp.quad(
                lambda u: u ** (-al) * be * (tt - u) ** (be - 1),
                [0, tt],
                method="tanh-sinh",
            )
            / mp.gamma(1 - al)
        )
        assert euler_oracle(
            "left", "caputo_derivative", alpha, beta, 0.0, 1.0, t
        ) == pytest.approx(ref_cap, rel=1e-10)
