"""Special functions and built-in convolution kernels.

Provides the gamma function, the power-law kernel that reduces the
generalized operators to the classical Riemann-Liouville/Caputo ones, a
tempered variant of it, and the closed-form action of the classical
fractional operators on power functions (the test oracle used throughout
the suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .pset import format_number, real

__all__ = [
    "gamma",
    "Kernel",
    "KernelFamily",
    "rl_kernel",
    "tempered_kernel",
    "rl_family",
    "tempered_family",
    "kernel_family_from_label",
    "euler_oracle",
]


def gamma(x: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``).

    Refuses x <= 0, where the kernels and the oracle never need it,
    non-finite x, and x whose gamma overflows a float (x below about
    5.6e-309, where gamma(x) ~ 1/x, or above about 171.6).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a finite x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"gamma({x!r}) overflows a float") from None


@dataclass(frozen=True)
class Kernel:
    """A difference kernel instantiated at a concrete order.

    ``evaluate`` maps positive distances to kernel values and must accept
    numpy arrays.  ``singularity_exponent`` is a sigma >= 0 such that
    ``evaluate(x) * x**sigma`` stays bounded and bounded away from zero as
    x -> 0+; the quadrature engine folds exactly this power into
    Gauss-Jacobi weights.

    The contract the Gauss-Jacobi piece at a convolution's target relies
    on: ``evaluate(x) * x**sigma`` extends smoothly to x = 0.  That piece
    integrates the product as a polynomial, so a kernel with a second
    power, such as x**(alpha-1) + x**(alpha-0.7) declared with
    sigma = 1 - alpha (the product is 1 + x**0.3), meets the bound above
    but not this, and its operators converge slowly (at about first order
    in the panel count) without any sign in the residual.  The built-in
    kernels, x**(alpha-1) e^(-lam x) up to a constant, meet it.

    ``cache_key`` identifies the kernel in the caches of operator
    matrices: two kernels with equal keys must be the same function.  The
    built-in factories set one from every parameter; a kernel without a
    key (None, the default) is never cached.
    """

    order_param: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    singularity_exponent: float
    label: str
    cache_key: Optional[tuple] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "order_param", real(self.order_param, "order_param"))
        sigma = real(self.singularity_exponent, "singularity_exponent")
        object.__setattr__(self, "singularity_exponent", sigma)
        if not 0.0 < self.order_param <= 1.0:
            raise ValueError(
                f"kernel order must lie in (0, 1], got {self.order_param!r}"
            )
        if not 0.0 <= self.singularity_exponent < 1.0:
            raise ValueError(
                "singularity exponent must lie in [0, 1) for an absolutely "
                f"integrable kernel, got {self.singularity_exponent!r}"
            )

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class KernelFamily:
    """A kernel family that can be instantiated at any order in (0, 1].

    Operator constructors pick the instantiation order themselves (the
    integral operator uses its own order, the derivative-type operators
    use one minus theirs), so callers can never mismatch the pairing.
    """

    label: str
    make: Callable[[float], Kernel]

    def instantiate(self, order: float) -> Kernel:
        order = real(order, "alpha")
        if not 0.0 < order <= 1.0:
            raise ValueError(f"kernel order must lie in (0, 1], got {order!r}")
        return self.make(order)


def _power_kernel(alpha: float, lam: float, label: str) -> Kernel:
    """x**(alpha-1) e^(-lam x)/gamma(alpha) on (0, L]; lam = 0 leaves it undamped.

    ``alpha`` and ``lam`` are any real numbers but bools, and are stored
    as floats; ``label`` is formatted with ``lam``.
    """
    alpha, lam = real(alpha, "alpha"), real(lam, "tempering rate")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if lam < 0.0:
        raise ValueError(f"tempering rate must be finite and >= 0, got {lam!r}")
    # gamma(1) is exactly 1; keep the order-1 kernel exactly constant
    c = 1.0 if alpha == 1.0 else 1.0 / gamma(alpha)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        power = np.ones_like(x) if alpha == 1.0 else c * x ** (alpha - 1.0)
        return power if lam == 0.0 else power * np.exp(-lam * x)

    label = label.format(lam=lam)
    return Kernel(
        order_param=alpha,
        evaluate=evaluate,
        singularity_exponent=1.0 - alpha,
        label=label,
        cache_key=(label, alpha, 1.0 - alpha),  # the label holds repr(lam)
    )


# Neither factory calls the other: perfbench's tracer wraps each one, and a
# nested call would count every kernel evaluation twice.
def rl_kernel(alpha: float) -> Kernel:
    """Power kernel x**(alpha-1)/gamma(alpha) on (0, L]."""
    return _power_kernel(alpha, 0.0, "rl")


def tempered_kernel(alpha: float, lam: float) -> Kernel:
    """Exponentially tempered power kernel x**(alpha-1) e^(-lam x)/gamma(alpha)."""
    return _power_kernel(alpha, lam, "tempered(lam={lam!r})")


def rl_family() -> KernelFamily:
    return KernelFamily(label="rl", make=rl_kernel)


def tempered_family(lam: float) -> KernelFamily:
    lam = real(lam, "tempering rate")
    return KernelFamily(
        label=f"tempered(lam={format_number(lam)})",
        make=lambda order: tempered_kernel(order, lam),
    )


def kernel_family_from_label(label: str) -> KernelFamily:
    """Parse a kernel family name: ``rl`` or ``tempered:LAM``."""
    if label == "rl":
        return rl_family()
    if label.startswith("tempered:"):
        try:
            lam = float(label.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad tempering rate in kernel spec {label!r}") from None
        return tempered_family(lam)
    if label == "tempered":
        raise ValueError("tempered kernel needs a rate, e.g. 'tempered:1'")
    raise ValueError(f"unknown kernel family {label!r} (expected 'rl' or 'tempered:LAM')")


Side = Literal["left", "right"]
OpKind = Literal["integral", "rl_derivative", "caputo_derivative"]


def euler_oracle(
    side: Side,
    op_kind: OpKind,
    alpha: float,
    beta: float,
    a: float,
    b: float,
    t: float,
) -> float:
    """Closed-form action of the classical fractional operators on powers.

    For the left-sided operators applied to (tau - a)**beta:

    * integral of order alpha:
      gamma(beta+1)/gamma(beta+alpha+1) * (t-a)**(beta+alpha)
    * Riemann-Liouville derivative (requires beta - alpha > -1):
      gamma(beta+1)/gamma(beta-alpha+1) * (t-a)**(beta-alpha)
    * Caputo derivative: same as the RL derivative for beta > 0, and 0
      for beta = 0 (derivative of a constant).

    Right-sided operators act on (b - tau)**beta and use (b - t) in place
    of (t - a).  Each formula is validated against brute-force adaptive
    integration in the test suite before anything else relies on it.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if op_kind not in ("integral", "rl_derivative", "caputo_derivative"):
        raise ValueError(f"unknown operator kind {op_kind!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if not a <= t <= b:
        raise ValueError(f"t={t!r} outside [{a!r}, {b!r}]")

    s = (t - a) if side == "left" else (b - t)
    if op_kind == "integral":
        return gamma(beta + 1.0) / gamma(beta + alpha + 1.0) * s ** (beta + alpha)
    if op_kind == "caputo_derivative" and beta == 0.0:
        return 0.0
    # rl_derivative, or caputo_derivative with beta > 0
    if beta - alpha <= -1.0:
        raise ValueError(
            f"RL derivative of a power needs beta - alpha > -1, got {beta - alpha!r}"
        )
    expo = beta - alpha
    if s == 0.0 and expo < 0.0:
        raise ValueError(
            "derivative of this power is unbounded at the base point; "
            "evaluate at an interior t"
        )
    if s == 0.0 and expo == 0.0:
        s_pow = 1.0
    else:
        s_pow = s**expo
    return gamma(beta + 1.0) / gamma(expo + 1.0) * s_pow
