r"""One-dimensional generalized fractional operators.

For a p-set P = <a, b, p, q>, a difference kernel k and an order alpha,
the package provides three operators acting on functions over [a, b]:

* the integral-type operator
  (K f)(t) = p \int_a^t k(t - tau) f(tau) dtau
           + q \int_t^b k(tau - t) f(tau) dtau,
  with the kernel instantiated at order alpha;
* the derivative-after-integral operator A = d/dt o K, with the kernel
  instantiated at order 1 - alpha (Riemann-Liouville type);
* the integral-after-derivative operator B = K o d/dt, kernel at order
  1 - alpha (Caputo type).

With the power kernel and the p-sets <a,b,1,0> / <a,b,0,1> these reduce
to the classical left/right fractional integrals and derivatives (the
right-sided derivatives with a sign flip), which the test suite checks
against the closed-form power-function oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspec import FuncSpec
from .pset import ParameterSet, real
from .quadrature import DEFAULT_RULE, QuadratureRule, convolve
from .specfun import Kernel, KernelFamily

__all__ = ["OperatorRequest", "kop", "aop", "bop"]

_NONFINITE = "operand non-finite"


@dataclass(frozen=True)
class OperatorRequest:
    """Operator kind, order, p-set, kernel family and quadrature rule.

    The kernel is instantiated internally: the K operator uses order
    ``alpha`` directly, while A and B pair order alpha with the kernel at
    ``1 - alpha``; callers cannot mismatch the two.  ``alpha`` is any
    real number but a bool, and is stored as a float.
    """

    kind: str
    alpha: float
    pset: ParameterSet
    kernel: KernelFamily
    rule: QuadratureRule = DEFAULT_RULE

    def __post_init__(self) -> None:
        if self.kind not in ("K", "A", "B"):
            raise ValueError(f"operator kind must be 'K', 'A' or 'B', got {self.kind!r}")
        object.__setattr__(self, "alpha", real(self.alpha, "alpha"))
        if self.kind == "K":
            if not 0.0 < self.alpha <= 1.0:
                raise ValueError(f"K operator needs alpha in (0, 1], got {self.alpha!r}")
        elif not 0.0 < self.alpha < 1.0:
            raise ValueError(
                f"{self.kind} operator needs alpha strictly in (0, 1), got {self.alpha!r}"
            )

    def instantiated_kernel(self) -> Kernel:
        order = self.alpha if self.kind == "K" else 1.0 - self.alpha
        return self.kernel.instantiate(order)


def kop(req: OperatorRequest, f: FuncSpec, t: float) -> float:
    """Generalized fractional integral of f at t.

    At t = a the leftward half vanishes exactly; at t = b the rightward
    half does.
    """
    if req.kind != "K":
        raise ValueError(f"kop needs a request of kind 'K', got {req.kind!r}")
    if f.arity != 1:
        raise ValueError("kop acts on one-variable functions")
    P = req.pset
    if not P.a <= t <= P.b:
        raise ValueError(f"t={t!r} outside [{P.a!r}, {P.b!r}]")
    kern = req.instantiated_kernel()
    return float(convolve(f.fn, P, kern, [t], req.rule, message=_NONFINITE)[0])


def _fd_stencil(t: float, a: float, b: float):
    """Central 5-point 4th-order stencil for d/dt at an interior t.

    The step h = min(1e-4*(b-a), 1e-2*d), d = min(t-a, b-t), keeps every
    point at least 0.98*d from the ends, so the stencil resolves the
    (t-a)**(1-alpha)-type growth of K near an end.
    """
    d = min(t - a, b - t)
    h = min(1e-4 * (b - a), 1e-2 * d)
    offsets = (-2.0, -1.0, 1.0, 2.0)
    pts = [t + o * h for o in offsets]
    # Far from the origin the float grid can be coarse against h.  The
    # derivative's relative error is then about the rounding of the sample
    # points over h, so refuse above 1e-6 (and h = 0, which a subnormal
    # interval length or distance to an end gives).
    if h == 0.0 or max(abs((x - t) - o * h) for x, o in zip(pts, offsets)) > 1e-6 * h:
        raise ValueError(
            f"differentiation step h={h} too small at t={t}, {d} from "
            f"an end of [{a}, {b}]: the sample points round by more than 1e-6*h"
        )
    # Next to an end e away from 0 the operand's arguments round by about
    # eps*|e|, which the stencil turns into a relative error of A up to
    # about 50*eps*|e|/d (measured against euler_oracle on ends from -1e3
    # to 101, orders 0.1 to 0.99).  Refuse where twice that exceeds 1e-6.
    end = a if t - a <= b - t else b
    if 100.0 * np.finfo(float).eps * abs(end) > 1e-6 * d:
        raise ValueError(
            f"differentiation step too small at t={t}, {d} from the end {end} "
            f"of [{a}, {b}]: rounding at that end, 100*eps*|{end}|, exceeds 1e-6*{d}"
        )
    return np.array(pts), np.array((1.0, -8.0, 8.0, -1.0)) / (12.0 * h)


def aop(req: OperatorRequest, f: FuncSpec, t: float) -> float:
    """Riemann-Liouville-type derivative: d/dt of the order-(1-alpha) integral.

    Evaluation is refused at the interval endpoints, where the derivative
    of a generic operand blows up like (t - a)**(-alpha).  Inside, a
    central difference of K takes the derivative; its step shrinks with
    the distance to the nearer end.  A point too close to an end for the
    float grid to place that step, for the rounding of the operand's
    arguments next to an end away from 0, or for the values of K to
    resolve it, is refused.
    """
    if req.kind != "A":
        raise ValueError(f"aop needs a request of kind 'A', got {req.kind!r}")
    if f.arity != 1:
        raise ValueError("aop acts on one-variable functions")
    P = req.pset
    if not P.a < t < P.b:
        raise ValueError(
            f"derivative evaluation refused at or beyond the endpoints: t={t!r} "
            f"not interior to ({P.a!r}, {P.b!r})"
        )
    pts, coeffs = _fd_stencil(t, P.a, P.b)
    kern = req.instantiated_kernel()
    vals = convolve(f.fn, P, kern, pts, req.rule, message=_NONFINITE)
    result = float(np.dot(coeffs, vals))
    # Rounding in the values of K, amplified by the stencil weights.  Where
    # the step has shrunk near an end that carries no weight, K is smooth,
    # A stays bounded and this noise can swamp it: refuse there.  At the
    # full step the noise is about 1e-12 of K's scale, so an A near 0
    # inside (a symmetric p-set at its midpoint) is still returned.
    d = min(t - P.a, P.b - t)
    noise = np.finfo(float).eps * float(np.abs(coeffs).sum() * np.abs(vals).max())
    if d < 1e-2 * (P.b - P.a) and noise > 1e-6 * abs(result):
        raise ValueError(
            f"differentiation step too small at t={t}, {d} from an end of "
            f"[{P.a}, {P.b}]: rounding in K, {noise:.1e}, exceeds 1e-6*|A f| "
            f"= {1e-6 * abs(result):.1e}"
        )
    return result


def bop(req: OperatorRequest, f: FuncSpec, t: float) -> float:
    """Caputo-type derivative: order-(1-alpha) integral of f'."""
    if req.kind != "B":
        raise ValueError(f"bop needs a request of kind 'B', got {req.kind!r}")
    if f.arity != 1:
        raise ValueError("bop acts on one-variable functions")
    P = req.pset
    if not P.a <= t <= P.b:
        raise ValueError(f"t={t!r} outside [{P.a!r}, {P.b!r}]")
    dfn = f.partial(1)
    kern = req.instantiated_kernel()
    return float(convolve(dfn, P, kern, [t], req.rule, message=_NONFINITE)[0])


def leibniz_boundary_terms(
    pset: ParameterSet, kernel: Kernel, fa: float, fb: float
):
    """Kernel-boundary correction linking the A and B operators.

    For a difference kernel and f in C^1,

        (A f)(t) = (B f)(t) + p f(a) k(t - a) - q f(b) k(b - t),

    obtained by differentiating the convolution halves under the integral
    sign.  Returns the callable t -> correction value (vectorized).
    """
    a, b, p, q = pset.as_tuple()

    def correction(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        if p != 0.0 and fa != 0.0:
            out += p * fa * np.asarray(kernel.evaluate(ts - a), dtype=float)
        if q != 0.0 and fb != 0.0:
            out -= q * fb * np.asarray(kernel.evaluate(b - ts), dtype=float)
        return out

    return correction


def _kop_values(req: OperatorRequest, f: FuncSpec, ts) -> np.ndarray:
    """Vectorized K-operator evaluation at many points (internal)."""
    ts = np.asarray(ts, dtype=float)
    if not ((ts >= req.pset.a) & (ts <= req.pset.b)).all():
        raise ValueError("evaluation points outside the p-set interval")
    kern = req.instantiated_kernel()
    return convolve(f.fn, req.pset, kern, ts, req.rule, message=_NONFINITE)
