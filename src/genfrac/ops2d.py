"""Generalized partial fractional operators on a rectangle.

Each partial operator acts on one coordinate of a two-variable function
while the other coordinate is held fixed, so every evaluation reduces to
the corresponding one-variable operator applied to the frozen slice.
That reduction is the implementation here, not just a property: there is
no independent 2D code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .funcspec import FuncSpec
from .ops1d import OperatorRequest, aop, bop, kop

__all__ = ["PartialRequest", "partial_kop", "partial_aop", "partial_bop"]


@dataclass(frozen=True)
class PartialRequest:
    """Active axis (1 or 2) plus the one-dimensional operator request.

    The base request's p-set interval is the rectangle extent along the
    active axis.
    """

    axis: int
    base: OperatorRequest

    def __post_init__(self) -> None:
        if self.axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {self.axis!r}")


def _slice(req: PartialRequest, f: FuncSpec, t1: float, t2: float) -> tuple[FuncSpec, float]:
    """f frozen at the point's other coordinate, and the checked active coordinate."""
    if f.arity != 2:
        raise ValueError("partial operators act on two-variable functions")
    active, frozen = (t1, t2) if req.axis == 1 else (t2, t1)
    P = req.base.pset
    if not P.a <= active <= P.b:
        raise ValueError(
            f"point outside rectangle: t{req.axis}={active!r} not in [{P.a!r}, {P.b!r}]"
        )
    return f.slice_along(req.axis, frozen), active


# kop/aop/bop are looked up in this module's globals at each call, so a
# wrapper set on genfrac.ops2d.kop (as perfbench/tracer.py does) sees it.
def partial_kop(req: PartialRequest, f: FuncSpec, t1: float, t2: float) -> float:
    """Partial integral-type operator along the active axis."""
    return kop(req.base, *_slice(req, f, t1, t2))


def partial_aop(req: PartialRequest, f: FuncSpec, t1: float, t2: float) -> float:
    """Partial Riemann-Liouville-type derivative along the active axis.

    Evaluation on the active-axis boundary is refused, matching the
    one-variable operator.
    """
    return aop(req.base, *_slice(req, f, t1, t2))


def partial_bop(req: PartialRequest, f: FuncSpec, t1: float, t2: float) -> float:
    """Partial Caputo-type derivative along the active axis."""
    return bop(req.base, *_slice(req, f, t1, t2))
