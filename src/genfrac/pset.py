"""Parameter sets and their duals.

Every operator in the package is indexed by a parameter set: the interval
endpoints and the weights of the leftward and rightward convolution
halves.  The evaluation point varies over the interval and is therefore
an argument of the operators, not a field here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ParameterSet", "dual", "standard_left", "standard_right"]


@dataclass(frozen=True)
class ParameterSet:
    """Immutable p-set <a, b, p, q> with a < b and finite weights."""

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "p", "q"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"p-set field {name} must be a finite real, got {v!r}")
        if not self.a < self.b:
            raise ValueError(f"p-set needs a < b, got a={self.a!r}, b={self.b!r}")

    def dual(self) -> "ParameterSet":
        """Swap the weights p and q; the interval is unchanged."""
        return ParameterSet(self.a, self.b, self.q, self.p)

    @classmethod
    def from_text(cls, text: str) -> "ParameterSet":
        """Parse the textual form ``a,b,p,q``."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"p-set text must be 'a,b,p,q', got {text!r}")
        try:
            a, b, p, q = (float(s) for s in parts)
        except ValueError:
            raise ValueError(f"non-numeric field in p-set text {text!r}") from None
        return cls(a, b, p, q)

    def to_text(self) -> str:
        return f"{self.a:g},{self.b:g},{self.p:g},{self.q:g}"

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.p, self.q)


def dual(pset: ParameterSet) -> ParameterSet:
    return pset.dual()


def standard_left(a: float, b: float) -> ParameterSet:
    """The p-set <a, b, 1, 0> that selects the leftward convolution only."""
    return ParameterSet(a, b, 1.0, 0.0)


def standard_right(a: float, b: float) -> ParameterSet:
    """The p-set <a, b, 0, 1> that selects the rightward convolution only."""
    return ParameterSet(a, b, 0.0, 1.0)
