"""Parameter sets, their duals and their text form.

Every operator in the package is indexed by a parameter set: the interval
endpoints and the weights of the leftward and rightward convolution
halves.  The evaluation point varies over the interval and is therefore
an argument of the operators, not a field here.

A p-set spec is the text of one p-set; ``parse_psets`` is its one reader::

    left        <a, b, 1, 0>       the classical left-sided operators
    right       <a, b, 0, 1>       the classical right-sided operators
    mixed       <a, b, 0.5, 0.5>
    mixed:p,q   <a, b, p, q>       also written mixed:p:q
    a,b,p,q     <a, b, p, q>       raw, the only form that carries its interval

Specs are joined by commas (``mixed:0.3,0.7,left`` is a pair), blanks
around tokens are ignored and numbers are finite float literals.
``ParameterSet.to_text`` writes the raw form, which reads back exactly.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass

__all__ = [
    "ParameterSet", "dual", "format_number", "parse_psets", "standard_left", "standard_right"
]


def finite(v) -> bool:
    """``math.isfinite(v)``, but False, not OverflowError, past the float range."""
    try:
        return math.isfinite(v)
    except OverflowError:  # an int or Fraction too large for a float
        return False


def real(v, what: str) -> float:
    """``v`` as a float: any finite real number, numpy's too, except a bool.

    Anything else raises ValueError naming ``what``.
    """
    # float first: it answers at once, and the ABC check is several times slower
    if not (isinstance(v, (float, numbers.Real)) and not isinstance(v, bool) and finite(v)):
        raise ValueError(f"{what} must be a finite real, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class ParameterSet:
    """Immutable p-set <a, b, p, q> with a < b and finite weights.

    Each field takes any real number, numpy's too, except a bool, and is
    stored as a float.
    """

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "p", "q"):
            object.__setattr__(self, name, real(getattr(self, name), f"p-set field {name}"))
        if not self.a < self.b:
            raise ValueError(f"p-set needs a < b, got a={self.a!r}, b={self.b!r}")
        # Below the smallest normal double the width keeps too few bits:
        # the operators lose accuracy without warning, then return nan.
        if self.b - self.a < sys.float_info.min:
            raise ValueError(
                f"p-set interval [{self.a!r}, {self.b!r}] is too small: its width "
                f"{self.b - self.a!r} is below the smallest normal double "
                f"{sys.float_info.min!r}"
            )
        # So does a nonzero weight that small: the terms it scales underflow,
        # and a check of them reads as total failure.
        for name in ("p", "q"):
            v = getattr(self, name)
            if 0.0 < abs(v) < sys.float_info.min:
                raise ValueError(
                    f"p-set weight {name}={v!r} is nonzero but below the smallest "
                    f"normal double {sys.float_info.min!r}"
                )

    def dual(self) -> "ParameterSet":
        """Swap the weights p and q; the interval is unchanged."""
        return ParameterSet(self.a, self.b, self.q, self.p)

    def to_text(self) -> str:
        """The raw spec ``a,b,p,q``."""
        return ",".join(map(format_number, self.as_tuple()))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.p, self.q)


def format_number(x: float) -> str:
    """Report text of x: the ``:g`` form when it reads back as x, else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


# A number is a finite float() literal; float() also takes digits grouped by "_".
_DIGITS = r"\d(?:_?\d)*"
_NUM = rf"\s*([+-]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?)\s*"
# One spec; its groups are the shape name, mixed's p and q, and raw a, b, p, q.
_SPEC = rf"\s*(left|right|mixed)\s*|\s*mixed\s*:{_NUM}[,:]{_NUM}|{_NUM},{_NUM},{_NUM},{_NUM}"
_GROUPS = re.compile(_SPEC).groups
_FORMS = "left | right | mixed | mixed:p,q | mixed:p:q | a,b,p,q"
_SHAPES = {"left": (1.0, 0.0), "right": (0.0, 1.0), "mixed": (0.5, 0.5)}


def parse_psets(text: str, *intervals: tuple[float, float] | None) -> tuple[ParameterSet, ...]:
    """Read one p-set spec per interval from ``text``, specs joined by commas.

    A shape spec (left, right, mixed...) takes [a, b] from its interval;
    where the interval is None only the raw ``a,b,p,q`` is accepted.
    """
    m = re.fullmatch(",".join([f"(?:{_SPEC})"] * len(intervals)), text)
    if m is None:
        raise ValueError(
            f"bad p-set spec {text!r}: expected {len(intervals)} spec(s) joined by "
            f"commas, each one of {_FORMS}"
        )
    psets = []
    for k, interval in enumerate(intervals):
        shape, mixed_p, mixed_q, *raw = m.groups()[_GROUPS * k : _GROUPS * (k + 1)]
        if raw[0] is not None:
            fields = tuple(map(float, raw))
        elif interval is None:
            raise ValueError(f"bad p-set spec {text!r}: expected the raw form a,b,p,q")
        else:
            weights = _SHAPES[shape] if shape else (float(mixed_p), float(mixed_q))
            fields = (*interval, *weights)
        try:
            psets.append(ParameterSet(*fields))
        except ValueError as exc:
            raise ValueError(f"bad p-set spec {text!r}: {exc}") from None
    return tuple(psets)


def dual(pset: ParameterSet) -> ParameterSet:
    return pset.dual()


def standard_left(a: float, b: float) -> ParameterSet:
    """The p-set <a, b, 1, 0> that selects the leftward convolution only."""
    return ParameterSet(a, b, 1.0, 0.0)


def standard_right(a: float, b: float) -> ParameterSet:
    """The p-set <a, b, 0, 1> that selects the rightward convolution only."""
    return ParameterSet(a, b, 0.0, 1.0)
