from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.pset import ParameterSet, dual, parse_psets, standard_left, standard_right
from genfrac.specfun import tempered_family


def test_dual_swaps_weights():
    assert dual(ParameterSet(0.0, 1.0, 1.0, 0.0)) == ParameterSet(0.0, 1.0, 0.0, 1.0)


def test_symmetric_pset_self_dual():
    P = ParameterSet(0.0, 1.0, 0.3, 0.3)
    assert dual(P) == P


def test_dual_is_involution_example():
    P = ParameterSet(-1.0, 2.0, 0.7, -0.2)
    assert dual(dual(P)) == P


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(a=_finite, width=st.floats(1e-6, 1e6), p=_finite, q=_finite)
def test_dual_involution_and_interval_preserved(a, width, p, q):
    P = ParameterSet(a, a + width, p, q)
    D = dual(P)
    assert (D.a, D.b) == (P.a, P.b)
    DD = dual(D)
    assert (DD.a, DD.b, DD.p, DD.q) == (P.a, P.b, P.p, P.q)


def test_standard_psets():
    assert standard_left(0.0, 1.0) == ParameterSet(0.0, 1.0, 1.0, 0.0)
    assert standard_right(0.0, 1.0) == ParameterSet(0.0, 1.0, 0.0, 1.0)
    assert dual(standard_left(0.0, 1.0)) == standard_right(0.0, 1.0)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        ParameterSet(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ParameterSet(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        standard_left(2.0, 2.0)
    with pytest.raises(ValueError):
        ParameterSet(0.0, float("inf"), 1.0, 0.0)
    with pytest.raises(ValueError):
        ParameterSet(0.0, 1.0, float("nan"), 0.0)


@pytest.mark.parametrize("b", [1e-320, 5e-324, 2.2e-308])
def test_subnormal_width_rejected(b):
    # at such widths K drifts, then turns into nan, without a warning
    with pytest.raises(ValueError, match=f"too small: its width {b!r}"):
        ParameterSet(0.0, b, 1.0, 0.0)
    assert ParameterSet(0.0, 2.3e-308, 1.0, 0.0).b == 2.3e-308


@pytest.mark.parametrize(
    "fields",
    [
        (0.0, 1.0, True, False),
        (False, True, 1.0, 0.0),
        (0.0, 1.0, 1.0, False),
        (0.0, 1.0, np.True_, 0.0),
    ],
)
def test_bool_fields_rejected(fields):
    with pytest.raises(ValueError, match="finite real"):
        ParameterSet(*fields)


@pytest.mark.parametrize("real", [np.int64, np.float32, np.float64, np.int8, Fraction])
def test_numpy_and_other_reals_are_stored_as_floats(real):
    P = ParameterSet(real(-1), real(2), real(1) / real(2), real(0))
    assert [type(v) for v in P.as_tuple()] == [float] * 4
    assert P.as_tuple() == (-1.0, 2.0, 0.5, 0.0)
    assert P.to_text() == "-1,2,0.5,0"


def test_text_round_trip():
    P = ParameterSet(-1.5, 2.0, 0.25, -3.0)
    assert parse_psets(P.to_text(), None) == (P,)
    assert parse_psets("0,1,1,0", None) == (standard_left(0.0, 1.0),)
    with pytest.raises(ValueError):
        parse_psets("0,1,1", None)
    with pytest.raises(ValueError):
        parse_psets("0,1,1,x", None)


@settings(max_examples=200, deadline=None)
@given(a=_finite, width=st.floats(1e-6, 1e6), p=_finite, q=_finite)
def test_text_round_trip_is_lossless(a, width, p, q):
    P = ParameterSet(a, a + width, p, q)
    assert parse_psets(P.to_text(), None) == (P,)


def test_report_text_keeps_every_digit():
    assert ParameterSet(0.0, 1234567.0, 1.0, 0.0).to_text() == "0,1234567.0,1,0"
    assert ParameterSet(0.0, 1.0, 0.123456789, 0.5).to_text() == "0,1,0.123456789,0.5"
    assert tempered_family(1.0000001).label == "tempered(lam=1.0000001)"
    assert tempered_family(1.0).label == "tempered(lam=1)"


UNIT, TWO = (0.0, 1.0), (0.0, 2.0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("left,left", ((0, 1, 1, 0), (0, 2, 1, 0))),
        ("right,mixed", ((0, 1, 0, 1), (0, 2, 0.5, 0.5))),
        ("mixed,mixed", ((0, 1, 0.5, 0.5), (0, 2, 0.5, 0.5))),
        ("mixed:0.5,0.5,left", ((0, 1, 0.5, 0.5), (0, 2, 1, 0))),
        ("mixed:0.5:0.5,left", ((0, 1, 0.5, 0.5), (0, 2, 1, 0))),
        ("left,mixed:0.3,0.7", ((0, 1, 1, 0), (0, 2, 0.3, 0.7))),
        ("0,1,0.3,0.7,right", ((0, 1, 0.3, 0.7), (0, 2, 0, 1))),
        ("0,1,1,0,0,2,0,1", ((0, 1, 1, 0), (0, 2, 0, 1))),
        ("left, right", ((0, 1, 1, 0), (0, 2, 0, 1))),
        (" 0, 1, 1, 0 , mixed : 0.3 : 0.7", ((0, 1, 1, 0), (0, 2, 0.3, 0.7))),
        ("-1e-3,1.5e2,.5,5.,left", ((-1e-3, 150, 0.5, 5), (0, 2, 1, 0))),
    ],
)
def test_pair_grammar(text, expected):
    assert parse_psets(text, UNIT, TWO) == tuple(ParameterSet(*e) for e in expected)


@pytest.mark.parametrize(
    "text",
    ["left", "left,left,left", "Left,left", "mixed:0.3,right", "mixed:,left", "mixed:1,left",
     "0,1,1,left", "left,0,1,1", "left,", "inf,1,1,0,left", "1,0,1,0,left"],
)
def test_pair_grammar_rejects_with_spec_and_forms(text):
    with pytest.raises(ValueError, match="bad p-set spec") as info:
        parse_psets(text, UNIT, TWO)
    assert repr(text) in str(info.value)


@pytest.mark.parametrize("text", ["left", "mixed", "mixed:0.3,0.7"])
def test_shapes_need_an_interval(text):
    with pytest.raises(ValueError, match="raw form a,b,p,q"):
        parse_psets(text, None)
