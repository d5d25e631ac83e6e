import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.pset import ParameterSet, dual, standard_left, standard_right


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


@pytest.mark.parametrize(
    "fields", [(0.0, 1.0, True, False), (False, True, 1.0, 0.0), (0.0, 1.0, 1.0, False)]
)
def test_bool_fields_rejected(fields):
    with pytest.raises(ValueError, match="finite real"):
        ParameterSet(*fields)


def test_text_round_trip():
    P = ParameterSet(-1.5, 2.0, 0.25, -3.0)
    assert ParameterSet.from_text(P.to_text()) == P
    assert ParameterSet.from_text("0,1,1,0") == standard_left(0.0, 1.0)
    with pytest.raises(ValueError):
        ParameterSet.from_text("0,1,1")
    with pytest.raises(ValueError):
        ParameterSet.from_text("0,1,1,x")
