"""Expression mini-language: parsing, evaluation, derivatives, round-trips."""

import dataclasses

import numpy as np
import pytest

from genfrac.funcspec import FuncSpec, ParseError, parse_expression

TWO_SIN_HALF = 0.95885107720840600055


def test_product_tree_arity():
    f = parse_expression("t1*t2")
    assert f.arity == 2
    assert f(2.0, 3.0) == 6.0


def test_example_evaluation():
    f = parse_expression("sin(t1)*t2")
    assert f(0.5, 2.0) == pytest.approx(TWO_SIN_HALF, rel=1e-14)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as ei:
        parse_expression("t1 +")
    assert ei.value.offset == 4
    assert "offset 4" in str(ei.value)


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x'"):
        parse_expression("x + 1")


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse_expression("tanh(t)")


def test_unexpected_character():
    with pytest.raises(ParseError) as ei:
        parse_expression("t1 @ t2")
    assert ei.value.offset == 3


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(t1 + 1")
    with pytest.raises(ParseError):
        parse_expression("t1 + 1)")


def test_mixing_variable_styles_rejected():
    with pytest.raises(ParseError):
        parse_expression("t + t1")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_expression("t1*t2", arity=1)
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_expression("t", arity=2)


def test_constant_fits_requested_arity():
    c1 = parse_expression("2.5", arity=1)
    c2 = parse_expression("2.5", arity=2)
    assert c1(0.3) == 2.5
    assert c2(0.3, 0.7) == 2.5
    assert parse_expression("1").arity == 1


def test_precedence_and_unary():
    f = parse_expression("-t^2 + 2*t", arity=1)
    assert f(3.0) == pytest.approx(-9.0 + 6.0)
    g = parse_expression("2^3^2", arity=1)  # right associative
    assert g(0.0) == 512.0
    h = parse_expression("t^-0.5", arity=1)
    assert h(4.0) == pytest.approx(0.5)
    assert parse_expression("1 - -1", arity=1)(0.0) == 2.0


def test_scientific_literals():
    assert parse_expression("1e-3 + t", arity=1)(0.0) == pytest.approx(1e-3)


def test_round_trip_printed_form():
    rng = np.random.default_rng(42)
    sources = [
        "t1*t2",
        "sin(t1)*t2 + cos(t2)/(1+t1)",
        "exp(t1-t2)^2",
        "-t1^2.5 + 3*t2 - 1e-2",
        "log(1+t1) * (t2 - 0.5)",
    ]
    for src in sources:
        f = parse_expression(src)
        g = parse_expression(f.expr.text())
        pts = rng.uniform(0.01, 1.0, size=(100, 2))
        for x, y in pts:
            a = f(x, y)
            b = g(x, y)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for src in ["t^2.5", "sin(t)*exp(t)", "log(1+t)/(2-t)", "cos(t^2)", "t^t"]:
        f = parse_expression(src, arity=1)
        d = f.partial(1)
        for x in rng.uniform(0.1, 1.0, size=12):
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            assert d(x) == pytest.approx(fd, rel=5e-9, abs=1e-9), src


def test_partials_of_two_variable_expression():
    f = parse_expression("t1^2*t2 + sin(t2)")
    d1, d2 = f.partial(1), f.partial(2)
    assert d1(0.5, 2.0) == pytest.approx(2.0 * 0.5 * 2.0)
    assert d2(0.5, 2.0) == pytest.approx(0.25 + np.cos(2.0))


def test_vectorized_evaluation():
    f = parse_expression("t1+2*t2")
    X = np.array([[0.0], [1.0]])
    Y = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(f(X, Y), [[2.0, 4.0], [3.0, 5.0]])


def test_slice_along():
    f = parse_expression("t1^2*t2")
    s = f.slice_along(1, 3.0)  # t2 frozen at 3
    assert s.arity == 1
    assert s(2.0) == pytest.approx(12.0)
    assert s.partial(1)(2.0) == pytest.approx(12.0)  # d/dt1 = 2 t1 t2
    s2 = f.slice_along(2, 2.0)  # t1 frozen at 2
    assert s2(3.0) == pytest.approx(12.0)
    assert s2.partial(1)(3.0) == pytest.approx(4.0)  # d/dt2 = t1^2


def test_from_callable_without_derivative():
    f = FuncSpec.from_callable(lambda x: np.abs(x), arity=1, label="abs")
    assert f(-2.0) == 2.0
    with pytest.raises(ValueError, match="derivative"):
        f.partial(1)
    with pytest.raises(ValueError):
        FuncSpec.from_callable(lambda x: x, arity=3)


def test_c1_declaration_requires_partials():
    # C^1 is read from the partials, not declared
    assert not FuncSpec.from_callable(lambda x: x, arity=1).is_c1
    ok = FuncSpec.from_callable(
        lambda x: x,
        arity=1,
        partials=(lambda x: np.ones_like(np.asarray(x, dtype=float)),),
    )
    assert ok.is_c1


def test_cache_key_names_the_tree_and_arity():
    same = [parse_expression(s, arity=2) for s in ("sin(t1)*t2", " sin( t1 ) * t2 ")]
    assert same[0].cache_key == same[1].cache_key
    assert same[0].cache_key is not None
    distinct = [
        parse_expression(s, arity=2)
        for s in ("t1*t2", "t2*t1", "t1*t2+0", "1", "1.0000000000000002", "sin(t1)", "cos(t1)")
    ]
    distinct.append(parse_expression("1", arity=1))
    assert len({spec.cache_key for spec in distinct}) == len(distinct)
    # a rebuilt spec (e.g. with a wrapped fn) keeps the key of its tree
    assert dataclasses.replace(same[0], fn=lambda x, y: x).cache_key == same[0].cache_key
    assert FuncSpec.from_callable(lambda x, y: x * y, arity=2).cache_key is None
