"""Truncated power-series arithmetic: ring axioms, known expansions, roundtrips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrogup import gup
from entrogup.gup import REFERENCE_MINUS, REFERENCE_PLUS, deformation_pipeline, tsallis_coeffs
from entrogup.series import (
    TruncatedSeries,
    arctan_series,
    compose,
    exp_series,
    ln_one_plus,
    mul,
    sqrt_series,
    tan_series,
)

# Maclaurin coefficients computed independently (Mercator series, binomial
# 1/2-exponent, factorials, and the classical tangent numbers).
LN1P_COEFFS = (0.0, 1.0, -1 / 2, 1 / 3, -1 / 4, 1 / 5, -1 / 6, 1 / 7, -1 / 8)
EXP_COEFFS = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720, 1 / 5040, 1 / 40320)
SQRT1P_COEFFS = (1.0, 1 / 2, -1 / 8, 1 / 16, -5 / 128, 7 / 256, -21 / 1024)
TAN_COEFFS = (0.0, 1.0, 0.0, 1 / 3, 0.0, 2 / 15, 0.0, 17 / 315, 0.0, 62 / 2835)
ARCTAN_COEFFS = (0.0, 1.0, 0.0, -1 / 3, 0.0, 1 / 5, 0.0, -1 / 7, 0.0, 1 / 9)


def close(a, b, tol=1e-12):
    return all(abs(x - y) <= tol * (1.0 + abs(x) + abs(y)) for x, y in zip(a, b))


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=7,
)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    with pytest.raises(ValueError):
        TruncatedSeries((1.0, float("nan")))
    with pytest.raises(ValueError):
        TruncatedSeries((1.0, float("inf")))


def test_constant_and_variable():
    c = TruncatedSeries.constant(3.5, 4)
    assert c.coeffs == (3.5, 0.0, 0.0, 0.0, 0.0)
    x = TruncatedSeries.variable(3)
    assert x.coeffs == (0.0, 1.0, 0.0, 0.0)
    assert x.order == 3
    with pytest.raises(ValueError):
        TruncatedSeries.variable(0)


def test_truncated_never_extends():
    s = TruncatedSeries((1.0, 2.0, 3.0))
    assert s.truncated(1).coeffs == (1.0, 2.0)
    with pytest.raises(ValueError):
        s.truncated(5)


def test_mul_truncates_to_smaller_order():
    a = TruncatedSeries((1.0, 2.0, 3.0))
    sq = mul(a, a)
    # (1 + 2x + 3x^2)^2 = 1 + 4x + 10x^2 + O(x^3)
    assert sq.coeffs == (1.0, 4.0, 10.0)
    b = TruncatedSeries((1.0, 1.0))
    assert mul(a, b).order == 1


def test_scalar_arithmetic():
    a = TruncatedSeries((1.0, 2.0))
    assert (a + 1.0).coeffs == (2.0, 2.0)
    assert (1.0 + a).coeffs == (2.0, 2.0)
    assert (1.0 - a).coeffs == (0.0, -2.0)
    assert (2.0 * a).coeffs == (2.0, 4.0)
    assert (a * 0.5).coeffs == (0.5, 1.0)


@given(coeff_lists, coeff_lists)
@settings(max_examples=200)
def test_mul_commutes(u, v):
    a, b = TruncatedSeries(tuple(u)), TruncatedSeries(tuple(v))
    assert close(mul(a, b).coeffs, mul(b, a).coeffs)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=200)
def test_mul_associates(u, v, w):
    a, b, c = (TruncatedSeries(tuple(t)) for t in (u, v, w))
    left = mul(mul(a, b).truncated(min(a.order, b.order, c.order)), c)
    right = mul(a, mul(b, c).truncated(min(a.order, b.order, c.order)))
    assert close(left.coeffs, right.coeffs)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=200)
def test_mul_distributes_over_add(u, v, w):
    n = min(len(u), len(v), len(w)) - 1
    a, b, c = (TruncatedSeries(tuple(t[: n + 1])) for t in (u, v, w))
    assert close(mul(a, b + c).coeffs, (mul(a, b) + mul(a, c)).coeffs)


def test_compose_square():
    outer = TruncatedSeries((0.0, 0.0, 1.0, 0.0, 0.0))  # y^2
    inner = TruncatedSeries((0.0, 1.0, 1.0, 0.0, 0.0))  # x + x^2
    assert compose(outer, inner).coeffs == (0.0, 0.0, 1.0, 2.0, 1.0)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        compose(TruncatedSeries((1.0, 1.0)), TruncatedSeries((1.0, 1.0)))


def test_ln_one_plus_matches_mercator():
    u = TruncatedSeries.variable(8)
    assert close(ln_one_plus(u).coeffs, LN1P_COEFFS)
    with pytest.raises(ValueError):
        ln_one_plus(TruncatedSeries((0.5, 1.0)))


def test_exp_series_matches_factorials():
    u = TruncatedSeries.variable(8)
    out = exp_series(u)
    assert out.coeffs[0] == 1.0  # constant term comes out exact
    assert close(out.coeffs, EXP_COEFFS)
    with pytest.raises(ValueError):
        exp_series(TruncatedSeries((0.5, 1.0)))


def test_sqrt_series_matches_binomial():
    one_plus_x = TruncatedSeries((1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert close(sqrt_series(one_plus_x).coeffs, SQRT1P_COEFFS)
    with pytest.raises(ValueError):
        sqrt_series(TruncatedSeries((0.0, 1.0)))
    with pytest.raises(ValueError):
        sqrt_series(TruncatedSeries((-1.0, 1.0)))


def test_sqrt_of_scaled_constant():
    s = sqrt_series(TruncatedSeries.constant(4.0, 3))
    assert s.coeffs == (2.0, 0.0, 0.0, 0.0)


def test_tan_series_frozen_coefficients():
    assert close(tan_series(9).coeffs, TAN_COEFFS)


def test_arctan_series_frozen_coefficients():
    assert close(arctan_series(9).coeffs, ARCTAN_COEFFS)


def test_tan_compose_arctan_is_identity():
    n = 9
    ident = compose(tan_series(n), arctan_series(n))
    expected = (0.0, 1.0) + (0.0,) * (n - 1)
    assert close(ident.coeffs, expected)


small_inner = st.lists(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=7,
).map(lambda v: TruncatedSeries((0.0,) + tuple(v[1:])))


@given(small_inner)
@settings(max_examples=200)
def test_exp_ln_roundtrip(u):
    back = ln_one_plus(exp_series(u) - 1.0)
    assert close(back.coeffs, u.coeffs, tol=1e-10)


@given(small_inner)
@settings(max_examples=200)
def test_ln_exp_roundtrip(u):
    back = exp_series(ln_one_plus(u)) - 1.0
    assert close(back.coeffs, u.coeffs, tol=1e-10)


@given(
    st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=7,
    ),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=200)
def test_sqrt_squares_back(tail, c0):
    a = TruncatedSeries((c0,) + tuple(tail[1:]))
    r = sqrt_series(a)
    assert close(mul(r, r).coeffs, a.coeffs, tol=1e-10)


def test_values_match_math_functions():
    # summing the series at a small argument approximates the real function
    x = 0.1
    for series, ref in (
        (tan_series(15), math.tan(x)),
        (arctan_series(15), math.atan(x)),
        (ln_one_plus(TruncatedSeries.variable(15)), math.log1p(x)),
        (exp_series(TruncatedSeries.variable(15)), math.exp(x)),
    ):
        total = math.fsum(c * x**m for m, c in enumerate(series.coeffs))
        assert abs(total - ref) < 1e-15 * (1 + abs(ref)) + 1e-16


# --------------------------------------------------------------------------
# array implementations against the object-per-step reference
#
# The reference functions below build a TruncatedSeries after every step, as
# the series core once did.  The array versions keep each operation in the
# same order, so results must be equal bit for bit, not approximately.


def ref_mul(a, b):
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncatedSeries(tuple(float(c) for c in full[: n + 1]))


def ref_ln_one_plus(u):
    if u.coeffs[0] != 0.0:
        raise ValueError("ln(1+u) requires a series with zero constant term")
    n = u.order
    acc = np.zeros(n + 1)
    power = u
    for m in range(1, n + 1):
        sign = 1.0 if m % 2 else -1.0
        acc += np.asarray(power.coeffs) * (sign / m)
        if m < n:
            power = ref_mul(power, u)
    return TruncatedSeries(tuple(float(c) for c in acc))


def ref_exp_series(u):
    if u.coeffs[0] != 0.0:
        raise ValueError("exp(u) requires a series with zero constant term")
    acc = TruncatedSeries.constant(1.0, u.order)
    for m in range(u.order, 0, -1):
        acc = ref_mul(acc, u) * (1.0 / m) + 1.0
    return acc


def ref_compose(outer, inner):
    if inner.coeffs[0] != 0.0:
        raise ValueError("composition requires an inner series with zero constant term")
    n = min(outer.order, inner.order)
    oc = outer.coeffs[: n + 1]
    inner_t = inner.truncated(n)
    acc = TruncatedSeries.constant(oc[-1], n)
    for c in reversed(oc[:-1]):
        acc = ref_mul(acc, inner_t) + c
    return acc


def outcome(fn, *args):
    """Coefficients of the result, or the error message it raised."""
    try:
        return fn(*args).coeffs
    except ValueError as exc:
        return str(exc)


def series_of_order(lo, hi, zero_constant=False):
    # wide magnitudes so that some powers overflow and both sides must refuse
    coeff = st.floats(min_value=-1e30, max_value=1e30, allow_nan=False,
                      allow_infinity=False)
    tails = st.integers(lo, hi).flatmap(lambda n: st.lists(coeff, min_size=n, max_size=n))
    if zero_constant:
        return tails.map(lambda t: TruncatedSeries((0.0, *t)))
    return st.tuples(coeff, tails).map(lambda ct: TruncatedSeries((ct[0], *ct[1])))


@given(series_of_order(1, 24), series_of_order(1, 24))
@settings(max_examples=300)
def test_mul_equals_reference(a, b):
    assert outcome(mul, a, b) == outcome(ref_mul, a, b)


@given(series_of_order(1, 24, zero_constant=True))
@settings(max_examples=300)
def test_ln_one_plus_equals_reference(u):
    assert outcome(ln_one_plus, u) == outcome(ref_ln_one_plus, u)


@given(series_of_order(1, 24, zero_constant=True))
@settings(max_examples=300)
def test_exp_series_equals_reference(u):
    assert outcome(exp_series, u) == outcome(ref_exp_series, u)


@given(series_of_order(1, 24), series_of_order(1, 24, zero_constant=True))
@settings(max_examples=300)
def test_compose_equals_reference(outer, inner):
    assert outcome(compose, outer, inner) == outcome(ref_compose, outer, inner)


def reference_pipeline(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as patched:
        for name, ref in (("compose", ref_compose), ("ln_one_plus", ref_ln_one_plus),
                          ("exp_series", ref_exp_series)):
            patched.setattr(gup, name, ref)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("coeffs", [REFERENCE_PLUS, REFERENCE_MINUS], ids=["plus", "minus"])
@pytest.mark.parametrize("order", range(4, 17, 2))
def test_pipeline_equals_reference(coeffs, order, monkeypatch):
    expected = reference_pipeline(monkeypatch, deformation_pipeline, coeffs, order=order)
    assert deformation_pipeline(coeffs, order=order) == expected


@pytest.mark.parametrize("order", range(2, 9))
def test_tsallis_coeffs_equal_reference(order, monkeypatch):
    for q in (-2.0, 0.3, 0.5, 0.9, 0.999, 1.1, 1.5, 3.0):
        expected = reference_pipeline(monkeypatch, tsallis_coeffs, q, order=order)
        assert tsallis_coeffs(q, order=order) == expected


@pytest.mark.parametrize(
    "fn, args",
    [
        (ln_one_plus, (TruncatedSeries((0.0, 1e200, 0.0, 0.0, 0.0)),)),
        (ln_one_plus, (TruncatedSeries((0.0, 1e200, -1e200, 1e200, 0.0)),)),
        # every power is finite; the sum -1.7e308 - 8.45e307 overflows
        (ln_one_plus, (TruncatedSeries((0.0, 1.3e154, -1.7e308)),)),
        (exp_series, (TruncatedSeries((0.0, 1e300, 1e300, 0.0)),)),
        (compose, (TruncatedSeries((0.0, 1e300, 1e300)), TruncatedSeries((0.0, 1e300, 1e300)))),
        (compose, (TruncatedSeries((1.0, 1.0, 1.0, 1e300)), TruncatedSeries((0.0, 1e300, 0.0, 0.0)))),
        (mul, (TruncatedSeries((1e300, 1e300)), TruncatedSeries((1e300, -1e300)))),
        # every product is finite; fsum's running sum 1.7e308 + 1.7e308 overflows
        (sqrt_series, (TruncatedSeries((0.25, 1.0, 1.7e308, 0.0)),)),
        # the x**4 cross terms are -inf, +inf, -inf
        (sqrt_series, (TruncatedSeries((0.25, 1e154, 1.7e308, 0.0, -1.7e308)),)),
    ],
)
@pytest.mark.filterwarnings("error")  # an overflow on the way must not warn
def test_overflowing_intermediates_are_refused(fn, args):
    with pytest.raises(ValueError, match="series coefficients must be finite"):
        fn(*args)
