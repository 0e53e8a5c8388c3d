"""Truncated power-series arithmetic: ring axioms, known expansions, roundtrips."""

import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from entrogup import gup
from entrogup.ansatz import REFERENCE_MINUS, REFERENCE_PLUS
from entrogup.errors import NumericalError
from entrogup.gup import deformation_pipeline, tsallis_coeffs
from entrogup.maxent import AnsatzCoeffs
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
    with pytest.raises(ValueError):
        TruncatedSeries.constant(1.0, -3)


def test_truncated_never_extends():
    s = TruncatedSeries((1.0, 2.0, 3.0))
    assert s.truncated(1).coeffs == (1.0, 2.0)
    with pytest.raises(ValueError):
        s.truncated(5)
    # a negative order is refused, not read as a slice end
    with pytest.raises(ValueError):
        s.truncated(-2)


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


def test_compose_drops_an_overflow_above_the_truncation():
    # 1e300 (1e10 x**2)**3 is an x**6 term; on the way, 1e310 x**2 overflows
    outer = TruncatedSeries((0.0, 0.0, 0.0, 1e300))
    inner = TruncatedSeries((0.0, 0.0, 1e10, 0.0))
    assert compose(outer, inner).coeffs == (0.0, 0.0, 0.0, 0.0)


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
# the recurrences against an object-per-step reference
#
# ref_mul, ref_ln_one_plus, ref_exp_series and ref_sqrt_series build a
# TruncatedSeries after every coefficient, so a non-finite one is refused where
# it appears.  The reference functions keep the library's terms, their order
# within each fsum and its zero skipping (a term whose second-operand
# coefficient is 0 is left out), so results must be equal bit for bit, not
# approximately.


def ref_fsum(terms):
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        raise ValueError("series coefficients must be finite") from None


def ref_product_coeff(a, b, m):
    """``[x^m]`` of the product of two coefficient sequences."""
    return ref_fsum([a[m - j] * b[j] for j in range(m + 1) if b[j] != 0.0])


def ref_mul(a, b):
    out = ()
    for m in range(min(a.order, b.order) + 1):
        out = TruncatedSeries(out + (ref_product_coeff(a.coeffs, b.coeffs, m),)).coeffs
    return TruncatedSeries(out)


def ref_ln_one_plus(u):
    if u.coeffs[0] != 0.0:
        raise ValueError("ln(1+u) requires a series with zero constant term")
    w = TruncatedSeries((0.0,))
    for m in range(1, u.order + 1):
        # k = m - j runs down from m - 1; (k/m) is rounded once
        terms = [(m - j) / m * w.coeffs[m - j] * u.coeffs[j]
                 for j in range(1, m) if u.coeffs[j] != 0.0]
        w = TruncatedSeries(w.coeffs + (u.coeffs[m] - ref_fsum(terms),))
    return w


def ref_exp_series(u):
    if u.coeffs[0] != 0.0:
        raise ValueError("exp(u) requires a series with zero constant term")
    e = TruncatedSeries((1.0,))
    for m in range(1, u.order + 1):
        terms = [k * u.coeffs[k] * e.coeffs[m - k]
                 for k in range(1, m + 1) if u.coeffs[k] != 0.0]
        e = TruncatedSeries(e.coeffs + (ref_fsum(terms) / m,))
    return e


def ref_sqrt_series(a):
    if a.coeffs[0] <= 0.0:
        raise ValueError("sqrt needs a series with positive constant term")
    s = TruncatedSeries((math.sqrt(a.coeffs[0]),))
    for m in range(1, a.order + 1):
        cross = ref_fsum([s.coeffs[j] * s.coeffs[m - j] for j in range(1, m)])
        s = TruncatedSeries(s.coeffs + ((a.coeffs[m] - cross) / (2.0 * s.coeffs[0]),))
    return s


def ref_compose(outer, inner):
    if inner.coeffs[0] != 0.0:
        raise ValueError("composition requires an inner series with zero constant term")
    n = min(outer.order, inner.order)
    oc = outer.coeffs[: n + 1]
    # The Horner accumulators are not results: one that overflows is carried
    # as inf, and drops out where it lies above the truncation.
    acc = [oc[-1]] + [0.0] * n
    for c in reversed(oc[:-1]):
        acc = [ref_product_coeff(acc, inner.coeffs, m) for m in range(n + 1)]
        acc[0] += c
    return TruncatedSeries(acc)


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


@given(series_of_order(1, 24))
@settings(max_examples=300)
def test_sqrt_series_equals_reference(a):
    assert outcome(sqrt_series, a) == outcome(ref_sqrt_series, a)
    # a positive constant term, so that the recurrence runs (and may overflow)
    a = TruncatedSeries((abs(a.coeffs[0]) + 1.0, *a.coeffs[1:]))
    assert outcome(sqrt_series, a) == outcome(ref_sqrt_series, a)


@given(series_of_order(1, 24), series_of_order(1, 24, zero_constant=True))
# 4.5e29 (7.2e27 x**2)**10 overflows at x**20 on the way to a x**40 term
@example(TruncatedSeries((0.0,) * 20 + (4.4841532885046256e29,)),
         TruncatedSeries((0.0, 0.0, 7.24942416204796e27) + (0.0,) * 18))
@settings(max_examples=300)
def test_compose_equals_reference(outer, inner):
    assert outcome(compose, outer, inner) == outcome(ref_compose, outer, inner)


def reference_pipeline(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as patched:
        for name, ref in (("ln_one_plus", ref_ln_one_plus), ("exp_series", ref_exp_series)):
            patched.setattr(gup, name, ref)
        return fn(*args, **kwargs)


# The pipeline's three stages as seven series, one after each step: the ln
# input and result, H_eff, the root's input and result, the momentum and its
# normalization.  The library builds only the three it reports, from the
# list-level recurrences; its bits and messages must be these.


def ref_hamiltonian(coeffs, order):
    ln_w = ref_ln_one_plus(TruncatedSeries(rescaled_ansatz(coeffs, order // 2)))
    h_k = [0.0] * (order + 1)
    h_k[::2] = [0.0 - c for c in ln_w.coeffs]
    h_k[2] += 0.5
    return TruncatedSeries(h_k)


def ref_momentum(h):
    root = ref_sqrt_series(TruncatedSeries(tuple(2.0 * c for c in h.coeffs[2::2])))
    p_k = [0.0] * h.order
    p_k[1::2] = root.coeffs
    return TruncatedSeries(p_k)


def ref_normalize(p):
    return TruncatedSeries(tuple(c / p.coeffs[1] for c in p.coeffs))


def pipeline_bits(coeffs, order, reference=False):
    """The bits of deformation_pipeline's report, or the type and message of
    what it raised; with ``reference``, run on the reference stages."""
    with pytest.MonkeyPatch.context() as patched:
        if reference:
            patched.setattr(gup, "effective_hamiltonian_series", ref_hamiltonian)
            patched.setattr(gup, "effective_momentum_series", ref_momentum)
            patched.setattr(gup, "normalize_momentum", ref_normalize)
        try:
            report = deformation_pipeline(coeffs, order=order)
        except (ValueError, NumericalError) as exc:
            return type(exc), str(exc)
    series = (report.hamiltonian, report.momentum, report.momentum_normalized)
    numbers = (report.alpha0_pipeline, report.alpha0_closed, report.discrepancy)
    return [tuple(map(float.hex, s.coeffs)) for s in series] + list(map(float.hex, numbers))


@pytest.mark.parametrize("coeffs", [REFERENCE_PLUS, REFERENCE_MINUS], ids=["plus", "minus"])
@pytest.mark.parametrize("order", range(4, 17, 2))
def test_pipeline_equals_reference(coeffs, order):
    assert pipeline_bits(coeffs, order) == pipeline_bits(coeffs, order, reference=True)


# Degrees 1-8 at even orders 4-256, a1 of either sign, and higher coefficients
# up to 1e9, large enough that the root's sums overflow on some draws.
@pytest.mark.parametrize("degree", range(1, 9))
def test_pipeline_equals_reference_on_seeded_coefficients(degree):
    rng = random.Random(degree)
    served = 0
    for i in range(24):
        scale = 10.0 ** rng.uniform(-3.0, 9.0)
        a1 = (-1.0) ** i * rng.uniform(0.0, 0.99)
        coeffs = AnsatzCoeffs((1.0, a1, *(rng.uniform(-scale, scale) for _ in range(degree - 1))))
        order = 2 * rng.randint(2, 128)
        got = pipeline_bits(coeffs, order)
        assert got == pipeline_bits(coeffs, order, reference=True)
        served += isinstance(got, list)
    # at degree 1, ln(1 + a1 y/2) with |a1| < 1 overflows at no order
    assert (served == 24) if degree == 1 else (0 < served < 24)


# The pipeline inputs of the console-script checks in CI: |alpha0| = 8.35e7
# with a one-ulp discrepancy at order 8, and overflowing root sums at 256.
@pytest.mark.parametrize(
    "a, order, refusal",
    [
        ((1.0, 0.273, 80985000.0), 8, None),
        ((1.0, 0.273, 80985000.0), 256, "series coefficients must be finite"),
        ((1.0, 0.0, 0.0, -1e8), 256, "series coefficients must be finite"),
    ],
)
def test_pipeline_equals_reference_on_the_ci_inputs(a, order, refusal):
    got = pipeline_bits(AnsatzCoeffs(a), order)
    assert got == pipeline_bits(AnsatzCoeffs(a), order, reference=True)
    if refusal is None:
        assert isinstance(got, list)
    else:
        assert got == (ValueError, refusal)


@pytest.mark.parametrize("order", range(2, 9))
def test_tsallis_coeffs_equal_reference(order, monkeypatch):
    for q in (-2.0, 0.3, 0.5, 0.9, 0.999, 1.1, 1.5, 3.0):
        expected = reference_pipeline(monkeypatch, tsallis_coeffs, q, order=order)
        assert tsallis_coeffs(q, order=order) == expected


# --------------------------------------------------------------------------
# accuracy against the same recurrences in 80-digit mpmath, on the same doubles
#
# A coefficient whose terms cancel loses at most some 20 of the 80 digits
# here, so these are the exact coefficients of the double inputs.  Errors are
# counted in each coefficient's own ulp.


def mp_ln_one_plus(u):
    """Coefficients of ``ln(1 + u)`` as mpf values, for a list of doubles."""
    u = [mpmath.mpf(c) for c in u]
    w = [mpmath.mpf(0)] * len(u)
    with mpmath.workdps(80):
        for m in range(1, len(u)):
            w[m] = u[m] - mpmath.fsum(mpmath.mpf(k) / m * w[k] * u[m - k] for k in range(1, m))
    return w


def mp_exp_series(u):
    """Coefficients of ``exp(u)`` as mpf values, for a list of doubles."""
    u = [mpmath.mpf(c) for c in u]
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(u) - 1)
    with mpmath.workdps(80):
        for m in range(1, len(u)):
            e[m] = mpmath.fsum(k * u[k] * e[m - k] for k in range(1, m + 1)) / m
    return e


def worst_ulps(got, exact):
    return max(float(abs(mpmath.mpf(g) - x)) / math.ulp(float(x)) for g, x in zip(got, exact))


def rescaled_ansatz(coeffs, half):
    """The pipeline's ``ln`` input: ``a_j 2**-j`` for ``j = 1..half``."""
    tail = [math.ldexp(a, -j) for j, a in enumerate(coeffs.a[1 : half + 1], 1)]
    return (0.0, *tail) + (0.0,) * (half - len(tail))


# The Horner route of powers of u measured 1.1 / 166 / 8.3e5 ulp (minus) and
# 0.3 / 37 / 1.2e7 ulp (plus) here.
@pytest.mark.parametrize(
    "coeffs, half, bound",
    [
        (REFERENCE_MINUS, 4, 1),
        (REFERENCE_MINUS, 32, 128),
        (REFERENCE_MINUS, 128, 512),
        (REFERENCE_PLUS, 4, 1),
        (REFERENCE_PLUS, 32, 8),
        (REFERENCE_PLUS, 128, 32),
    ],
    ids=["minus-4", "minus-32", "minus-128", "plus-4", "plus-32", "plus-128"],
)
def test_ln_one_plus_within_ulps_of_mpmath(coeffs, half, bound):
    u = rescaled_ansatz(coeffs, half)
    assert worst_ulps(ln_one_plus(TruncatedSeries(u)).coeffs, mp_ln_one_plus(u)) <= bound


# tsallis_coeffs' input to exp: ln(1 - lam x)/lam + x.  The Horner route
# measured up to 323 ulp at order 32 and 6.7e3 at order 128.
@pytest.mark.parametrize("q", [0.05, 0.3, 1.5, 3.0])
@pytest.mark.parametrize("order, bound", [(4, 1), (32, 256), (128, 1024)])
def test_exp_series_within_ulps_of_mpmath(q, order, bound):
    lam = 1.0 - q
    log_part = ln_one_plus(TruncatedSeries((0.0, -lam) + (0.0,) * (order - 1))) * (1.0 / lam)
    u = (0.0, 0.0) + log_part.coeffs[2:]
    assert worst_ulps(exp_series(TruncatedSeries(u)).coeffs, mp_exp_series(u)) <= bound


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


def test_series_times_series_is_mul():
    rng = random.Random(38)
    for n, m in ((3, 3), (5, 2), (1, 6)):
        a = TruncatedSeries([rng.uniform(-2.0, 2.0) for _ in range(n + 1)])
        b = TruncatedSeries([rng.uniform(-2.0, 2.0) for _ in range(m + 1)])
        assert a * b == mul(a, b) and (a * b).order == min(n, m)
        assert b * a == mul(b, a)
