"""Coefficients-to-deformation pipeline and the deformed uncertainty relation."""

import math
import pickle
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from entrogup import gup
from entrogup.errors import NumericalError
from entrogup.gup import (
    QEXP_PIPELINE_RATIO,
    REFERENCE_MINUS,
    REFERENCE_PLUS,
    GupParams,
    commutator_rhs,
    deformation_closed,
    deformation_pipeline,
    effective_hamiltonian_series,
    effective_momentum_series,
    k_of_p,
    normalize_momentum,
    p_of_k,
    regime_summary,
    tsallis_coeffs,
    uncertainty_lower_bound,
)
from entrogup.maxent import AnsatzCoeffs
from entrogup.series import (
    MAX_ORDER,
    TruncatedSeries,
    compose,
    ln_one_plus,
    sqrt_series,
)
from test_series import mp_ln_one_plus, rescaled_ansatz

# published values the pipeline must land on (tolerance 1e-5)
ALPHA0_PLUS_PUBLISHED = -0.560565
ALPHA0_MINUS_PUBLISHED = 0.361022
# independent evaluation of 1/sqrt(0.560565)
MOMENTUM_CAP_AT_PUBLISHED = 1.3356326004793726
# tan(sqrt(0.01) * 1)/sqrt(0.01)
P_OF_K_ALPHA001_K1 = 1.0033467208545055


# --------------------------------------------------------------------------
# effective Hamiltonian and momentum series


def test_hamiltonian_leading_coefficients_formula():
    coeffs = AnsatzCoeffs((1.0, 0.0, 0.5))
    h = effective_hamiltonian_series(coeffs, order=8)
    assert h.coeffs[0] == 0.0
    assert h.coeffs[2] == pytest.approx(0.5)  # (1 - a1)/2
    assert h.coeffs[4] == pytest.approx(-0.125)  # (a1^2 - 2 a2)/8
    assert all(h.coeffs[i] == 0.0 for i in (1, 3, 5, 7))


def test_hamiltonian_reference_values():
    h = effective_hamiltonian_series(REFERENCE_PLUS, order=8)
    assert h.coeffs[2] == pytest.approx(0.4999855, abs=1e-7)
    assert h.coeffs[4] == pytest.approx(-0.1868495, abs=1e-7)
    assert h.coeffs[6] == pytest.approx(0.1506343, abs=1e-7)


def test_hamiltonian_order_validation():
    with pytest.raises(ValueError):
        effective_hamiltonian_series(REFERENCE_PLUS, order=7)
    with pytest.raises(ValueError):
        effective_hamiltonian_series(REFERENCE_PLUS, order=2)
    for order in (MAX_ORDER + 2, 10**20):
        with pytest.raises(ValueError, match=rf"order must lie in \[4, {MAX_ORDER}\]"):
            effective_hamiltonian_series(REFERENCE_PLUS, order=order)
    assert effective_hamiltonian_series(REFERENCE_PLUS, order=MAX_ORDER).order == MAX_ORDER


def test_momentum_series_leading_coefficient():
    h = effective_hamiltonian_series(REFERENCE_MINUS, order=8)
    p = effective_momentum_series(h)
    # sqrt(1 - a1) = sqrt(1.333335)
    assert p.coeffs[1] == pytest.approx(1.1547010, abs=1e-6)
    assert p.coeffs[0] == 0.0
    assert p.order == 7
    assert all(p.coeffs[i] == 0.0 for i in (2, 4, 6))


def test_momentum_series_validation():
    with pytest.raises(ValueError):
        effective_momentum_series(
            # odd term present
            effective_hamiltonian_series(REFERENCE_PLUS, 8) + _odd_bump()
        )
    from entrogup.series import TruncatedSeries

    with pytest.raises(ValueError):
        effective_momentum_series(TruncatedSeries((0.0, 0.0, -0.5, 0.0, 1.0)))


def _odd_bump():
    from entrogup.series import TruncatedSeries

    return TruncatedSeries((0.0, 0.0, 0.0, 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0))


# --------------------------------------------------------------------------
# the half-order route in y = k**2 against the k-space route
#
# The two functions below build the same series in the wavenumber itself, odd
# slots and all, as the pipeline once did.  The y route must reach the same
# outcome: the same alpha0 to the bit (it reads the y**1 and y**2 terms, whose
# sums have one nonzero term each) and the same refusal.  Other coefficients
# may differ by rounding where an a_j 2**-j is subnormal, as one route rounds
# it in j halvings.  The bound is relative to the sum of a coefficient's
# terms' magnitudes, its rounding scale, which can lie far above the
# coefficient itself: at order 256 the y**100 term of tsallis q = 1.5 is
# -1.2e-62, and its terms' magnitudes sum to 4e-42.


def kspace_hamiltonian_series(coeffs, order):
    if order < 4 or order % 2 != 0:
        raise ValueError(f"order must be an even integer >= 4, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must lie in [4, {MAX_ORDER}], got {order}")
    h_coeffs = [0.0] * (order + 1)
    h_coeffs[2] = 0.5
    h_free = TruncatedSeries(tuple(h_coeffs))
    padded = tuple(coeffs.a[: order + 1]) + (0.0,) * max(0, order + 1 - len(coeffs.a))
    weight_sum = compose(TruncatedSeries(padded), h_free)
    return h_free - ln_one_plus(weight_sum - 1.0)


def kspace_momentum_series(h):
    if h.coeffs[0] != 0.0 or any(c != 0.0 for c in h.coeffs[1::2]):
        raise ValueError("the effective Hamiltonian must be even with no constant term")
    if h.order < 2 or h.coeffs[2] <= 0.0:
        raise ValueError("the k**2 coefficient must be positive (requires a1 < 1)")
    root = sqrt_series(TruncatedSeries(tuple(2.0 * c for c in h.coeffs[2:])))
    return TruncatedSeries((0.0,) + root.coeffs)


def pipeline_outcome(coeffs, order):
    """The pipeline's report, or the type and message of what it raised."""
    try:
        return deformation_pipeline(coeffs, order=order)
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


def kspace_outcome(coeffs, order):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gup, "effective_hamiltonian_series", kspace_hamiltonian_series)
        patched.setattr(gup, "effective_momentum_series", kspace_momentum_series)
        return pipeline_outcome(coeffs, order)


def rounding_scales(coeffs, order, lead):
    """Hamiltonian and momentum series rebuilt with every term made positive.

    No sum cancels there, so each coefficient's rounding error on either route
    is a modest multiple of ``order * eps`` times the matching scale.  ``lead``
    is the momentum's linear coefficient.  None where a scale overflows.
    """
    half = order // 2
    a = [abs(c) for c in coeffs.a[: half + 1]] + [0.0] * max(0, half + 1 - len(coeffs.a))
    h_free = TruncatedSeries((0.0, 0.5) + (0.0,) * (half - 1))
    try:
        # -ln(1 - u) = sum_m u**m / m
        h = h_free - ln_one_plus(-(compose(TruncatedSeries(a), h_free) - 1.0))
        root = [lead]
        for m in range(1, half):
            cross = math.fsum(root[j] * root[m - j] for j in range(1, m))
            root.append((2.0 * h.coeffs[m + 1] + cross) / (2.0 * lead))
    except (ValueError, OverflowError):
        return None
    h_k, p_k = [0.0] * (order + 1), [0.0] * order
    h_k[::2], p_k[1::2] = h.coeffs, root
    return h_k, p_k, [c / lead for c in p_k]


# magnitudes 1e-300 to 1e300 of either sign, log-uniform, so that draws range
# from nearly free (every power tiny) to overflowing in the first product
wide_coeff = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from((1.0, -1.0)),
    st.integers(-300, 299),
    st.floats(1.0, 10.0, exclude_max=True),
)


@given(
    st.lists(wide_coeff, min_size=0, max_size=6),
    st.integers(2, MAX_ORDER // 2).map(lambda half: 2 * half),
)
# terms cancel here, and some coefficients differ by more than 1e-12 of their
# own size
@example([-10.0, 10.0], 256)
@example([-1.0, 1.0, -1.0], 256)
@settings(max_examples=300, deadline=None)
def test_half_order_route_equals_kspace_route(tail, order):
    coeffs = AnsatzCoeffs((1.0, *tail))
    # An overflow on either route must not warn.  Warnings are errors in the
    # calls only, so that hypothesis can still report a failing example.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, expected = pipeline_outcome(coeffs, order), kspace_outcome(coeffs, order)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, gup.PipelineReport)
    for name in ("alpha0_pipeline", "alpha0_closed", "discrepancy"):
        assert getattr(got, name).hex() == getattr(expected, name).hex()
    names = ("hamiltonian", "momentum", "momentum_normalized")
    for name in names:
        assert len(getattr(got, name).coeffs) == len(getattr(expected, name).coeffs)
    scales = rounding_scales(coeffs, order, got.momentum.coeffs[1])
    if scales is None:
        return
    for name, scale in zip(names, scales):
        for x, y, bound in zip(getattr(got, name).coeffs, getattr(expected, name).coeffs, scale):
            assert abs(x - y) <= 1e-12 * bound


def test_high_order_hamiltonian_matches_mpmath():
    # The k**200 coefficient is -1.2446e-62 while its terms' magnitudes sum to
    # 4e-42; the Horner route of powers of u gave -1.19e-58 there.
    coeffs = tsallis_coeffs(1.5, order=MAX_ORDER // 2)
    got = effective_hamiltonian_series(coeffs, MAX_ORDER).coeffs
    assert got[1::2] == (0.0,) * (MAX_ORDER // 2)
    with mpmath.workdps(80):
        exact = [-w for w in mp_ln_one_plus(rescaled_ansatz(coeffs, MAX_ORDER // 2))]
        exact[1] += 0.5
        for c, x in zip(got[::2], exact):
            assert abs(mpmath.mpf(c) - x) <= 1e-12 * abs(x)


# --------------------------------------------------------------------------
# the rescaled ansatz against the composed one
#
# sum_j a_j H**j with H = y/2 is sum_j a_j 2**-j y**j.  The function below
# builds it as the pipeline once did, composing the zero-padded polynomial
# with 0.5 y (j successive halvings); the pipeline rescales each a_j once.
# Where every a_j 2**-j is normal or zero, both are exact, so the Hamiltonians
# must agree bit for bit, signs of zeros included (derive prints h_k4 = 0 for
# tsallis q = 1, never -0).


def composed_hamiltonian_series(coeffs, order):
    half = order // 2
    h_free = TruncatedSeries((0.0, 0.5) + (0.0,) * (half - 1))
    padded = tuple(coeffs.a[: half + 1]) + (0.0,) * max(0, half + 1 - len(coeffs.a))
    weight_sum = compose(TruncatedSeries(padded), h_free)
    h_y = h_free - ln_one_plus(weight_sum - 1.0)
    h_k = [0.0] * (order + 1)
    h_k[::2] = h_y.coeffs
    return TruncatedSeries(h_k)


def hamiltonian_outcome(fn, coeffs, order):
    """The coefficients as ``float.hex`` strings, or the message raised."""
    try:
        return [c.hex() for c in fn(coeffs, order).coeffs]
    except ValueError as exc:
        return str(exc)


@given(
    st.lists(wide_coeff, min_size=0, max_size=6).map(lambda tail: AnsatzCoeffs((1.0, *tail))),
    st.integers(2, MAX_ORDER // 2).map(lambda half: 2 * half),
)
@example(AnsatzCoeffs((1.0,)), 8)
@example(tsallis_coeffs(1.0), 8)
@example(tsallis_coeffs(1.0, order=MAX_ORDER // 2), MAX_ORDER)
@example(AnsatzCoeffs((1.0, -0.0, -0.0, -1.0)), 8)
@settings(max_examples=300, deadline=None)
def test_rescaled_ansatz_equals_composed_ansatz(coeffs, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hamiltonian_outcome(effective_hamiltonian_series, coeffs, order)
        expected = hamiltonian_outcome(composed_hamiltonian_series, coeffs, order)
    assert got == expected


def test_normalize_momentum():
    from entrogup.series import TruncatedSeries

    p = TruncatedSeries((0.0, 2.0, 0.0, 1.0))
    n = normalize_momentum(p)
    assert n.coeffs == (0.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        normalize_momentum(TruncatedSeries((0.0, 0.0, 1.0)))


# --------------------------------------------------------------------------
# deformation parameter


def test_closed_form_values():
    assert deformation_closed(0.0, 0.5) == pytest.approx(-0.375, rel=1e-15)
    assert deformation_closed(
        REFERENCE_PLUS.a[1], REFERENCE_PLUS.a[2]
    ) == pytest.approx(ALPHA0_PLUS_PUBLISHED, abs=1e-5)
    assert deformation_closed(
        REFERENCE_MINUS.a[1], REFERENCE_MINUS.a[2]
    ) == pytest.approx(ALPHA0_MINUS_PUBLISHED, abs=1e-5)
    with pytest.raises(ValueError):
        deformation_closed(1.0, 0.3)
    with pytest.raises(ValueError):
        deformation_closed(float("nan"), 0.3)


def test_pipeline_reproduces_published_values():
    plus = deformation_pipeline(REFERENCE_PLUS)
    minus = deformation_pipeline(REFERENCE_MINUS)
    assert plus.alpha0_pipeline == pytest.approx(ALPHA0_PLUS_PUBLISHED, abs=1e-5)
    assert minus.alpha0_pipeline == pytest.approx(ALPHA0_MINUS_PUBLISHED, abs=1e-5)
    assert plus.discrepancy <= 1e-9
    assert minus.discrepancy <= 1e-9
    assert plus.momentum_normalized.coeffs[1] == 1.0


def test_pipeline_matches_closed_form_on_random_coefficients():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        a1 = rng.uniform(-0.9, 0.9)
        a2, a3, a4 = rng.uniform(-2.0, 2.0, size=3)
        coeffs = AnsatzCoeffs((1.0, a1, a2, a3, a4))
        report = deformation_pipeline(coeffs)
        assert report.discrepancy <= 1e-9


@pytest.mark.parametrize("wrong", [
    lambda closed: closed + 2e-9,
    lambda closed: math.nan,
    lambda closed: math.inf,
    lambda closed: -math.inf,
], ids=["off_by_2e-9", "nan", "inf", "-inf"])
def test_pipeline_refuses_a_closed_form_it_disagrees_with(wrong, monkeypatch):
    # at alpha0 ~ 0.36 the bound is 1e-9 absolute, as it was before it became
    # relative above |alpha0| = 1; no NaN or infinity passes it
    closed = gup.deformation_closed
    monkeypatch.setattr(gup, "deformation_closed", lambda a1, a2: wrong(closed(a1, a2)))
    with pytest.raises(NumericalError, match="series pipeline and closed form disagree by"):
        deformation_pipeline(REFERENCE_MINUS)


def test_pipeline_bound_is_relative_above_one():
    # alpha0 = -8.35e7, where the two routes differ by one ulp (1.49e-8), which
    # is already above 1e-9
    report = deformation_pipeline(AnsatzCoeffs((1.0, 0.273, 80985000.0)))
    assert 1e-9 < report.discrepancy <= 1e-9 * abs(report.alpha0_closed)


def test_pipeline_rejects_non_positive_kinetic_term():
    with pytest.raises(ValueError):
        deformation_pipeline(AnsatzCoeffs((1.0, 1.0, 0.5)))
    with pytest.raises(ValueError):
        deformation_pipeline(AnsatzCoeffs((1.0, 1.5, 0.5)))


def test_sign_pattern_of_references():
    assert deformation_pipeline(REFERENCE_PLUS).alpha0_pipeline < 0.0
    assert deformation_pipeline(REFERENCE_MINUS).alpha0_pipeline > 0.0


# --------------------------------------------------------------------------
# q-exponential coefficients


def test_tsallis_coeffs_structure():
    # -lam * (1/lam) + 1 does not round to 0 at q = 0.05, 0.13, 0.53, 0.91,
    # 1.18, ..., so the exponent's x term must be set, not summed
    for q in [i / 100 for i in range(1, 301)] + [1e8, -1e8]:
        coeffs = tsallis_coeffs(q, order=4)
        assert coeffs.kind == "tsallis"
        assert coeffs.q == q
        assert coeffs.a[0] == 1.0
        assert coeffs.a[1] == 0.0
        assert coeffs.a[2] == pytest.approx(-(1.0 - q) / 2.0, rel=1e-12)


def test_tsallis_at_q_one_is_plain_exponential():
    coeffs = tsallis_coeffs(1.0, order=5)
    assert coeffs.a == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_tsallis_pipeline_ratio():
    assert QEXP_PIPELINE_RATIO == 0.375
    for q in (0.5, 0.9, 1.1, 1.5):
        alpha0 = deformation_pipeline(tsallis_coeffs(q)).alpha0_pipeline
        assert alpha0 == pytest.approx(QEXP_PIPELINE_RATIO * (1.0 - q), rel=1e-10)
        # sign agrees with the linear-order q-statistics value (1 - q)
        assert math.copysign(1.0, alpha0) == math.copysign(1.0, 1.0 - q)


def test_tsallis_validation():
    with pytest.raises(ValueError):
        tsallis_coeffs(float("nan"))
    with pytest.raises(ValueError):
        tsallis_coeffs(0.5, order=1)
    for q in (0.5, 1.0):
        for order in (MAX_ORDER + 2, 10**20):
            with pytest.raises(ValueError, match=rf"order must lie in \[2, {MAX_ORDER}\]"):
                tsallis_coeffs(q, order=order)
    assert tsallis_coeffs(0.5, order=MAX_ORDER).degree == MAX_ORDER


# --------------------------------------------------------------------------
# momentum-wavenumber map and uncertainty relation


def test_params_and_alpha_scaling():
    params = GupParams(0.36, m_pl=2.0)
    assert params.alpha == pytest.approx(0.09, rel=1e-15)
    assert params.alpha == 0.36 / (2.0 * 2.0)
    # alpha is derived, not a constructor argument, and stays out of repr and ==
    assert repr(params) == "GupParams(alpha0=0.36, m_pl=2.0)"
    assert params == GupParams(0.36, 2.0) and hash(params) == hash(GupParams(0.36, 2.0))
    with pytest.raises(TypeError):
        GupParams(0.36, 2.0, 0.09)
    with pytest.raises(ValueError):
        GupParams(float("inf"))
    with pytest.raises(ValueError):
        GupParams(0.3, m_pl=0.0)
    # m_pl**2 underflows to 0 / overflows; the ends of the range still work
    for m_pl in (1e-170, 1e155):
        with pytest.raises(ValueError, match=r"m_pl must lie in \[1\.492e-154, 1\.341e\+154\]"):
            GupParams(0.36, m_pl=m_pl)
    for m_pl in (1.5e-154, 1.3e154):
        assert 0.0 < GupParams(0.36, m_pl=m_pl).alpha < math.inf
    with pytest.raises(ValueError, match=r"alpha = alpha0/m_pl\*\*2 overflows"):
        GupParams(1e300, m_pl=1e-150)


def test_p_of_k_frozen_value():
    assert p_of_k(GupParams(0.01), 1.0) == pytest.approx(P_OF_K_ALPHA001_K1, rel=1e-14)


def test_p_of_k_small_k_cubic_coefficient():
    alpha = 0.3
    params = GupParams(alpha)
    k = 1e-3
    cubic = (p_of_k(params, k) - k) / k**3
    assert cubic == pytest.approx(alpha / 3.0, rel=1e-5)


def test_p_of_k_domain():
    params = GupParams(0.36)  # tan branch limit pi/(2*0.6)
    limit = 0.5 * math.pi / 0.6
    assert p_of_k(params, limit * 0.999) > 0.0
    with pytest.raises(ValueError):
        p_of_k(params, limit)
    with pytest.raises(ValueError):
        p_of_k(params, float("nan"))


def test_k_of_p_domain():
    params = GupParams(-0.25)  # cap at 2.0
    assert k_of_p(params, 1.99) > 0.0
    with pytest.raises(ValueError):
        k_of_p(params, 2.0)


@pytest.mark.parametrize("alpha0", [0.25, -0.25, 0.01, -0.01, 0.0, 1e-13, -1e-13])
def test_momentum_map_roundtrips(alpha0):
    params = GupParams(alpha0)
    for k in (0.0, 0.2, 0.7, 1.3):
        if alpha0 > 1e-12 and abs(math.sqrt(alpha0) * k) >= 0.5 * math.pi:
            continue
        p = p_of_k(params, k)
        assert k_of_p(params, p) == pytest.approx(k, abs=1e-12)
    for p in (0.1, 0.9):
        assert p_of_k(params, k_of_p(params, p)) == pytest.approx(p, abs=1e-12)


def test_k_of_p_against_quadrature_oracle():
    # dk/dp = 1/(1 + alpha p^2), so k(p) equals the integral of that density
    for alpha0, p_values in ((0.3, (0.5, 1.5, 4.0)), (-0.3, (0.5, 1.2, 1.5))):
        params = GupParams(alpha0)
        for p in p_values:
            oracle, _ = quad(lambda t: 1.0 / (1.0 + alpha0 * t * t), 0.0, p)
            assert k_of_p(params, p) == pytest.approx(oracle, rel=1e-9)


def test_small_alpha_branch_is_continuous():
    k = 1.0
    below = p_of_k(GupParams(9.9e-13), k)
    above = p_of_k(GupParams(1.1e-12), k)
    assert abs(below - above) < 1e-12
    below = k_of_p(GupParams(-9.9e-13), k)
    above = k_of_p(GupParams(-1.1e-12), k)
    assert abs(below - above) < 1e-12


@pytest.mark.parametrize("alpha0", [1e-13, -1e-13, 5e-250])
def test_small_alpha_uses_the_closed_forms_at_large_arguments(alpha0):
    # the cubic expansion holds only where |alpha| k**2 is small; at
    # alpha = 1e-13, k = 4e6 it gave 7.50e6 against tan's 1.0e7
    root = math.sqrt(abs(alpha0))
    closed_p = math.tan if alpha0 > 0 else math.tanh
    closed_k = math.atan if alpha0 > 0 else math.atanh
    params = GupParams(alpha0)
    for scale in (1e-4, 0.3, 0.9):
        k = scale / root
        assert p_of_k(params, k) == pytest.approx(closed_p(root * k) / root, rel=1e-14)
        assert k_of_p(params, k) == pytest.approx(closed_k(root * k) / root, rel=1e-14)


def test_small_alpha_keeps_the_domain_and_cap_checks():
    # past pi/(2 sqrt(alpha)) = 4.97e6 and the cap 1/sqrt(|alpha|) = 3.16e6
    with pytest.raises(ValueError, match=r"\|k\| must stay below .* got 10000000\.0"):
        p_of_k(GupParams(1e-13), 1e7)
    with pytest.raises(ValueError, match=r"\|k\| must stay below .* got 1e\+200"):
        p_of_k(GupParams(1e-13), 1e200)  # was an OverflowError from k**3
    with pytest.raises(ValueError, match=r"\|p\| must stay below .* got 10000000\.0"):
        k_of_p(GupParams(-1e-13), 1e7)
    # no check applies at alpha = 0, and no power of k overflows
    assert p_of_k(GupParams(0.0), 1e200) == 1e200
    assert k_of_p(GupParams(0.0), 1e200) == 1e200
    assert p_of_k(GupParams(-1e-13), 1e200) == pytest.approx(1.0 / math.sqrt(1e-13))


def _worst_ulp_error(sign, log_alpha, ks):
    """Largest error of p_of_k and k_of_p, in ulps of 40-digit mpmath values."""
    maps = [(p_of_k, mpmath.tan if sign > 0 else mpmath.tanh),
            (k_of_p, mpmath.atan if sign > 0 else mpmath.atanh)]
    worst = 0.0
    with mpmath.workdps(40):
        for log_a, k in zip(log_alpha, ks):
            params = GupParams(sign * 10.0**log_a)
            root = mpmath.sqrt(abs(mpmath.mpf(params.alpha)))
            for func, exact in maps:
                try:
                    value = func(params, float(k))
                except ValueError:  # past the domain or the cap
                    continue
                reference = exact(root * float(k)) / root
                error = abs(value - reference) / math.ulp(float(reference))
                worst = max(worst, float(error))
    return worst


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_momentum_maps_within_2_ulp_of_mpmath(sign):
    # |alpha| log-uniform in [1e-320, 1e2] and |k| in [1e-300, 10], both signs
    rng = np.random.default_rng(2024)
    log_alpha = rng.uniform(-320, 2, 400)
    ks = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-300, 1, 400)
    assert _worst_ulp_error(sign, log_alpha, ks) <= 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_momentum_maps_within_3_ulp_of_mpmath_where_z_is_not_tiny(sign):
    # z = sqrt(|alpha|) k log-uniform in [1e-8, 0.5], where neither map is k
    # itself; libm's tanh is up to ~1.5 ulp off here, hence 3 ulp, not 2
    rng = np.random.default_rng(2025)
    log_alpha = rng.uniform(-320, 2, 400)
    zs = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-8, math.log10(0.5), 400)
    ks = zs / np.sqrt(10.0**log_alpha)
    assert _worst_ulp_error(sign, log_alpha, ks) <= 3.0


@pytest.mark.parametrize("alpha0, k", [(0.0, 0.7), (-0.0, 0.7), (1e-300, 1e-170),
                                       (-1e-300, 1e-170), (1e-320, -3.0)])
def test_momentum_maps_return_k_where_the_deformation_vanishes(alpha0, k):
    params = GupParams(alpha0)
    assert p_of_k(params, k) == k
    assert k_of_p(params, k) == k


def test_saturated_maps_keep_their_limit():
    # sqrt(|alpha|) k overflows: tanh and atan have reached their limits
    assert p_of_k(GupParams(-1e100), 1e260) == pytest.approx(1e-50, rel=1e-15)
    assert k_of_p(GupParams(1e100), -1e260) == pytest.approx(-0.5 * math.pi * 1e-50,
                                                             rel=1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cached_root_keeps_every_bit(sign):
    # sqrt(|alpha|) is derived once in GupParams; the maps, the bound and the
    # regime scales keep the bits of the formulas that take it per call
    rng = np.random.default_rng(2026)
    for log_a, m_pl, w in zip(rng.uniform(-12, 2, 300), 10.0 ** rng.uniform(-3, 3, 300),
                              rng.uniform(-1.5, 1.5, 300)):
        params = GupParams(sign * 10.0**log_a, m_pl)
        a = params.alpha
        k = w / math.sqrt(abs(a))
        z = math.sqrt(abs(a)) * k
        p = (math.tanh if a < 0.0 else math.tan)(z) / math.sqrt(abs(a))
        assert p_of_k(params, k).hex() == p.hex()
        if a > 0.0 or abs(z) < 1.0:
            q = (math.atanh if a < 0.0 else math.atan)(z) / math.sqrt(abs(a))
            assert k_of_p(params, k).hex() == q.hex()
        dp = abs(k)
        if a > 0.0 or dp < 1.0 / math.sqrt(-a):
            bound = (1.0 + a * dp * dp) / (2.0 * dp)
            assert uncertainty_lower_bound(params, dp).hex() == bound.hex()
        else:
            cap = f"{1.0 / math.sqrt(-a):g}"
            with pytest.raises(ValueError, match=re.escape(f"1/sqrt(|alpha|) = {cap},")):
                uncertainty_lower_bound(params, dp)
        summary = regime_summary(params)
        if a > 0.0:
            assert summary.minimal_length.hex() == math.sqrt(a).hex()
        else:
            assert summary.max_momentum.hex() == (1.0 / math.sqrt(-a)).hex()
        # the cached root is not a field: repr, == and hash are over alpha0 and m_pl
        assert repr(params) == f"GupParams(alpha0={params.alpha0!r}, m_pl={m_pl!r})"
        twin = pickle.loads(pickle.dumps(params))
        assert twin == params and hash(twin) == hash(params)
        assert twin._sqrt_alpha.hex() == params._sqrt_alpha.hex() == math.sqrt(abs(a)).hex()


def test_zero_deformation_is_identity():
    params = GupParams(0.0)
    assert p_of_k(params, 0.8) == 0.8
    assert k_of_p(params, 0.8) == 0.8
    assert commutator_rhs(params, 3.0) == 1.0


def test_commutator_values():
    params = GupParams(-0.560565)
    assert commutator_rhs(params, 1.0) == pytest.approx(0.439435, rel=1e-12)
    assert commutator_rhs(GupParams(0.36), 2.0) == pytest.approx(1.0 + 0.36 * 4.0)


def test_commutator_equals_momentum_derivative():
    # dp/dk = 1 + alpha p(k)^2 for both branches
    for alpha0 in (0.36, -0.36):
        params = GupParams(alpha0)
        for k in (0.3, 0.9):
            h = 1e-6
            derivative = (p_of_k(params, k + h) - p_of_k(params, k - h)) / (2.0 * h)
            assert derivative == pytest.approx(
                commutator_rhs(params, p_of_k(params, k)), rel=1e-6
            )


def test_minimal_uncertainty_at_positive_alpha():
    params = GupParams(0.04)
    # the bound is minimized at dp = 1/sqrt(alpha) with value sqrt(alpha)
    assert uncertainty_lower_bound(params, 5.0) == pytest.approx(0.2, abs=1e-12)
    grid = np.linspace(0.5, 30.0, 400)
    values = [uncertainty_lower_bound(params, float(dp)) for dp in grid]
    assert min(values) >= 0.2 - 1e-12
    assert regime_summary(params).minimal_length == pytest.approx(0.2, abs=1e-12)


def test_momentum_cap_at_negative_alpha():
    params = GupParams(-0.560565)
    summary = regime_summary(params)
    assert summary.regime == "max_momentum"
    assert summary.max_momentum == pytest.approx(MOMENTUM_CAP_AT_PUBLISHED, rel=1e-12)
    assert summary.minimal_length is None
    # tanh branch saturates at the cap from below
    assert p_of_k(params, 20.0) == pytest.approx(MOMENTUM_CAP_AT_PUBLISHED, rel=1e-12)
    assert p_of_k(params, 20.0) < summary.max_momentum


def test_uncertainty_bound_validation():
    with pytest.raises(ValueError):
        uncertainty_lower_bound(GupParams(0.1), 0.0)
    with pytest.raises(ValueError):
        uncertainty_lower_bound(GupParams(-0.25), 2.0)  # at the cap
    # just below the cap is fine
    assert uncertainty_lower_bound(GupParams(-0.25), 1.99) > 0.0


def test_regime_summary_heisenberg():
    summary = regime_summary(GupParams(0.0))
    assert summary.regime == "heisenberg"
    assert summary.minimal_length is None
    assert summary.max_momentum is None
