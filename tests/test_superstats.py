"""Fluctuating-inverse-temperature statistics.

The closed form, the quadrature, and the small-spread expansion are three
independent routes to the same averaged weight factor; the tests pin each
route against external oracles (scipy integrals, hand arithmetic) and then
against each other.  scipy is a test-only dependency: the package's own
quadrature is checked against ``scipy.integrate.quad``.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from entrogup import superstats
from entrogup.errors import NumericalError
from entrogup.series import TruncatedSeries, exp_series, ln_one_plus
from entrogup.superstats import (
    GammaBetaParams,
    boltzmann_closed,
    boltzmann_quadrature,
    boltzmann_series,
)
from entrogup.superstats import gamma_pdf

# hand arithmetic: (1 + 0.2*2*3)**(-1/0.2) = 2.2**(-5)
CLOSED_P02_B2_E3 = 0.01940379134559859


def test_params_validation():
    with pytest.raises(ValueError):
        GammaBetaParams(p=0.0, beta0=1.0)
    with pytest.raises(ValueError):
        GammaBetaParams(p=1.2, beta0=1.0)
    with pytest.raises(ValueError):
        GammaBetaParams(p=0.5, beta0=0.0)
    with pytest.raises(ValueError):
        GammaBetaParams(p=0.5, beta0=float("nan"))


@pytest.mark.parametrize("p,beta0", [(0.05, 1.0), (0.2, 2.0), (0.5, 0.7), (1.0, 1.5)])
def test_gamma_pdf_normalization_mean_variance(p, beta0):
    params = GammaBetaParams(p, beta0)
    norm, _ = quad(lambda b: gamma_pdf(params, b), 0, np.inf)
    mean, _ = quad(lambda b: b * gamma_pdf(params, b), 0, np.inf)
    second, _ = quad(lambda b: b * b * gamma_pdf(params, b), 0, np.inf)
    assert norm == pytest.approx(1.0, rel=1e-9)
    assert mean == pytest.approx(beta0, rel=1e-9)
    assert second - mean**2 == pytest.approx(p * beta0**2, rel=1e-8)


def test_gamma_pdf_at_zero():
    exponential = GammaBetaParams(1.0, 2.0)  # shape 1: finite density at 0
    assert gamma_pdf(exponential, 0.0) == pytest.approx(0.5)
    peaked = GammaBetaParams(0.5, 2.0)
    assert gamma_pdf(peaked, 0.0) == 0.0
    with pytest.raises(ValueError):
        gamma_pdf(peaked, -1.0)


@pytest.mark.parametrize("p", [1e-308, 3e-306, 5e-324])
@pytest.mark.filterwarnings("error")
def test_tiny_spread_is_a_numerical_error(p):
    # GammaBetaParams accepts every p in (0, 1]; ln Gamma(1/p) overflows below ~3.9e-306
    params = GammaBetaParams(p, 1.0)
    with pytest.raises(NumericalError, match=rf"overflows at p = {p!r}"):
        boltzmann_quadrature(params, 0.5)
    with pytest.raises(NumericalError, match=rf"overflows at p = {p!r}"):
        gamma_pdf(params, 1.0)
    assert gamma_pdf(params, 0.0) == 0.0  # the density at 0 needs no Gamma function


def mpmath_gamma_pdf(p, beta0, beta, dps):
    """The Gamma density as written in the textbook, in ``dps`` digits."""
    with mpmath.workdps(dps):
        p, beta0, beta = mpmath.mpf(p), mpmath.mpf(beta0), mpmath.mpf(beta)
        shape, scale = 1 / p, p * beta0
        return float(mpmath.exp((shape - 1) * mpmath.log(beta) - beta / scale
                                - mpmath.loggamma(shape) - shape * mpmath.log(scale)))


@pytest.mark.parametrize("beta0", [1.0, 2.5])
@pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-10, 1e-12])
def test_gamma_pdf_matches_mpmath_at_small_spread(p, beta0):
    # one standard deviation above the mean; the textbook terms cancel to 1 part
    # in ~(1/p) ln(1/p), so the oracle keeps 50 digits
    beta = beta0 * (1.0 + math.sqrt(p))
    expected = mpmath_gamma_pdf(p, beta0, beta, 50)
    assert gamma_pdf(GammaBetaParams(p, beta0), beta) == pytest.approx(expected, rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_gamma_pdf_at_tiny_spread_is_finite():
    # the density peaks at ~sqrt(shape / 2 pi) / beta0 = 4e149 for p = 1e-300;
    # the oracle's terms are ~7e302, so it needs ~320 digits
    for beta0 in (1.0, 2.5):
        value = gamma_pdf(GammaBetaParams(1e-300, beta0), beta0)
        assert value == pytest.approx(mpmath_gamma_pdf(1e-300, beta0, beta0, 400), rel=1e-12)
    # far below the mean the density underflows to 0
    assert gamma_pdf(GammaBetaParams(1e-300, 2.5), 1.0) == 0.0


def test_gamma_pdf_where_beta_over_beta0_leaves_the_float_range():
    # p = 1: the density is exp(-beta/beta0) / beta0; beta/beta0 underflows to 0
    assert gamma_pdf(GammaBetaParams(1.0, 1e300), 1e-300) == pytest.approx(1e-300, rel=1e-15)
    # beta/beta0 overflows: far above the mean the density is 0
    assert gamma_pdf(GammaBetaParams(0.5, 1e-300), 1e300) == 0.0


def test_gamma_pdf_overflow_is_a_numerical_error():
    # p = 1: the density at beta0 is exp(-1) / beta0, above the largest float
    with pytest.raises(NumericalError, match="density overflows"):
        gamma_pdf(GammaBetaParams(1.0, 1e-320), 1e-320)


def test_closed_form_examples():
    assert boltzmann_closed(GammaBetaParams(0.2, 2.0), 3.0) == pytest.approx(
        CLOSED_P02_B2_E3, rel=1e-15
    )
    # p = 1 is the pure exponential-mixture case: (1 + x)^(-1)
    assert boltzmann_closed(GammaBetaParams(1.0, 1.0), 1.0) == pytest.approx(0.5)
    assert boltzmann_closed(GammaBetaParams(0.3, 1.0), 0.0) == 1.0
    with pytest.raises(ValueError):
        boltzmann_closed(GammaBetaParams(0.3, 1.0), -0.1)


def test_small_spread_limit_is_gibbs():
    params = GammaBetaParams(1e-10, 1.0)
    assert boltzmann_closed(params, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_quadrature_against_direct_beta_integral():
    # independent route: integrate gamma_pdf * exp(-beta E) directly in beta
    params = GammaBetaParams(0.4, 1.3)
    for energy in (0.0, 0.7, 2.5):
        direct, _ = quad(
            lambda b: gamma_pdf(params, b) * math.exp(-b * energy), 0, np.inf
        )
        assert boltzmann_quadrature(params, energy, tol=1e-10) == pytest.approx(
            direct, rel=1e-8
        )


def test_quadrature_matches_closed_on_default_grid():
    # 20 x 20 grid: spread in [0.05, 1], beta0*E in [0, 5] at beta0 = 1
    worst = 0.0
    for p in np.linspace(0.05, 1.0, 20):
        params = GammaBetaParams(float(p), 1.0)
        for energy in np.linspace(0.0, 5.0, 20):
            closed = boltzmann_closed(params, float(energy))
            quadval = boltzmann_quadrature(params, float(energy))
            worst = max(worst, abs(quadval - closed) / closed)
    assert worst <= 1e-7


def test_gauss_kronrod_tables():
    # the QUADPACK qk21 tables on [-1, 1]: each weight set sums to 2, Kronrod
    # is exact through degree 31 and Gauss through 19; the same on [0, 1] in
    # the form the integrator uses
    kronrod = 2.0 * math.fsum(superstats._WGK[:-1]) + superstats._WGK[-1]
    assert kronrod == pytest.approx(2.0, abs=1e-15)
    assert 2.0 * math.fsum(superstats._WG) == pytest.approx(2.0, abs=1e-15)
    unit = superstats._UNIT
    gauss = superstats._RULES[:, 0] - superstats._RULES[:, 1] / 200.0
    assert superstats._RULES[:, 0].sum() == pytest.approx(1.0, abs=1e-15)
    assert gauss.sum() == pytest.approx(1.0, abs=1e-15)
    for d in range(32):
        exact = 1.0 / (d + 1)  # integral of t**d over [0, 1]
        assert math.fsum(superstats._RULES[:, 0] * unit**d) == pytest.approx(exact, abs=1e-15)
        if d <= 19:
            assert math.fsum(gauss * unit**d) == pytest.approx(exact, abs=1e-15)
    mean = superstats._qk21(lambda t: t**31, np.array([0.0]), np.array([1.0]))[0]
    assert mean[0] == pytest.approx(1.0 / 32.0, abs=1e-15)


def _scipy_boltzmann(p, energy):
    """Oracle: the same t-integrand by scipy.integrate.quad, split at its mode."""
    shape, c = 1.0 / p, 1.0 + p * energy
    lgam = math.lgamma(shape)

    def f(t):
        if t <= 0.0:
            return math.exp(-lgam) if shape == 1.0 else 0.0
        return math.exp((shape - 1.0) * math.log(t) - c * t - lgam)

    mode = (shape - 1.0) / c
    cut = mode + 40.0 * (math.sqrt(shape) + 1.0) / c
    body, _ = quad(f, 0.0, cut, points=[mode] if mode > 0.0 else None,
                   epsabs=0.0, epsrel=1e-13, limit=500)
    tail, _ = quad(f, cut, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return body + tail


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("energy", [0.0, 0.5, 20.0, 1e3])
@pytest.mark.parametrize("p", [0.001, 0.02, 0.9, 0.99, 1.0])
def test_quadrature_matches_scipy_at_corners(p, energy, tol):
    # p = 0.001: a narrow peak at t ~ 1/p; p near 1: t**(1/p - 1) is not
    # smooth at 0; E = 1e3 at p = 0.001 puts the value near 1e-301
    oracle = _scipy_boltzmann(p, energy)
    assert oracle == pytest.approx(boltzmann_closed(GammaBetaParams(p, 1.0), energy), rel=1e-11)
    value = boltzmann_quadrature(GammaBetaParams(p, 1.0), energy, tol=tol)
    assert value == pytest.approx(oracle, rel=tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("energy", [0.0, 0.5, 20.0])
@pytest.mark.parametrize("p", [0.02, 0.3, 0.99, 1.0])
def test_quadrature_tail_takes_at_most_two_pieces(p, energy, tol, monkeypatch):
    # one piece [0, T], with T placed on the tail bound before integrating
    limits = []
    inner = superstats.quad

    def counting_quad(func, b, epsrel):
        limits.append(b)
        return inner(func, b, epsrel)

    monkeypatch.setattr(superstats, "quad", counting_quad)
    value = boltzmann_quadrature(GammaBetaParams(p, 1.0), energy, tol=tol)
    assert len(limits) == 1
    shape, c = 1.0 / p, 1.0 + p * energy
    upper = limits[0]
    tail = math.exp((shape - 1.0) * math.log(upper) - c * upper - math.lgamma(shape)) * 2.0 / c
    assert tail <= 0.1 * tol * value
    # the exact tail of the Gamma(1/p, rate c) density past T, relative to the value
    assert gammaincc(shape, c * upper) <= 0.01 * tol
    closed = boltzmann_closed(GammaBetaParams(p, 1.0), energy)
    assert value == pytest.approx(closed, rel=tol)


def test_most_points_settle_in_one_round(monkeypatch):
    # a seeded mix like the benchmark's cross-check points: ~88% settle in the
    # first round, and the slowest (p near 1 at tol 1e-10) take 4
    rng = np.random.default_rng(31)
    n = 600
    ps = np.exp(math.log(0.02) * rng.random(n)).tolist()
    energies = (20.0 * rng.random(n)).tolist()
    tols = rng.choice([1e-6, 1e-8, 1e-10], n).tolist()
    calls = []
    qk21 = superstats._qk21

    def counted(*args):
        calls.append(args)
        return qk21(*args)

    monkeypatch.setattr(superstats, "_qk21", counted)
    rounds = []
    for p, energy, tol in zip(ps, energies, tols):
        params = GammaBetaParams(p, 1.0)
        calls.clear()
        value = boltzmann_quadrature(params, energy, tol=tol)
        rounds.append(len(calls))
        closed = boltzmann_closed(params, energy)
        assert abs(value - closed) <= tol * closed
    assert rounds.count(1) >= 0.85 * n
    assert max(rounds) <= 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("energy", [0.0, 0.5, 20.0])
@pytest.mark.parametrize("p", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
def test_quadrature_meets_its_tolerance_at_small_spread(p, energy, tol):
    # the integrand in t**(1/p - 1) form cancels terms of size (1/p) ln(1/p);
    # written in r = p t, as gamma_pdf is, it has none
    params = GammaBetaParams(p, 1.0)
    closed = boltzmann_closed(params, energy)
    assert abs(boltzmann_quadrature(params, energy, tol=tol) - closed) <= tol * closed


@pytest.mark.parametrize("energy", [0.0, 2.0])
@pytest.mark.parametrize("p", [0.9, 0.95, 0.99])
def test_quadrature_reaches_the_tightest_tolerance_near_p_1(p, energy):
    # near p = 1 the integrand is ~1 on [0, 1] and [0, T] reaches T ~ 35, so
    # at tol 1e-13 the panels there sit at their rounding floor; bisecting
    # them cannot lower it, and doing so anyway ran into the panel limit
    params = GammaBetaParams(p, 1.0)
    closed = boltzmann_closed(params, energy)
    assert boltzmann_quadrature(params, energy, tol=1e-13) == pytest.approx(closed, rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p,energy",
    [(0.5, 1e13), (0.5, 1e15), (0.5, 2e15), (0.5, 1e16), (0.5, 1e20), (0.5, 1e100),
     (0.05, 1e14), (0.05, 5e15), (0.05, 1e16)],
)
def test_quadrature_at_large_c_keeps_the_panels_on_the_mass(p, energy):
    # c = 1 + p E >= 1e13: the mass sits at t ~ 1/(p c), so the graded panels
    # reach it only if they scale with 1/c; exp(-c t) underflows past t ~ 745/c.
    params = GammaBetaParams(p, 1.0)
    closed = boltzmann_closed(params, energy)
    assert boltzmann_quadrature(params, energy) == pytest.approx(closed, rel=1e-8)


def test_quad_stops_at_its_work_limits():
    # 1/t is not integrable at 0: the estimate it returns admits a large error
    value, abserr = superstats.quad(lambda t: 1.0 / t, 1.0, 1e-10)
    assert abserr > 1e-10 * abs(value)


def test_quadrature_rejects_unreachable_tolerance():
    with pytest.raises(NumericalError):
        boltzmann_quadrature(GammaBetaParams(0.2, 1.0), 1.0, tol=1e-16)
    with pytest.raises(ValueError):
        boltzmann_quadrature(GammaBetaParams(0.2, 1.0), 1.0, tol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p,beta0,energy", [(1e-300, 1.0, 0.0), (1e-4, 1.0, 745.0), (1e-4, 1.0, 750.0),
                       (0.9, 1e300, 1e-10)]
)
def test_quadrature_tail_failure_is_a_numerical_error(p, beta0, energy):
    # p = 1e-300: the panels miss the peak at t ~ 1/p and the integral reads 0;
    # no log(0) or overflow on the way.  The others have a value below the
    # smallest normal float (8.6e-313, 8.2e-315, ~1e-322), where the integrand
    # is subnormal too and its bits are lost.
    message = (r"the quadrature value \S+ at " + re.escape(f"p = {p:g}, beta0*E = {beta0 * energy:g}")
               + r" is below the smallest normal float 2.22507e-308, where its digits are lost$")
    with pytest.raises(NumericalError, match=message):
        boltzmann_quadrature(GammaBetaParams(p, beta0), energy)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p,energy,tol", [(8e-6, 709.4, 0.06), (1.5e-9, 0.0, 3e-3),
                                          (1.5e-9, 1.0, 3e-3)])
def test_quadrature_error_estimate_counts_a_subnormal_integrand(p, energy, tol):
    # the integrand is subnormal on every node (a value near 6e-308 spread
    # over t ~ 1e5), or on the one node that reaches the tail of a peak the
    # panels have not found yet; an error estimate that reads ~0 there
    # returned 9.8e-308 and ~1e-304 with no error
    params = GammaBetaParams(p, 1.0)
    closed = boltzmann_closed(params, energy)
    assert abs(boltzmann_quadrature(params, energy, tol=tol) - closed) <= tol * closed


@given(
    st.floats(min_value=-12.0, max_value=0.0),
    st.sampled_from([1e-300, 1.0, 1e300]),
    st.one_of(st.just(None), st.floats(min_value=-300.0, max_value=300.0)),
    st.floats(min_value=-16.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_quadrature_is_within_tol_or_refuses(log_p, beta0, log_energy, log_tol):
    # the whole input range: a value within tol of the closed form, or a
    # NumericalError, and no other exception or warning.  Warnings are errors
    # in the calls only: the pytest mark would also turn hypothesis's own
    # warnings into errors while it reports a failure.
    energy = 0.0 if log_energy is None else 10.0**log_energy
    tol = 10.0**log_tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = GammaBetaParams(10.0**log_p, beta0)
        closed = boltzmann_closed(params, energy)
        try:
            value = boltzmann_quadrature(params, energy, tol=tol)
        except NumericalError:
            return
    assert abs(value - closed) <= tol * closed


def test_series_orders():
    params = GammaBetaParams(0.01, 1.0)
    x = 1.0
    base = math.exp(-x)
    assert boltzmann_series(params, x, order=0) == pytest.approx(base, rel=1e-15)
    assert boltzmann_series(params, x, order=1) == pytest.approx(
        base * (1 + 0.005), rel=1e-15
    )
    closed = boltzmann_closed(params, x)
    # order 2 is exact through p^2 (p^2 x^4 / 8 included), so its error is O(p^3)
    assert abs(boltzmann_series(params, x, order=2) - closed) < 5e-6
    assert abs(boltzmann_series(params, x, order=2) - closed) < 5e-8
    with pytest.raises(ValueError):
        boltzmann_series(params, x, order=3)
    # the order is an integer, as fit_gen_exp's degree, though 2.0 == 2
    for order in (2.0, 1.5, "2", None):
        with pytest.raises(ValueError, match="expansion order must be an integer"):
            boltzmann_series(params, x, order=order)
    assert boltzmann_series(params, x, order=np.int64(2)) == boltzmann_series(params, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize(
    "beta0, energy",
    [(1.0, 1.3e154), (1.0, 1e102), (1.0, 5.6e102), (1.0, 1e300), (1e300, 1e300)],
)
def test_series_is_zero_where_the_weight_underflows(order, beta0, energy):
    # was NaN (0 * inf) at order 1 from x ~ 1.3e154 and at order 2 from
    # x ~ 1e102, and an OverflowError from x**3 at order 2 past x ~ 5.6e102;
    # x = beta0 * E = inf in the last case
    assert boltzmann_series(GammaBetaParams(0.5, beta0), energy, order=order) == 0.0


@given(
    st.floats(min_value=0.001, max_value=0.05),
    st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=100, deadline=None)
def test_series_improves_with_order(p, x):
    params = GammaBetaParams(p, 1.0)
    closed = boltzmann_closed(params, x)
    errors = [abs(boltzmann_series(params, x, order=k) - closed) for k in (0, 1, 2)]
    assert errors[2] <= errors[0] + 1e-15
    # order 1 already removes the leading O(p x^2) defect
    assert errors[1] <= errors[0] + 1e-15


def test_expansion_coefficients_via_series_module():
    # ln B = -(1/p) ln(1 + p x) expanded in x gives the correction factor
    # exp(p x^2/2 - p^2 x^3/3 + ...); recover the +1/2 and -1/3 coefficients
    # with the series-algebra module instead of hand expansion.
    p = 0.37
    x = TruncatedSeries.variable(4)
    log_factor = ln_one_plus(x * p) * (-1.0 / p)  # series of ln B in x
    correction = exp_series(log_factor + x)  # strip e^{-x}: exp(ln B + x)
    assert correction.coeffs[0] == pytest.approx(1.0, abs=1e-15)
    assert correction.coeffs[1] == pytest.approx(0.0, abs=1e-15)
    assert correction.coeffs[2] == pytest.approx(0.5 * p, rel=1e-13)
    assert correction.coeffs[3] == pytest.approx(-(p**2) / 3.0, rel=1e-13)


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_and_quadrature_agree_everywhere(p, beta0, energy):
    params = GammaBetaParams(p, beta0)
    closed = boltzmann_closed(params, energy)
    quadval = boltzmann_quadrature(params, energy, tol=1e-9)
    assert quadval == pytest.approx(closed, rel=1e-7)


@given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=100)
def test_closed_form_monotone_decreasing_in_energy(p, beta0):
    params = GammaBetaParams(p, beta0)
    values = [boltzmann_closed(params, e) for e in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


@pytest.mark.parametrize("weight", [boltzmann_quadrature, boltzmann_series])
def test_negative_energy_is_refused(weight):
    with pytest.raises(ValueError, match=r"energy must be non-negative, got -1\b"):
        weight(GammaBetaParams(0.2, 1.0), -1)
