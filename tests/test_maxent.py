"""Implicit-equation solvers, the generalized-exponential fit, and coefficient IO."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrogup import maxent
from entrogup.errors import NumericalError
from entrogup.gup import REFERENCE_MINUS, REFERENCE_PLUS, tsallis_coeffs
from entrogup.maxent import (
    DEFAULT_FIT_GRID,
    AnsatzCoeffs,
    GenExpFit,
    fit_gen_exp,
    gen_exp_eval,
    load_coeffs,
    maxent_distribution,
    save_coeffs,
    solve_p_minus,
    solve_p_plus,
)

# direct evaluation: e^(-1) * (1 + 0.000029 + 0.747398 - 1.205053 + 1.284852)
GEN_EXP_PLUS_AT_1 = 0.6721988797739299


def default_grid():
    start, stop, count = DEFAULT_FIT_GRID.split(":")
    return np.linspace(float(start), float(stop), int(count))


# --------------------------------------------------------------------------
# pure-bisection oracle, written against the raw implicit expressions


def g_plus_raw(p, x, log=math.log):
    return 1.0 + log(p) + x * (1.0 + p + p * log(p)) - p ** (-p)


def g_minus_raw(p, x, log=math.log):
    return 1.0 + log(p) + x * (1.0 - p - p * log(p)) - p**p


def bisect_oracle(g, x, hi):
    lo = 1e-16
    glo = g(lo, x)
    assert (glo < 0.0) != (g(hi, x) < 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (g(mid, x) < 0.0) == (glo < 0.0):
            lo = mid
            glo = g(mid, x)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solvers_match_bisection_oracle():
    for x in (0.25, 1.0, 2.5):
        oracle = bisect_oracle(g_plus_raw, x, hi=1.0)
        assert solve_p_plus(x).p == pytest.approx(oracle, abs=1e-11)
        oracle = bisect_oracle(g_minus_raw, x, hi=1.0 - 1e-6)
        assert solve_p_minus(x).p == pytest.approx(oracle, abs=1e-11)


def test_zero_coupling_gives_certainty():
    assert solve_p_plus(0.0).p == 1.0
    assert solve_p_minus(0.0).p == 1.0


def test_solutions_satisfy_their_equations():
    for x in (0.1, 0.7, 3.0, 12.0):
        sp = solve_p_plus(x, tol=1e-13)
        assert abs(g_plus_raw(sp.p, x)) < 1e-11
        assert sp.residual <= 1e-13
        sm = solve_p_minus(x, tol=1e-13)
        assert abs(g_minus_raw(sm.p, x)) < 1e-11


def test_minus_interior_branch_not_boundary():
    # p = 1 solves the minus equation for every x; the solver must return the
    # interior branch instead
    for x in (0.5, 1.0, 2.0):
        assert abs(g_minus_raw(1.0, x)) < 1e-15
        assert solve_p_minus(x).p < 0.9


def test_large_x_approaches_gibbs():
    assert solve_p_plus(5.0).p == pytest.approx(math.exp(-5.0), rel=0.25)
    assert solve_p_minus(5.0).p == pytest.approx(math.exp(-5.0), rel=0.25)
    assert solve_p_plus(10.0).p == pytest.approx(math.exp(-10.0), rel=0.05)
    assert solve_p_minus(10.0).p == pytest.approx(math.exp(-10.0), rel=0.05)
    assert solve_p_plus(20.0).p == pytest.approx(math.exp(-20.0), rel=1e-3)


def test_strictly_decreasing_in_x():
    xs = np.linspace(0.0, 20.0, 200)
    for solver in (solve_p_plus, solve_p_minus):
        values = [solver(float(x)).p for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


def mpmath_root(g, x):
    # 50-digit Newton iteration from the Gibbs weight
    with mpmath.workdps(50):
        big_x = mpmath.mpf(x)
        return mpmath.findroot(lambda p: g(p, big_x, mpmath.log), mpmath.exp(-big_x),
                               solver="newton")


def test_large_x_roots_match_mpmath():
    # roots far below p = 1e-16
    for x in (40.0, 60.0):
        for solver, g in ((solve_p_plus, g_plus_raw), (solve_p_minus, g_minus_raw)):
            reference = float(mpmath_root(g, x))
            assert solver(x).p == pytest.approx(reference, rel=1e-12)


def test_minus_small_x_interior_slope():
    # p e**x = 1 - x/3 + ... on the interior branch; the bracket end
    # a p within ~x of 1, such as 1 - x/2, gives +1/2
    x = 1e-8
    p = solve_p_minus(x).p
    assert (p * math.exp(x) - 1.0) / x == pytest.approx(-1.0 / 3.0, abs=1e-3)


def test_unreachable_tolerance_raises():
    with pytest.raises(NumericalError, match="residual"):
        fit_gen_exp("plus", 4, np.linspace(0.0, 3.0, 61), tol=1e-300)


def test_solver_input_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_p_plus(bad)
    with pytest.raises(ValueError):
        solve_p_minus(1.0, tol=0.0)


@given(st.floats(min_value=0.0, max_value=25.0))
@example(1e-300)
@example(5e-324)
@settings(max_examples=150, deadline=None)
def test_solutions_are_probabilities(x):
    assert 0.0 < solve_p_plus(x).p <= 1.0
    assert 0.0 < solve_p_minus(x).p <= 1.0


# --------------------------------------------------------------------------
# generalized exponential and its coefficients


def test_ansatz_validation():
    with pytest.raises(ValueError):
        AnsatzCoeffs(())
    with pytest.raises(ValueError):
        AnsatzCoeffs((2.0, 1.0))  # a0 must be 1
    with pytest.raises(ValueError):
        AnsatzCoeffs((1.0, float("inf")))
    with pytest.raises(ValueError):
        AnsatzCoeffs((1.0, 0.5), kind="mystery")
    with pytest.raises(ValueError):
        AnsatzCoeffs((1.0, 0.5), kind="tsallis")  # tsallis needs q
    with pytest.raises(ValueError):
        AnsatzCoeffs((1.0, 0.5), kind="plus", q=0.5)  # q only for tsallis
    assert AnsatzCoeffs((1.0, 0.5, 0.25)).degree == 2


def test_gen_exp_frozen_value():
    assert gen_exp_eval(REFERENCE_PLUS, 1.0) == pytest.approx(
        GEN_EXP_PLUS_AT_1, rel=1e-14
    )
    assert gen_exp_eval(REFERENCE_PLUS, 0.0) == 1.0
    assert gen_exp_eval(REFERENCE_MINUS, 0.0) == 1.0
    with pytest.raises(ValueError):
        gen_exp_eval(REFERENCE_PLUS, -0.5)


def test_gen_exp_stays_in_range_at_small_x():
    # both reference sets stay within (0, 1.05] while the representation holds
    for coeffs in (REFERENCE_PLUS, REFERENCE_MINUS):
        for x in np.linspace(0.0, 1.2, 241):
            value = gen_exp_eval(coeffs, float(x))
            assert 0.0 < value <= 1.05


def test_fit_recovers_reference_neighbourhood():
    grid = default_grid()
    plus = fit_gen_exp("plus", 4, grid)
    minus = fit_gen_exp("minus", 4, grid)
    assert abs(plus.coeffs.a[1] - REFERENCE_PLUS.a[1]) < 0.05
    assert abs(minus.coeffs.a[1] - REFERENCE_MINUS.a[1]) < 0.05
    assert plus.coeffs.a[2] > 0.0
    assert minus.coeffs.a[2] < 0.0
    assert plus.coeffs.kind == "plus"
    assert minus.coeffs.kind == "minus"
    assert plus.grid == "0:1:301"


def test_fit_residual_bookkeeping():
    fit = fit_gen_exp("minus", 4, np.linspace(0.0, 1.0, 61))
    probs = [solve_p_minus(float(x)).p for x in np.linspace(0.0, 1.0, 61)]
    model = [gen_exp_eval(fit.coeffs, float(x)) for x in np.linspace(0.0, 1.0, 61)]
    rms = math.sqrt(math.fsum((m - p) ** 2 for m, p in zip(model, probs)) / 61)
    assert fit.residual == pytest.approx(rms, rel=1e-9)


def test_fit_rms_small_on_default_window():
    grid = default_grid()
    for kind in ("plus", "minus"):
        last = None
        for degree in (4, 5, 6):
            fit = fit_gen_exp(kind, degree, grid)
            assert fit.residual <= 1e-3
            if last is not None:
                assert fit.residual <= last * 1.05  # higher degree never much worse
            last = fit.residual


def test_fit_rms_on_wide_window():
    wide = np.linspace(0.0, 3.0, 301)
    assert fit_gen_exp("plus", 4, wide).residual <= 1e-3
    assert fit_gen_exp("minus", 6, wide).residual <= 1e-3


def test_fit_grid_containers():
    grid = np.linspace(0.0, 1.0, 31)
    expected = fit_gen_exp("plus", 4, grid.tolist())
    for container in (grid, tuple(grid.tolist()), (float(x) for x in grid)):
        assert fit_gen_exp("plus", 4, container) == expected
    assert fit_gen_exp("minus", 4, np.arange(7)) == fit_gen_exp("minus", 4, range(7))
    with pytest.raises(ValueError, match="need at least 5 grid points"):
        fit_gen_exp("plus", 4, grid.reshape(1, -1))


def test_fit_validation():
    grid = np.linspace(0.0, 1.0, 31)
    with pytest.raises(ValueError):
        fit_gen_exp("tsallis", 4, grid)
    with pytest.raises(ValueError):
        fit_gen_exp("plus", 1, grid)
    with pytest.raises(ValueError):
        fit_gen_exp("plus", 4, [0.0, 0.5, 1.0])  # too few points
    with pytest.raises(ValueError):
        fit_gen_exp("plus", 4, [0.0, 0.5, 1.0, -0.5, 2.0])  # negative point
    with pytest.raises(ValueError):
        fit_gen_exp("plus", 4, [0.1, 0.1, 0.1, 0.1, 0.1])  # not distinct


@pytest.mark.parametrize("degree", [2.9, "4", 4.0, None])
def test_fit_degree_must_be_an_integer(degree):
    # int() used to truncate 2.9 to 2 and parse "4"
    with pytest.raises(ValueError, match="degree must be an integer"):
        fit_gen_exp("plus", degree, np.linspace(0.0, 1.0, 31))


def test_fit_degree_takes_numpy_integers():
    grid = np.linspace(0.0, 1.0, 31)
    assert fit_gen_exp("plus", np.int64(4), grid) == fit_gen_exp("plus", 4, grid)


# --------------------------------------------------------------------------
# distributions over energy levels


def test_distribution_normalized_and_ordered():
    energies = [0.0, 1.0, 2.0, 5.0]
    for kind in ("plus", "minus", "boltzmann"):
        dist = maxent_distribution(energies, 0.8, kind)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(dist.probs, dist.probs[1:]))


def test_distribution_zero_beta_is_uniform():
    for kind in ("plus", "minus", "boltzmann"):
        dist = maxent_distribution([0.3, 1.7, 4.0], 0.0, kind)
        assert all(p == pytest.approx(1.0 / 3.0, rel=1e-12) for p in dist.probs)
    # E - E_min overflows here
    assert maxent_distribution([-1e308, 1e308], 0.0, "boltzmann").probs == (0.5, 0.5)


def test_distribution_near_boltzmann_at_weak_coupling():
    energies = [0.0, 1.0, 2.0, 3.0, 4.0]
    reference = maxent_distribution(energies, 0.025, "boltzmann")
    for kind in ("plus", "minus"):
        dist = maxent_distribution(energies, 0.025, kind)
        tv = 0.5 * math.fsum(abs(a - b) for a, b in zip(dist, reference))
        assert tv < 0.02


def maxent_distribution_loop(energies, beta, kind):
    """Per-level reference for maxent_distribution: the loop its array
    expressions replaced, with one scalar solve per deformed level."""
    levels = [float(e) for e in energies]
    if kind == "boltzmann":
        e_min = min(levels) if beta else 0.0
        weights = [math.exp(-beta * (e - e_min)) for e in levels]
    else:
        solve = solve_p_plus if kind == "plus" else solve_p_minus
        weights = [solve(beta * e).p for e in levels]
    total = math.fsum(weights)
    return [w / total for w in weights]


@pytest.mark.parametrize("n", [1, 2, 500, 5000])
@pytest.mark.parametrize("kind", ["plus", "minus", "boltzmann"])
def test_distribution_matches_per_level_loop(kind, n):
    # a seeded spectrum from 0 to x = 40, as the benchmark's spectra run;
    # numpy's exp differs from math's by at most 1 ulp on some levels
    rng = np.random.default_rng([11, n])
    energies = [0.0, *np.sort(rng.uniform(0.0, 50.0, n - 1)).tolist()]
    dist = maxent_distribution(energies, 0.8, kind)
    reference = maxent_distribution_loop(energies, 0.8, kind)
    assert dist.probs == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        maxent_distribution([1.0], 1.0, "gibbs")
    with pytest.raises(ValueError):
        maxent_distribution([], 1.0, "plus")
    with pytest.raises(ValueError, match="1-D"):
        maxent_distribution([[0.0, 1.0]], 1.0, "plus")
    with pytest.raises(ValueError):
        maxent_distribution([1.0], -0.5, "plus")
    with pytest.raises(ValueError):
        maxent_distribution([float("inf")], 1.0, "plus")


@pytest.mark.parametrize("kind", ["plus", "minus", "boltzmann"])
@pytest.mark.parametrize("energies", [[0.0, 800.0], [800.0, 801.0]])
def test_distribution_underflow_raises_numerical_error(kind, energies):
    # exp(-x) underflows past x ~ 745: a representability limit, not bad input.
    # Boltzmann weights are measured from the lowest level, so for that kind
    # only a gap past ~745 underflows: take each level's gap from 0.
    if kind == "boltzmann":
        energies = [0.0, energies[1]]
    with pytest.raises(NumericalError, match=r"level \d+ .*x = beta\*E = 80[01]"):
        maxent_distribution(energies, 1.0, kind)


@pytest.mark.parametrize("energies", [[-1.0, 0.0], [800.0, 801.0], [-1.0, 0.0, 2.5]])
def test_boltzmann_distribution_is_shift_invariant(energies):
    # exp(-beta E) ratios; the weights no longer overflow below 0 or underflow
    # for a spectrum that starts high
    probs = maxent_distribution(energies, 1.0, "boltzmann").probs
    assert math.fsum(probs) == pytest.approx(1.0, rel=1e-15)
    for e, p in zip(energies[1:], probs[1:]):
        assert p / probs[0] == pytest.approx(math.exp(energies[0] - e), rel=1e-15)


def test_boltzmann_distribution_below_zero_underflows_as_numerical_error():
    # was a bare OverflowError from exp(1000)
    with pytest.raises(NumericalError, match=r"level 1 .*beta\*\(E - E_min\) = 1000"):
        maxent_distribution([-1000.0, 0.0], 1.0, "boltzmann")


def test_distribution_overflowing_x_is_invalid_input():
    with pytest.raises(ValueError, match="finite and non-negative, got inf"):
        maxent_distribution([1e308, 1e308], 10.0, "plus")


def test_solver_at_largest_finite_x():
    # 2x + 2 overflows here; p underflows to 0 with the residual still small
    for solver in (solve_p_plus, solve_p_minus):
        solution = solver(1e308)
        assert solution.p == 0.0 and solution.residual <= 1e-12


# --------------------------------------------------------------------------
# the solver against the full-array loop it replaced, its reference


def g_loop(u, x, s):
    p = np.exp(-u)
    pu = p * u
    one_sp = 1.0 + p if s > 0 else -np.expm1(-u)
    g = -np.expm1(s * pu) - u + x * (one_sp - s * pu)
    dg = -s * np.exp(s * pu) * (p - pu) - 1.0 - s * x * (2.0 * p - pu)
    return g, dg


def roots_loop(x, s, tol=1e-12):
    """Every point iterated in every round until all have stopped."""
    x = np.asarray(x, dtype=float)
    lo = 0.5 * x if s < 0 else np.zeros_like(x)
    with np.errstate(over="ignore"):
        hi = np.minimum(2.0 * x + 2.0, np.finfo(float).max)
    u = x.copy()
    active = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        g, dg = g_loop(u, x, s)
        lo = np.where(g > 0.0, u, lo)
        hi = np.where(g < 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g == 0.0, 0.0, g / dg)
        ulps = 4.0 * np.finfo(float).eps * np.maximum(u, 1.0)
        small = np.abs(step) <= ulps
        done = small | (hi - lo <= ulps)
        newton = u - step
        take_newton = small | ((lo < newton) & (newton < hi))
        u = np.where(active, np.where(take_newton, newton, 0.5 * lo + 0.5 * hi), u)
        active &= ~done
        if not active.any():
            break
    else:
        raise NumericalError("root refinement did not converge")
    residual = np.abs(g_loop(u, x, s)[0])
    assert residual.max() <= tol
    return np.exp(-u), residual


def spectrum_x(seed, n, emax):
    rng = np.random.default_rng([seed, n])
    return np.array([0.0, *np.sort(rng.uniform(0.0, emax, n - 1)).tolist()])


SOLVER_INPUTS = {
    "edges": np.array([0.0, 1e-14, 1e-300, 5e-324, 1.0, 36.5, 800.0, 1.7e308]),
    "log-spaced": np.concatenate([[0.0], np.logspace(-14.0, np.log10(800.0), 400)]),
    "fit-default": default_grid(),
    "fit-wide": np.linspace(0.0, 3.0, 1001),
    "spectrum": spectrum_x(21, 2000, 15.0),
    "spectrum-past-floor": spectrum_x(22, 3000, 55.0),
    "one-point": np.array([0.7]),
}


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("name", sorted(SOLVER_INPUTS))
def test_roots_bit_identical_to_full_array_loop(name, s):
    x = SOLVER_INPUTS[name]
    p, residual = maxent._roots(x, s, 1e-12)
    p_ref, residual_ref = roots_loop(x, s)
    assert np.array_equal(p, p_ref)
    assert np.array_equal(residual, residual_ref)


@given(st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_roots_bit_identical_on_random_points(xs):
    x = np.array(xs)
    for s in (1, -1):
        p, residual = maxent._roots(x, s, 1e-12)
        p_ref, residual_ref = roots_loop(x, s)
        assert np.array_equal(p, p_ref) and np.array_equal(residual, residual_ref)


@pytest.mark.parametrize("s", [1, -1])
def test_roots_evaluate_only_open_points(monkeypatch, s):
    # The full-array loop evaluated g at every point in each of ~6 rounds plus
    # the residual pass: 7n points on this spectrum.
    evaluated = []
    g = maxent._g

    def counting_g(u, x, *args, **kwargs):
        evaluated.append(x.size)
        return g(u, x, *args, **kwargs)

    monkeypatch.setattr(maxent, "_g", counting_g)
    x = spectrum_x(21, 2000, 15.0)
    maxent._roots(x, s, 1e-12)
    assert sum(evaluated) < 6 * x.size


# --------------------------------------------------------------------------
# coefficient file IO


def test_save_load_roundtrip(tmp_path):
    fit = fit_gen_exp("minus", 4, np.linspace(0.0, 1.0, 41))
    path = tmp_path / "coeffs.txt"
    save_coeffs(fit, path)
    back = load_coeffs(path)
    assert back.coeffs.a == fit.coeffs.a  # repr round-trip is exact
    assert back.coeffs.kind == "minus"
    assert back.residual == fit.residual
    assert back.grid == fit.grid


def test_save_load_tsallis_kind(tmp_path):
    coeffs = tsallis_coeffs(0.85, order=4)
    fit = GenExpFit(coeffs, 0.0, "synthetic")
    path = tmp_path / "tsallis.txt"
    save_coeffs(fit, path)
    back = load_coeffs(path)
    assert back.coeffs.kind == "tsallis"
    assert back.coeffs.q == 0.85
    assert back.coeffs.a == coeffs.a


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "kind = plus\ndegree = 1\na0 = 1.0\na1 = 0.5\nwhatever = 3\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="unknown keys"):
        load_coeffs(path)


def test_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind = plus\nterrible line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        load_coeffs(path)


def test_load_rejects_missing_coefficient(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind = plus\ndegree = 2\na0 = 1.0\na1 = 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="a2"):
        load_coeffs(path)


def test_load_rejects_non_numeric_values(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "kind = plus\ndegree = 1\na0 = 1.0\na1 = zebra\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="a1"):
        load_coeffs(path)
