"""Implicit-equation solvers, the generalized-exponential fit, and coefficient IO."""

import functools
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrogup import cli, entropy, maxent
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
        sp = solve_p_plus(x)
        assert abs(g_plus_raw(sp.p, x)) < 1e-11
        assert sp.residual <= 1e-13
        sm = solve_p_minus(x)
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


def test_residual_above_the_fixed_bound_raises(monkeypatch, capsys):
    # the bound is a module constant, not a parameter; at 0 every grid with a
    # nonzero rounding residual fails, naming the worst point
    monkeypatch.setattr(maxent, "_RESIDUAL_BOUND", 0.0)
    with pytest.raises(NumericalError, match=r"root at x = \S+ has residual .* above the bound 0"):
        fit_gen_exp("plus", 4, np.linspace(0.0, 3.0, 61))
    assert cli.main(["maxent"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: root at x = ") and err.count("\n") == 1
    # neither command takes a tolerance any more
    for command in ("maxent", "fit"):
        assert cli.main([command, "--tol", "1e-12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --tol 1e-12" in err


def test_solver_input_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_p_plus(bad)
    # a numeric string is refused, not parsed by numpy
    for solve in (solve_p_plus, solve_p_minus):
        for bad in ("1.3", b"1.3", bytearray(b"1.3"), np.str_("1.3")):
            message = f"must be a number, got {re.escape(repr(bad))}"
            with pytest.raises(ValueError, match=message):
                solve(bad)


def test_solution_keeps_x_as_a_float():
    for solve in (solve_p_plus, solve_p_minus):
        # a 0-d array takes the float route too: on the array route, whose
        # exp and log differ from math's, solve_p_minus's p was one ulp off
        for x in (True, 1, np.float64(1.0), np.array(1.0)):
            sol = solve(x)
            assert type(sol.x) is float
            assert sol == solve(1.0)


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
    with pytest.raises(ValueError, match=r"grid must form a 1-D sequence, got shape \(1, 31\)"):
        fit_gen_exp("plus", 4, grid.reshape(1, -1))


@pytest.mark.parametrize("n", [entropy._FLOAT_ROUTE_MAX + 1, 2000])
def test_array_route_inputs_give_one_result_whatever_the_container(n):
    # lists and tuples are packed by struct, arrays and the rest by numpy
    rng = np.random.default_rng(n)
    levels = np.sort(rng.uniform(0.0, 30.0, n))
    mixed = [int(x) if i % 3 == 0 else np.float64(x) for i, x in enumerate(levels.round())]
    for kind in ("plus", "minus", "boltzmann"):
        for values in (levels, mixed):
            expected = maxent_distribution(np.array(values, dtype=float), 1.0, kind)._array
            for container in (list, tuple, lambda v: [str(x) for x in v]):
                dist = maxent_distribution(container(values), 1.0, kind)
                assert dist._array.tobytes() == expected.tobytes()
    grid = levels / 10.0
    for kind in ("plus", "minus"):
        expected = fit_gen_exp(kind, 4, grid)
        for container in (list, tuple):
            assert fit_gen_exp(kind, 4, container(grid.tolist())) == expected


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
    # a 2-D grid is refused as such, not counted by its entries
    for grid, shape in ((np.linspace(0.0, 1.0, 9).reshape(3, 3), r"\(3, 3\)"),
                        ([[0, 0.5], [1, 1.5]], r"\(2, 2\)")):
        with pytest.raises(ValueError, match=f"grid must form a 1-D sequence, got shape {shape}$"):
            fit_gen_exp("plus", 2, grid)


ARRAY_ROUTE_GRID = entropy._FLOAT_ROUTE_MAX + 1  # the fewest points on the array route


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("where", [0, ARRAY_ROUTE_GRID // 2, ARRAY_ROUTE_GRID - 1])
def test_fit_validation_on_the_array_route(bad, where):
    # the array route reads sign and finiteness from its sorted copy, where
    # NaN sorts last; the message is the float route's
    for count in (ARRAY_ROUTE_GRID - 1, ARRAY_ROUTE_GRID):
        grid = np.linspace(0.0, 1.0, count)
        grid[min(where, count - 1)] = bad
        for points in (grid, grid.tolist()):
            with pytest.raises(ValueError, match="^grid points must be finite and non-negative$"):
                fit_gen_exp("plus", 4, points)


@pytest.mark.parametrize("x_max, column", [(1e100, 4), (1e150, 3), (1e200, 2)])
def test_fit_window_too_wide_on_the_array_route(x_max, column):
    # x**column is the first power to overflow; the array route tests only
    # x**degree at the largest x, which overflows wherever an earlier power does
    grid = np.linspace(0.0, x_max, ARRAY_ROUTE_GRID)
    with np.errstate(over="ignore"):
        assert np.isfinite(x_max ** np.arange(1, 5)).tolist() == [j < column for j in range(1, 5)]
    message = re.escape(f"too wide for degree 4: x**4 * exp(-x) is not finite at x = {x_max:g}") + "$"
    for count in (ARRAY_ROUTE_GRID - 1, ARRAY_ROUTE_GRID):
        with pytest.raises(ValueError, match=message):
            fit_gen_exp("minus", 4, grid[-count:])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, -5e-324])
@pytest.mark.parametrize("where", [0, 50, 99])
def test_roots_name_the_first_bad_x(bad, where):
    x = np.linspace(0.0, 3.0, 100)
    x[where] = bad
    if where < 99:
        x[-1] = math.nan  # a second bad x, never named
    for s in (1, -1):
        with pytest.raises(ValueError, match=re.escape(f"non-negative, got {bad!r}") + "$"):
            maxent._roots(x, s)
    # -0.0 passes, as 0.0
    x = np.linspace(0.0, 3.0, 100)
    x[where] = -0.0
    p, _ = maxent._roots(x, 1)
    assert p[where] == 1.0


def test_fit_counts_signed_zeros_as_one_point():
    # as np.unique counts them: -0.0 == 0.0
    with pytest.raises(ValueError, match="need at least 3 distinct grid points"):
        fit_gen_exp("plus", 2, [0.0, -0.0, 0.5])
    fit = fit_gen_exp("plus", 2, [-0.0, 0.5, 0.0, 1.0])
    assert fit.coeffs.degree == 2


def test_fit_grid_descriptor_spans_an_unsorted_grid():
    # the window is the grid's minimum and maximum, not its first and last
    assert fit_gen_exp("plus", 2, [0.5, 0.0, 1.0, 0.25]).grid == "0:1:4"
    assert fit_gen_exp("plus", 2, [0.5, -0.0, 1.0, 0.25]).grid == "0:1:4"


def test_fit_grid_descriptor_keeps_every_digit():
    grid = np.linspace(1e-3, 0.123456789, 31)
    assert fit_gen_exp("plus", 4, grid).grid == "0.001:0.123456789:31"
    third = np.linspace(0.0, 1.0 / 3.0, 7)
    assert fit_gen_exp("minus", 2, third).grid == f"0:{1.0 / 3.0!r}:7"


def test_fit_grid_descriptor_reproduces_the_grid_through_a_file(tmp_path):
    grid = np.linspace(1e-3, 0.123456789, 31)
    save_coeffs(fit_gen_exp("minus", 4, grid), tmp_path / "c.txt")
    start, stop, count = load_coeffs(tmp_path / "c.txt").grid.split(":")
    assert np.array_equal(np.linspace(float(start), float(stop), int(count)), grid)


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


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("x_max", [5.0, 745.0])
def test_residual_floor(s, x_max):
    # the largest residual on 3e6 such points per range is 2.66e-15 on [0, 5]
    # and 3.55e-15 on [0, 745], for both kinds
    x = np.random.default_rng(2024).uniform(0.0, x_max, 300_000)
    _, residual = maxent._roots(x, s)
    assert residual.max() <= 4e-15


def test_solver_at_largest_finite_x():
    # 2x + 2 overflows here; p underflows to 0 with the residual still small
    for solver in (solve_p_plus, solve_p_minus):
        solution = solver(1e308)
        assert solution.p == 0.0 and solution.residual <= 1e-12


# --------------------------------------------------------------------------
# the solver against the full-array loop it replaced, its reference


def g_loop(u, x, s, m=np):
    """The implicit equation and its slope in u, on arrays (m = numpy) or on
    Python floats (m = math)."""
    p = m.exp(-u)
    pu = p * u
    one_sp = 1.0 + p if s > 0 else -m.expm1(-u)
    g = -m.expm1(s * pu) - u + x * (one_sp - s * pu)
    dg = -s * m.exp(s * pu) * (p - pu) - 1.0 - s * x * (2.0 * p - pu)
    return g, dg


def roots_loop(x, s, u):
    """Every point iterated in every round until all have stopped, from the
    starting iterate ``u`` clipped into the bracket; returns ``u`` and ``|g|``."""
    x = np.asarray(x, dtype=float)
    lo = 0.5 * x if s < 0 else np.zeros_like(x)
    with np.errstate(over="ignore"):
        hi = np.minimum(2.0 * x + 2.0, np.finfo(float).max)
    u = np.clip(u, lo, hi)
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
    assert residual.max() <= 1e-12
    return u, residual


# p e**x = 1 + a1 x + a2 x**2 + ... at small x, per kind
SMALL_X_SERIES = {1: (Fraction(0), Fraction(3, 4)), -1: (Fraction(-1, 3), Fraction(-95, 162))}


@functools.cache
def start_table(s):
    """The start table re-derived: the ratio r = u / x at the nodes, from
    roots_loop's cold start u = x, and its slope r' = (u' - r) / x, with
    u' = -g_x / g_u by the implicit function theorem.  The node at 0 takes the
    limits r = 1 - a1 and r' = a1**2 / 2 - a2 of SMALL_X_SERIES, rounded once;
    the last node holds the Gibbs ratio 1 with slope 0."""
    nodes = np.arange(round(maxent._TABLE_END / maxent._STEP) + 1) * maxent._STEP
    u, _ = roots_loop(nodes, s, nodes)
    _, g_u = g_loop(u, nodes, s)
    p = np.exp(-u)
    g_x = 1.0 + s * (p - p * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = u / nodes
        slope = (-g_x / g_u - ratio) / nodes
    a1, a2 = SMALL_X_SERIES[s]
    ratio[0], slope[0] = float(1 - a1), float(a1 * a1 / 2 - a2)
    ratio[-1], slope[-1] = 1.0, 0.0
    return ratio, slope


def table_start(x, s):
    """x times the cubic Hermite interpolant of start_table(s), in power form
    on each interval; x itself from the table end on."""
    ratio, slope = start_table(s)
    clamped = np.minimum(x, maxent._TABLE_END)
    t = clamped / maxent._STEP
    k = np.minimum(np.floor(t), ratio.size - 2).astype(int)
    f = t - k
    r0, r1 = ratio[k], ratio[k + 1]
    m0, m1 = maxent._STEP * slope[k], maxent._STEP * slope[k + 1]
    c2 = 3.0 * (r1 - r0) - 2.0 * m0 - m1
    c3 = 2.0 * (r0 - r1) + m0 + m1
    return np.where(x < maxent._TABLE_END, clamped * (((c3 * f + c2) * f + m0) * f + r0), x)


# maxent._root itself, which the fallback_calls fixture replaces with a spy
FLOAT_ROOT = maxent._root


def float_route_u(x, s):
    """The float route's roots u at every x of an array: maxent._root, the
    one loop with a bracket and bisection, from the Gibbs guess u = x."""
    return np.array([FLOAT_ROOT(v, s) for v in x.tolist()])


def one_step_reference(x, s, guard=2.0**-20):
    """The one-step rule of _roots re-derived: one Newton step from the table
    start, accepted where the step is at most guard * max(u1, 1) and g(u1)
    over the start's slope is at most 4 eps * max(u1, 1); every other point
    gets the float route's root.  Returns the roots u and the mask of the
    accepted points."""
    x = np.asarray(x, dtype=float)
    u0 = table_start(x, s)
    g0, dg0 = g_loop(u0, x, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(g0 == 0.0, 0.0, g0 / dg0)
    u = u0 - step
    scale = np.maximum(u, 1.0)
    ulps = 4.0 * np.finfo(float).eps * scale
    look_ahead = np.abs(g_loop(u, x, s)[0]) <= ulps * np.abs(dg0)
    accepted = (np.abs(step) <= guard * scale) & look_ahead
    if not accepted.all():
        u[~accepted] = float_route_u(x[~accepted], s)
    return u, accepted


def assert_roots_are(x, s, u, fallback):
    """_roots gives the roots u = -ln p at x, bit for bit, and their |g|;
    at the fallback points (a mask) p and |g| are the float route's, taken
    with Python floats."""
    p, residual = np.exp(-u), np.abs(g_loop(u, x, s)[0])
    for i in np.flatnonzero(fallback):
        v, root = float(x[i]), float(u[i])
        p[i], residual[i] = math.exp(-root), abs(g_loop(root, v, s, math)[0])
    got_p, got_residual = maxent._roots(x, s)
    assert np.array_equal(got_p, p)
    assert np.array_equal(got_residual, residual)


def roots_with_u(x, s):
    """maxent._roots at x, and the roots u = -ln p it took p from: the u of
    its last pass of _g at each point, the float route's pass where the
    point fell back."""
    last = {}
    g = maxent._g

    def spy(u, x, s, m, slope=True):
        if not slope:
            last.update(zip(np.atleast_1d(x).tolist(), np.atleast_1d(u).tolist()))
        return g(u, x, s, m, slope)

    with mock.patch.object(maxent, "_g", spy):
        p, residual = maxent._roots(x, s)
    return np.array([last[v] for v in x.tolist()]), p, residual


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


# log-uniform over the whole range, so the minus kind's small-x expm1 terms and
# the underflow edge near x = 745 are drawn, and uniform on [0, 60]
SOLVER_X = (
    st.floats(min_value=math.log(1e-300), max_value=math.log(800.0)).map(math.exp)
    | st.sampled_from([0.0, 5e-324])
    | st.floats(min_value=744.0, max_value=746.0)
    | st.floats(min_value=0.0, max_value=60.0)
)

# The one point of 7.0M (600 spectra of both kinds and 1500 fit grids, seeds
# 21 and 22 of the benchmark) whose one-step root failed the certificate,
# plus kind, with numpy's exp of that build; it may pass elsewhere.
FALLBACK_X = 3.2759879547433557


# the start table's nodes, its end, the first double past it, and the ends of
# the double range
TABLE_X = (
    st.integers(0, round(maxent._TABLE_END / maxent._STEP)).map(lambda k: k * maxent._STEP)
    | st.sampled_from(
        [maxent._TABLE_END, math.nextafter(maxent._TABLE_END, math.inf), 5e-324, 1.7e308]
    )
)


@given(st.lists(SOLVER_X | TABLE_X, min_size=1, max_size=300))
# the largest distance found in 8e6 uniform draws on [0, 12]: 4.8 eps
@example([2.747530357385009])
@example([FALLBACK_X])
@settings(max_examples=100, deadline=None)
def test_table_start_keeps_the_cold_start_roots(xs):
    # _roots' roots, from the table start, and the loop's from u = x stop
    # within the width of the root's rounding interval: up to two stop-rule
    # widths apart where g's rounding blurs the root (plus kind, x ~ 2.5,
    # where |dg| < 1).
    x = np.array(xs)
    for s in (1, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, p, residual = roots_with_u(x, s)
        u_cold, _ = roots_loop(x, s, x)
        assert np.all(np.abs(u - u_cold) <= 8.0 * np.finfo(float).eps * np.maximum(u_cold, 1.0))
        assert np.array_equal(p == 0.0, np.exp(-u_cold) == 0.0)
        assert residual.max() <= 1e-12


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("name", sorted(SOLVER_INPUTS))
def test_roots_take_one_certified_newton_step(name, s):
    # every point of these inputs passes the one-step rule
    x = SOLVER_INPUTS[name]
    u, accepted = one_step_reference(x, s)
    assert accepted.all()
    assert_roots_are(x, s, u, ~accepted)


@given(st.lists(SOLVER_X | TABLE_X, min_size=1, max_size=300))
@example([2.747530357385009])
@example([FALLBACK_X])
@settings(max_examples=100, deadline=None)
def test_roots_follow_the_one_step_rule_on_any_points(xs):
    # the roots the rule accepts stay within the loop's distance of the
    # cold-start roots (see test_table_start_keeps_the_cold_start_roots)
    x = np.array(xs)
    for s in (1, -1):
        u, accepted = one_step_reference(x, s)
        assert_roots_are(x, s, u, ~accepted)
        u_cold, _ = roots_loop(x, s, x)
        assert np.all(np.abs(u - u_cold) <= 8.0 * np.finfo(float).eps * np.maximum(u_cold, 1.0))


@pytest.fixture
def fallback_calls(monkeypatch):
    """The x of every _root call, the fallback of _roots' uncertified points."""
    calls = []

    def spy(x, s):
        calls.append(x)
        return FLOAT_ROOT(x, s)

    monkeypatch.setattr(maxent, "_root", spy)
    return calls


@pytest.mark.parametrize("s", [1, -1])
def test_points_that_miss_the_look_ahead_take_the_loop(monkeypatch, fallback_calls, s):
    # The first pass of g after the table start is moved at the chosen x by
    # 1e-9 max(u, 1) times the slope, so the first step overshoots the root
    # by that much: well inside the guard, but the look-ahead step at the
    # new iterate is far above the stop width.  Only the chosen points take
    # the float route's root, from u = x; the others keep the one-step bits.
    x = SOLVER_INPUTS["spectrum"]
    chosen = x[1::97]
    maxent._table(s)  # built first, so that the flag below marks the solve's pass
    first = []
    start, g = maxent._start, maxent._g

    def flagged_start(x, s):
        first.append(True)
        return start(x, s)

    def shifted(u, x, s, m, slope=True):
        value, dg = g(u, x, s, m, slope)
        if slope and first:
            first.clear()
            value = value + np.where(np.isin(x, chosen), 1e-9 * np.maximum(u, 1.0) * dg, 0.0)
        return value, dg

    monkeypatch.setattr(maxent, "_start", flagged_start)
    monkeypatch.setattr(maxent, "_g", shifted)
    u, accepted = one_step_reference(x, s)
    assert accepted.all()
    fallback = np.isin(x, chosen)
    u[fallback] = float_route_u(x[fallback], s)
    assert_roots_are(x, s, u, fallback)
    assert fallback_calls == chosen.tolist()


@pytest.mark.parametrize("guard", [0.0, 2.0**-45])
@pytest.mark.parametrize("s", [1, -1])
def test_points_past_the_guard_take_the_loop(monkeypatch, fallback_calls, guard, s):
    # at a guard of 0 every point with a nonzero first step falls back, at
    # 2**-45 only those whose step is above it
    x = np.concatenate([SOLVER_INPUTS[name] for name in sorted(SOLVER_INPUTS)])
    monkeypatch.setattr(maxent, "_GUARD", guard)
    u, accepted = one_step_reference(x, s, guard)
    assert 0 < np.count_nonzero(accepted) < x.size
    assert_roots_are(x, s, u, ~accepted)
    assert fallback_calls == x[~accepted].tolist()


@pytest.mark.parametrize("s", [1, -1])
def test_roots_name_the_worst_residual_when_points_fall_back(monkeypatch, s):
    # At a guard of 2**-45 about half of these points take the float route,
    # and the worst residual of the input is a certified point's, above the
    # fallback points' largest: the refusal names that x, not the worst of
    # the fallback points.
    x = np.concatenate([np.linspace(0.0, 3.0, 301), np.linspace(3.0, 40.0, 200)])
    monkeypatch.setattr(maxent, "_GUARD", 2.0**-45)
    _, residual = maxent._roots(x, s)
    _, accepted = one_step_reference(x, s, 2.0**-45)
    worst = int(np.argmax(residual))
    assert accepted[worst] and residual[~accepted].max() < residual[worst]
    monkeypatch.setattr(maxent, "_RESIDUAL_BOUND", 0.0)
    with pytest.raises(NumericalError, match=rf"root at x = {x[worst]:g} has residual"):
        maxent._roots(x, s)


@given(st.lists(st.lists(SOLVER_X | TABLE_X, min_size=1, max_size=100), min_size=2, max_size=4))
@example([SOLVER_INPUTS["fit-default"].tolist(), SOLVER_INPUTS["spectrum-past-floor"].tolist()])
@settings(max_examples=50, deadline=None)
def test_roots_of_a_concatenation_are_the_roots_of_its_parts(parts):
    # with the guard at 2**-45, so that some points of most inputs fall back
    with mock.patch.object(maxent, "_GUARD", 2.0**-45):
        for s in (1, -1):
            p, residual = maxent._roots(np.concatenate(parts), s)
            roots = [maxent._roots(np.array(part), s) for part in parts]
            assert np.array_equal(p, np.concatenate([part_p for part_p, _ in roots]))
            assert np.array_equal(residual, np.concatenate([part_r for _, part_r in roots]))


@given(st.lists(SOLVER_X | TABLE_X, min_size=1, max_size=50))
@example([2.747530357385009])
@example([FALLBACK_X])
@settings(max_examples=100, deadline=None)
def test_float_route_keeps_the_array_route_roots(xs):
    # the float route starts every point from u = x, the array route from
    # the start table; both stop within the root's rounding interval
    x = np.array(xs)
    for s in (1, -1):
        u, p_array, _ = roots_with_u(x, s)
        u_float = np.array([maxent._root(v, s) for v in xs])
        assert np.all(np.abs(u_float - u) <= 8.0 * np.finfo(float).eps * np.maximum(u, 1.0))
        p, residual = maxent._float_roots(xs, s)
        assert np.array_equal(np.array(p) == 0.0, p_array == 0.0)
        assert max(residual) <= 1e-12


@pytest.mark.parametrize("s", [1, -1])
def test_float_route_stops_within_six_rounds(monkeypatch, s):
    # from the Gibbs guess u = x, over the whole double range
    xs = [0.0, 5e-324, 1e-300, 1e-14, 1e-8, 1e-3, 0.0918, 0.5, 1.3, 2.7475, 5.0, 36.5,
          745.0, 800.0, 1e100, 1.7e308]
    calls = []
    g = maxent._g

    def counted(*args, **kwargs):
        calls.append(args)
        return g(*args, **kwargs)

    monkeypatch.setattr(maxent, "_g", counted)
    for x in xs:
        calls.clear()
        maxent._root(x, s)
        assert len(calls) <= 6, x


@pytest.mark.parametrize("s", [1, -1])
def test_float_route_names_the_worst_residual(monkeypatch, s):
    # as _roots does: the largest residual of the input, not the first one
    xs = np.linspace(0.0, 3.0, 61).tolist()
    _, residual = maxent._float_roots(xs, s)
    worst = xs[int(np.argmax(residual))]
    monkeypatch.setattr(maxent, "_RESIDUAL_BOUND", 0.0)
    with pytest.raises(NumericalError, match=rf"root at x = {worst:g} has residual"):
        maxent._float_roots(xs, s)


def test_scalar_solvers_take_the_float_route(monkeypatch):
    # no array is built for one Python float
    def refuse(*args):
        raise AssertionError("the array route ran")

    monkeypatch.setattr(maxent, "_roots", refuse)
    assert solve_p_plus(1.0) == maxent.MaxEntSolution(1.0, *(v[0] for v in maxent._float_roots([1.0], 1)))
    assert solve_p_minus(0.5).p < 0.9


def test_numpy_floats_take_the_float_route(monkeypatch):
    # numpy's float64 is a float: converted with float(), with the bits of
    # the Python-float call, and no array is built
    def refuse(*args):
        raise AssertionError("the array route ran")

    xs = np.linspace(0.0, 3.0, 31)
    energies = np.sort(np.random.default_rng(7).uniform(0.0, 8.0, 64))
    expected = {
        "roots": [solve(x) for solve in (solve_p_plus, solve_p_minus)
                  for x in (0.0, 1e-8, 1.3, 36.5, 745.0)],
        "fits": [fit_gen_exp(kind, 4, xs.tolist()) for kind in ("plus", "minus")],
        "dists": [maxent_distribution(energies.tolist(), 1.5, kind)
                  for kind in ("plus", "minus", "boltzmann")],
    }
    monkeypatch.setattr(maxent, "_roots", refuse)
    monkeypatch.setattr(maxent, "_fit_arrays", refuse)
    monkeypatch.setattr(maxent, "_distribution_arrays", refuse)
    roots = [solve(np.float64(x)) for solve in (solve_p_plus, solve_p_minus)
             for x in (0.0, 1e-8, 1.3, 36.5, 745.0)]
    fits = [fit_gen_exp(kind, 4, list(xs)) for kind in ("plus", "minus")]
    dists = [maxent_distribution(list(energies), 1.5, kind)
             for kind in ("plus", "minus", "boltzmann")]
    for got, want in zip(roots, expected["roots"]):
        assert (got.p.hex(), got.residual.hex()) == (want.p.hex(), want.residual.hex())
    for got, want in zip(fits, expected["fits"]):
        assert [a.hex() for a in got.coeffs.a] == [a.hex() for a in want.coeffs.a]
        assert (got.residual.hex(), got.grid) == (want.residual.hex(), want.grid)
    for got, want in zip(dists, expected["dists"]):
        assert [p.hex() for p in got.probs] == [p.hex() for p in want.probs]
        assert got._array is None


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_float_route_fit_matches_lstsq(kind, degree):
    # Householder QR against np.linalg.lstsq and the exact least-squares
    # solution (normal equations in 80 digits) on the same roots; the
    # design's condition number is at most ~9e3 here.  Each solver is up to
    # ~1.5e-12 off the exact minus a6 (0.0168), the smallest coefficient.
    xs = np.linspace(0.0, 1.0, 31)
    probs, _ = maxent._float_roots(xs.tolist(), maxent._SIGN[kind])
    weight = np.exp(-xs)
    design = weight[:, None] * xs[:, None] ** np.arange(1, degree + 1)
    rhs = np.array(probs) - weight
    expected = np.linalg.lstsq(design, rhs, rcond=None)[0]
    fitted = np.array(fit_gen_exp(kind, degree, xs.tolist()).coeffs.a[1:])
    assert np.all(np.abs(fitted - expected) <= 1e-12 * np.abs(expected).max())
    with mpmath.workdps(80):
        a = mpmath.matrix(design.tolist())
        exact = mpmath.lu_solve(a.T * a, a.T * mpmath.matrix(rhs.tolist()))
        exact = np.array([float(v) for v in exact])
    assert np.all(np.abs(fitted - exact) <= 2e-12 * np.abs(exact))


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["plus", "minus"])
@pytest.mark.parametrize("x_max", [1.0, 3.0])
def test_array_route_fit_matches_exact_lstsq(x_max, kind, degree):
    # the running-product design and np.linalg.lstsq against the exact
    # least-squares solution on the same roots: the design exp(-x) x**j and
    # the normal equations in 80 digits.  The worst coefficient is 2.8e-13
    # off in relative terms (5.2e-13 with a pow per design entry).
    xs = np.linspace(0.0, x_max, 301)
    probs, _ = maxent._roots(xs, maxent._SIGN[kind])
    fitted = np.array(fit_gen_exp(kind, degree, xs).coeffs.a[1:])
    with mpmath.workdps(80):
        points = [mpmath.mpf(x) for x in xs.tolist()]
        weight = [mpmath.exp(-x) for x in points]
        a = mpmath.matrix([[w * x**j for j in range(1, degree + 1)] for w, x in zip(weight, points)])
        rhs = mpmath.matrix([mpmath.mpf(p) - w for p, w in zip(probs.tolist(), weight)])
        exact = mpmath.lu_solve(a.T * a, a.T * rhs)
        exact = np.array([float(v) for v in exact])
    assert np.all(np.abs(fitted - exact) <= 1e-12 * np.abs(exact))


@pytest.mark.parametrize(
    "window, degree",
    [((0.0, 1.0), 4), ((0.0, 745.0), 2), ((0.0, 745.0), 3), ((0.0, 745.0), 4),
     ((1e-8, 1e-3), 4), ((1e-8, 1e-3), 5), ((300.0, 400.0), 3), ((300.0, 400.0), 5),
     ((5.0, 5.001), 3), ((5.0, 5.001), 4)],
)
@pytest.mark.parametrize("s", [1, -1])
def test_fit_routes_agree_on_the_rank(window, degree, s):
    # lstsq counts the design rank deficient where its smallest singular
    # value is at most eps * rows times its largest; the float route tests
    # R's singular values the same way, on the same points
    xs = np.linspace(*window, 64)

    def outcome(fit, grid):
        try:
            return fit(s, degree, grid)[0]
        except NumericalError as exc:
            return str(exc)

    floats = outcome(maxent._fit_floats, xs.tolist())
    arrays = outcome(maxent._fit_arrays, xs)
    assert type(floats) is type(arrays)
    if isinstance(floats, str):
        assert floats == arrays == "the fit design matrix is rank deficient on this grid"


def test_fit_with_a_zero_column_is_rank_deficient_on_both_routes():
    # x**2 exp(-x) underflows to 0 at every point: a zero column
    grid = [0.0, 5e-324, 1e-323]
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_gen_exp("plus", 2, grid)
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_gen_exp("plus", 2, grid + [0.0] * (entropy._FLOAT_ROUTE_MAX - 2))


@pytest.mark.parametrize("kind", ["plus", "minus", "boltzmann"])
def test_distribution_routes_agree(kind):
    # the same 64 levels through both routes; exp may differ by an ulp
    energies = spectrum_x(31, 64, 50.0).tolist()
    floats, _, _ = maxent._distribution_floats(energies, 0.8, kind)
    _, arrays, _, _ = maxent._distribution_arrays(energies, 0.8, kind)
    assert floats == pytest.approx(arrays.tolist(), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("name", sorted(SOLVER_INPUTS))
def test_roots_stop_in_three_rounds(monkeypatch, name, s):
    # two passes of g: the Newton step from the table start, and the pass at
    # the new iterate that gives p, the residual and the look-ahead test.
    # The Newton loop took three passes from the same table (two rounds and
    # a residual pass), six rounds from u = x.
    x = SOLVER_INPUTS[name]
    maxent._roots(x, s)  # the start table is built outside the count
    calls = []
    g = maxent._g

    def counted(*args, **kwargs):
        calls.append(args)
        return g(*args, **kwargs)

    monkeypatch.setattr(maxent, "_g", counted)
    maxent._roots(x, s)
    assert len(calls) == 2


# the nodes and the midpoints of the start table, and any x from the first
# midpoint to the table end
TABLE_NODES_AND_MIDPOINTS = st.integers(0, 2 * maxent._NODES).map(
    lambda k: k * (0.5 * maxent._STEP)
) | st.floats(min_value=0.5 * maxent._STEP, max_value=maxent._TABLE_END)


@given(st.lists(TABLE_NODES_AND_MIDPOINTS, min_size=1, max_size=200))
@example([0.5 * maxent._STEP, 0.091796875])
@settings(max_examples=100, deadline=None)
def test_table_start_is_within_1e_7_of_the_root(xs):
    # 7.8e-11 (plus, x = 1/512) and 1.6e-11 (minus, x = 0.0918) at most on
    # all nodes and midpoints and 4e5 points evenly spread over [0, 40]
    x = np.array(xs)
    for s in (1, -1):
        u, _ = roots_loop(x, s, x)
        assert np.all(np.abs(maxent._start(x, s) - u) <= 1e-7 * u)


def mpmath_u_root(x, s):
    # 50-digit root in u = -ln p of the equation in _g, started at the
    # series' u = x (1 - a1)
    with mpmath.workdps(50):
        big_x = mpmath.mpf(x)

        def g(u):
            p = mpmath.exp(-u)
            return 1 - u + big_x * (1 + s * (p - p * u)) - mpmath.exp(s * p * u)

        return mpmath.findroot(g, big_x * (1 - SMALL_X_SERIES[s][0]), solver="newton")


@pytest.mark.parametrize("s", [1, -1])
def test_start_table_takes_the_exact_limits_at_zero(s):
    # r(0) = 1 - a1 and r'(0) = a1**2 / 2 - a2, where the slope formula is 0/0
    # (minus: g_u(0, 0) = 0): plus (1, -3/4), minus (4/3, 52/81)
    a1, a2 = SMALL_X_SERIES[s]
    c0, c1, _, _ = maxent._table(s)
    assert (c0[0], c1[0] / maxent._STEP) == ({1: (1.0, -0.75), -1: (4 / 3, 52 / 81)}[s])
    for x in (1e-3, 1e-4):
        with mpmath.workdps(50):
            scaled = mpmath.exp(x - mpmath_u_root(x, s))  # p e**x
            assert abs(scaled - (1 + float(a1) * x + float(a2) * x * x)) <= 2.0 * x**3


@pytest.fixture
def cold_tables():
    # no start table cached before the test, and none it built after it
    maxent._table.cache_clear()
    yield
    maxent._table.cache_clear()


@pytest.mark.parametrize("s", [1, -1])
def test_start_table_builds_without_warnings(cold_tables, s):
    # the minus slope is 0/0 at the node 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maxent._start(np.array([0.0, 1.0]), s)
    assert maxent._table.cache_info().currsize == 1
    assert all(np.isfinite(column).all() for column in maxent._table(s))


@pytest.mark.parametrize("s", [1, -1])
def test_start_table_is_built_by_six_newton_rounds(cold_tables, monkeypatch, s):
    # A cold build passes g over the nodes seven times: six plain Newton
    # rounds from u = x, which close every node of either kind, and the slope
    # pass.  Its starts are those of the test's own table, whose node roots
    # come from roots_loop's bracketed loop, bit for bit on every node and
    # midpoint.
    calls = []
    g = maxent._g

    def counted(*args, **kwargs):
        calls.append(args)
        return g(*args, **kwargs)

    monkeypatch.setattr(maxent, "_g", counted)
    maxent._table(s)
    assert len(calls) == 7
    x = np.arange(2 * maxent._NODES + 1) * (0.5 * maxent._STEP)
    assert np.array_equal(maxent._start(x, s), table_start(x, s))


@pytest.mark.parametrize("s", [1, -1])
def test_start_table_with_a_non_finite_slope_is_refused(cold_tables, monkeypatch, s):
    # g_u = 0 at the node x = 2 in the slope pass, the seventh pass of g
    # (see test_start_table_is_built_by_six_newton_rounds), makes its slope
    # infinite once every root is found
    g = maxent._g
    passes = []

    def flat_at_two(u, x, *args, **kwargs):
        value, slope = g(u, x, *args, **kwargs)
        passes.append(None)
        return value, np.where(x == 2.0, 0.0, slope) if len(passes) == 7 else slope

    monkeypatch.setattr(maxent, "_g", flat_at_two)
    with pytest.raises(NumericalError, match=r"non-finite entry at x = 2$"):
        maxent._roots(np.array([0.5]), s)
    assert maxent._table.cache_info().currsize == 0


@pytest.mark.parametrize("s", [1, -1])
def test_roots_name_the_first_point_left_open_at_the_round_cap(cold_tables, monkeypatch, s):
    # g is NaN at x = 2, so that point neither moves its bracket nor stops;
    # every other point stops in a few rounds and rides along to the cap.
    # x = 2 is a node of the start table too: with no table cached, the
    # build stops there first and must leave no table behind.
    g = maxent._g

    def nan_at_two(u, x, *args, **kwargs):
        value, slope = g(u, x, *args, **kwargs)
        return np.where(x == 2.0, np.nan, value), slope

    x = np.linspace(0.0, 4.0, 9)
    monkeypatch.setattr(maxent, "_g", nan_at_two)
    with pytest.raises(NumericalError, match=r"did not converge at x = 2$"):
        maxent._roots(x, s)
    assert maxent._table.cache_info().currsize == 0
    monkeypatch.setattr(maxent, "_g", g)
    maxent._roots(x, s)
    assert maxent._table.cache_info().currsize == 1
    monkeypatch.setattr(maxent, "_g", nan_at_two)
    with pytest.raises(NumericalError, match=r"did not converge at x = 2$"):
        maxent._roots(x, s)


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


def test_load_rejects_repeated_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "kind = plus\ndegree = 1\na0 = 1.0\na1 = 0.5\na1 = 0.25\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="line 5 repeats the key 'a1'"):
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
