"""End-to-end acceptance gate.

One test per criterion, each printing a single ``ACCEPTANCE n: PASS`` line
(run ``pytest tests/test_acceptance.py -s`` to see them).  Tolerances are part
of the contract and are asserted exactly as stated.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from entrogup.ansatz import REFERENCE_MINUS, REFERENCE_PLUS
from entrogup.cli import main
from entrogup.entropy import ProbVector, s_minus, s_plus, shannon
from entrogup.gup import (
    QEXP_PIPELINE_RATIO,
    GupParams,
    deformation_pipeline,
    k_of_p,
    p_of_k,
    regime_summary,
    tsallis_coeffs,
    uncertainty_lower_bound,
)
from entrogup.entropy import s_plus_equiprob_expansion
from entrogup.maxent import (
    DEFAULT_FIT_GRID,
    AnsatzCoeffs,
    fit_gen_exp,
    maxent_distribution,
    solve_p_minus,
    solve_p_plus,
)
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
from entrogup.superstats import (
    GammaBetaParams,
    boltzmann_closed,
    boltzmann_quadrature,
    gamma_pdf,
)

PUBLISHED_PLUS = -0.560565
PUBLISHED_MINUS = 0.361022


def cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def default_grid():
    start, stop, count = DEFAULT_FIT_GRID.split(":")
    return np.linspace(float(start), float(stop), int(count))


def test_acceptance_1_published_deformation_parameters(capsys):
    plus = cli_json(capsys, "derive", "--kind", "plus")["records"]
    minus = cli_json(capsys, "derive", "--kind", "minus")["records"]
    assert abs(plus["alpha0_pipeline"] - PUBLISHED_PLUS) <= 1e-5
    assert abs(minus["alpha0_pipeline"] - PUBLISHED_MINUS) <= 1e-5
    print(
        f"\nACCEPTANCE 1: PASS — derive on built-ins gives "
        f"{plus['alpha0_pipeline']:.6f} / {minus['alpha0_pipeline']:.6f} "
        f"(published {PUBLISHED_PLUS} / {PUBLISHED_MINUS}, tol 1e-5)"
    )


def test_acceptance_2_pipeline_matches_closed_form():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        a1 = rng.uniform(-0.9, 0.9)
        a2, a3, a4 = rng.uniform(-2.0, 2.0, size=3)
        report = deformation_pipeline(AnsatzCoeffs((1.0, a1, a2, a3, a4)))
        worst = max(worst, report.discrepancy)
    assert worst <= 1e-9
    print(
        f"\nACCEPTANCE 2: PASS — series pipeline vs closed form on 1000 random "
        f"coefficient sets, worst |difference| = {worst:.3e} (tol 1e-9)"
    )


def test_acceptance_3_sign_theorem_full_chain(tmp_path, capsys):
    alpha0 = {}
    for kind in ("plus", "minus"):
        path = tmp_path / f"{kind}.txt"
        assert main(["fit", "--kind", kind, "--coeffs", str(path)]) == 0
        capsys.readouterr()
        records = cli_json(capsys, "derive", "--coeffs", str(path))["records"]
        alpha0[kind] = records["alpha0_pipeline"]
    assert alpha0["plus"] < 0.0
    assert alpha0["minus"] > 0.0
    print(
        f"\nACCEPTANCE 3: PASS — solve→fit(default grid)→derive gives "
        f"alpha0(plus) = {alpha0['plus']:.4f} < 0 < "
        f"{alpha0['minus']:.4f} = alpha0(minus)"
    )


def test_acceptance_4_reference_coefficient_proximity():
    grid = default_grid()
    plus = fit_gen_exp("plus", 4, grid).coeffs
    minus = fit_gen_exp("minus", 4, grid).coeffs
    d_plus = abs(plus.a[1] - REFERENCE_PLUS.a[1])
    d_minus = abs(minus.a[1] - REFERENCE_MINUS.a[1])
    assert d_plus < 0.05
    assert d_minus < 0.05
    assert plus.a[2] > 0.0
    assert minus.a[2] < 0.0
    print(
        f"\nACCEPTANCE 4: PASS — fitted a1 within 0.05 of reference "
        f"(plus off by {d_plus:.4f}, minus off by {d_minus:.4f}); "
        f"a2 signs match (+{plus.a[2]:.3f}, {minus.a[2]:.3f})"
    )


def test_acceptance_5_quadrature_grid():
    worst = 0.0
    for p in np.linspace(0.05, 1.0, 20):
        params = GammaBetaParams(float(p), 1.0)
        for energy in np.linspace(0.0, 5.0, 20):
            closed = boltzmann_closed(params, float(energy))
            quadval = boltzmann_quadrature(params, float(energy))
            worst = max(worst, abs(quadval - closed) / closed)
    assert worst <= 1e-7
    print(
        f"\nACCEPTANCE 5: PASS — quadrature vs closed form on the 20x20 grid, "
        f"worst relative deviation = {worst:.3e} (tol 1e-7)"
    )


def test_acceptance_6_entropy_expansion():
    for omega in range(3, 65):
        exact = s_plus(ProbVector.uniform(omega))
        errors = [
            abs(s_plus_equiprob_expansion(omega, n) - exact) for n in (1, 2, 3)
        ]
        assert errors[0] > errors[1] > errors[2]
    exact4 = s_plus(ProbVector.uniform(4))
    partial3 = s_plus_equiprob_expansion(4, 3)
    assert abs(exact4 - 1.1715729) <= 1e-6
    assert abs(partial3 - 1.1738202) <= 1e-6
    print(
        f"\nACCEPTANCE 6: PASS — partial-sum error decreases with term count for "
        f"omega 3..64; at omega 4 exact = {exact4:.7f}, three-term sum = "
        f"{partial3:.7f} (tol 1e-6)"
    )


def test_acceptance_7_gup_phenomenology():
    # minimal position uncertainty for alpha > 0
    params = GupParams(0.04)
    at_stationary = uncertainty_lower_bound(params, 1.0 / math.sqrt(0.04))
    assert abs(at_stationary - math.sqrt(0.04)) <= 1e-12
    dp_grid = np.linspace(0.2, 50.0, 2000)
    assert min(
        uncertainty_lower_bound(params, float(dp)) for dp in dp_grid
    ) >= at_stationary - 1e-12

    # momentum cap for alpha < 0
    capped = GupParams(-0.560565)
    cap = regime_summary(capped).max_momentum
    assert abs(cap - 1.0 / math.sqrt(0.560565)) <= 1e-12
    assert p_of_k(capped, 30.0) <= cap

    # cubic coefficient of the momentum relation
    alpha = 0.3
    k = 1e-3
    cubic = (p_of_k(GupParams(alpha), k) - k) / k**3
    assert cubic == pytest.approx(alpha / 3.0, rel=1e-5)
    assert tan_series(3).coeffs[3] * alpha == pytest.approx(alpha / 3.0, rel=1e-15)

    print(
        f"\nACCEPTANCE 7: PASS — min dx = {at_stationary:.3f} = sqrt(alpha) at "
        f"alpha 0.04 (tol 1e-12); momentum cap = {cap:.7f} = 1/sqrt(0.560565); "
        f"k^3 coefficient = alpha/3"
    )


def test_acceptance_8_tsallis_consistency():
    ratios = {}
    for q in (0.5, 0.9, 1.1, 1.5):
        alpha0 = deformation_pipeline(tsallis_coeffs(q)).alpha0_pipeline
        nominal = 1.0 - q
        assert math.copysign(1.0, alpha0) == math.copysign(1.0, nominal)
        ratios[q] = alpha0 / nominal
        assert ratios[q] == pytest.approx(QEXP_PIPELINE_RATIO, rel=1e-10)
    print(
        f"\nACCEPTANCE 8: PASS — q-exponential pipeline gives alpha0 = "
        f"(3/8)(1-q) for q in {sorted(ratios)}; the 3/8-vs-1 normalization "
        f"difference against the linear-order (1-q) value is reported "
        f"(ratio {ratios[0.5]:.6f}), not hidden"
    )


def test_acceptance_9_module_property_suites():
    rng = np.random.default_rng(99173)

    # series ring axioms
    for _ in range(200):
        u, v, w = (
            TruncatedSeries(tuple(rng.uniform(-10, 10, size=6))) for _ in range(3)
        )
        lhs = mul(u, v + w).coeffs
        rhs = (mul(u, v) + mul(u, w)).coeffs
        assert all(
            abs(a - b) <= 1e-12 * (1 + abs(a) + abs(b)) for a, b in zip(lhs, rhs)
        )
        assert all(
            abs(a - b) <= 1e-12 * (1 + abs(a) + abs(b))
            for a, b in zip(mul(u, v).coeffs, mul(v, u).coeffs)
        )

    # series roundtrips
    for _ in range(100):
        tail = rng.uniform(-0.5, 0.5, size=6)
        s = TruncatedSeries((0.0, *tail[1:]))
        back = ln_one_plus(exp_series(s) - 1.0)
        assert all(abs(a - b) <= 1e-10 for a, b in zip(back.coeffs, s.coeffs))
        a = TruncatedSeries((float(rng.uniform(0.5, 4.0)), *tail[1:]))
        r = sqrt_series(a)
        assert all(
            abs(x - y) <= 1e-10 * (1 + abs(x)) for x, y in zip(mul(r, r).coeffs, a.coeffs)
        )
    ident = compose(tan_series(9), arctan_series(9)).coeffs
    assert all(abs(c - e) <= 1e-12 for c, e in zip(ident, (0.0, 1.0) + (0.0,) * 8))

    # solver monotonicity
    xs = np.linspace(0.0, 20.0, 200)
    for solver in (solve_p_plus, solve_p_minus):
        values = [solver(float(x)).p for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    # weight-factor monotonicity and normalization of the spread density
    params = GammaBetaParams(0.35, 1.2)
    bs = [boltzmann_closed(params, e) for e in np.linspace(0.0, 5.0, 30)]
    assert all(a > b for a, b in zip(bs, bs[1:]))
    norm, _ = quad(lambda b: gamma_pdf(params, b), 0, np.inf)
    assert norm == pytest.approx(1.0, rel=1e-9)

    # distribution normalization
    for kind in ("plus", "minus", "boltzmann"):
        dist = maxent_distribution([0.0, 0.4, 1.1, 2.7], 0.9, kind)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)

    # entropy ordering invariant
    for _ in range(100):
        weights = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 8)))
        pv = ProbVector(tuple(float(w) for w in weights / math.fsum(weights)))
        assert s_minus(pv) >= shannon(pv) - 1e-12 >= s_plus(pv) - 2e-12

    # momentum-map roundtrips
    for alpha0 in (0.25, -0.25, 1e-13, 0.0):
        params = GupParams(alpha0)
        for _ in range(50):
            k = float(rng.uniform(0.0, 1.2))
            assert k_of_p(params, p_of_k(params, k)) == pytest.approx(k, abs=1e-12)

    print(
        "\nACCEPTANCE 9: PASS — module property suites (ring axioms, series "
        "roundtrips, solver monotonicity, density/distribution normalization, "
        "entropy ordering, momentum-map roundtrips) hold at stated tolerances"
    )
