"""Package-level exports."""

import entrogup

EXPORTS = {
    "AnsatzCoeffs", "DEFAULT_FIT_GRID", "DEFAULT_ORDER", "GammaBetaParams",
    "GenExpFit", "GupParams", "MaxEntSolution", "NumericalError", "PipelineReport",
    "ProbVector", "QEXP_PIPELINE_RATIO", "REFERENCE_MINUS", "REFERENCE_PLUS",
    "RegimeSummary", "TruncatedSeries", "__version__", "arctan_series",
    "boltzmann_closed", "boltzmann_quadrature", "boltzmann_series",
    "commutator_rhs", "compose", "deformation_closed", "deformation_pipeline",
    "effective_hamiltonian_series", "effective_momentum_series", "exp_series",
    "fit_gen_exp", "gamma_pdf", "gen_exp_eval", "k_of_p", "ln_one_plus",
    "load_coeffs", "log_minus", "log_plus", "maxent_distribution", "mul",
    "normalize_momentum", "p_of_k", "regime_summary", "renyi", "s_minus",
    "s_minus_equiprob_expansion", "s_plus", "s_plus_equiprob_expansion",
    "save_coeffs", "shannon", "solve_p_minus", "solve_p_plus", "sqrt_series",
    "tan_series", "tsallis", "tsallis_coeffs", "uncertainty_lower_bound",
}


def test_exports_resolve_and_are_unchanged():
    assert len(entrogup.__all__) == len(EXPORTS)
    assert set(entrogup.__all__) == EXPORTS
    for name in entrogup.__all__:
        assert getattr(entrogup, name) is not None


def test_dir_lists_every_export_sorted():
    names = dir(entrogup)
    assert names == sorted(set(names))
    assert EXPORTS <= set(names)
    assert {"__getattr__", "__dir__", "errors"} <= set(names)
