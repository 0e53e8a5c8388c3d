"""Reference values the benchmark checks entrogup against.

Nothing here calls entrogup except ``accuracy_probes``, which runs fixed,
seed-independent inputs through the program and compares the results with
50-digit mpmath roots and the closed forms.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_MP = mpmath.MPContext()
_MP.dps = 50

# Small-x start for the reference Newton iteration, p ~ exp(-x)(1 + a1 x + a2 x^2),
# close enough to the interior root that it is not drawn to the double root
# the minus equation has at p = 1.
_START = {"plus": (0.0, 0.75), "minus": (-1.0 / 3.0, -0.5864)}

# Fixed probe inputs: the same on every run, so the accuracy metrics repeat.
ROOT_PROBE_X = [float(x) for x in np.geomspace(1e-8, 36.0, 32)]
QUAD_PROBE = [
    (p, energy, tol)
    for p in (0.02, 0.1, 0.3, 0.6, 1.0)
    for energy in (0.5, 2.0, 5.0, 10.0, 20.0)
    for tol in (1e-6, 1e-8, 1e-10)
]


def _g(kind, p, x):
    lp = _MP.log(p)
    if kind == "plus":
        return 1 + lp + x * (1 + p + p * lp) - _MP.exp(-p * lp)
    return 1 + lp + x * (1 - p - p * lp) - _MP.exp(p * lp)


def _dg(kind, p, x):
    lp = _MP.log(p)
    if kind == "plus":
        return 1 / p + x * (2 + lp) + _MP.exp(-p * lp) * (lp + 1)
    return 1 / p - x * (2 + lp) - _MP.exp(p * lp) * (lp + 1)


def reference_root(kind: str, x: float, guess: float) -> tuple[float, float]:
    """Interior root of the implicit equation at ``x`` and ``|g'|`` there.

    Newton's method in 50-digit arithmetic, started from the small-x ansatz
    for ``x < 0.05`` and from ``guess`` (a double-precision root) above.
    """
    big_x = _MP.mpf(x)
    if x < 0.05:
        a1, a2 = _START[kind]
        p = _MP.exp(-big_x) * (1 + a1 * big_x + a2 * big_x * big_x)
    else:
        p = _MP.mpf(guess)
    for _ in range(100):
        step = _g(kind, p, big_x) / _dg(kind, p, big_x)
        p -= step
        if abs(step) <= p * _MP.mpf(10) ** -30:
            return float(p), float(abs(_dg(kind, p, big_x)))
    raise RuntimeError(f"reference Newton did not converge for {kind} at x = {x!r}")


def root_matches(kind: str, x: float, p: float, tol: float = 1e-12) -> bool:
    """Whether ``p`` is within the root error that a residual ``tol`` allows.

    The solver promises ``|g(p)| <= tol``, which bounds its distance from the
    root by about ``tol / |g'|``; a factor 10 covers the curvature.
    """
    if x == 0.0:
        return p == 1.0
    ref, slope = reference_root(kind, x, p)
    return abs(p - ref) <= 10.0 * tol / slope + 1e-13 * ref


def boltzmann_closed(p: float, energy: float) -> float:
    """``(1 + p E)**(-1/p)``, the spread-averaged weight with ``beta0 = 1``."""
    return math.exp(-math.log1p(p * energy) / p)


def alpha0_closed(a1: float, a2: float) -> float:
    return 3.0 * (a1 * a1 - 2.0 * a2) / (8.0 * (1.0 - a1))


def accuracy_probes(eg) -> dict[str, float]:
    """Reproduction gap, solver accuracy and quadrature accuracy on fixed inputs."""
    out = {}
    grid = np.linspace(0.0, 1.0, 301)
    for kind, ref in (("plus", eg.REFERENCE_PLUS), ("minus", eg.REFERENCE_MINUS)):
        fitted = eg.fit_gen_exp(kind, 4, grid).coeffs
        gap = (eg.deformation_pipeline(fitted, 8).alpha0_pipeline
               - eg.deformation_pipeline(ref, 8).alpha0_pipeline)
        out[f"alpha0_gap_{kind}"] = abs(gap)
    worst = 0.0
    for kind, solve in (("plus", eg.solve_p_plus), ("minus", eg.solve_p_minus)):
        for x in ROOT_PROBE_X:
            p = solve(x).p
            ref, _ = reference_root(kind, x, p)
            worst = max(worst, abs(p - ref) / ref)
    out["root_max_rel_err"] = worst
    worst = 0.0
    for p, energy, tol in QUAD_PROBE:
        value = eg.boltzmann_quadrature(eg.GammaBetaParams(p, 1.0), energy, tol=tol)
        closed = boltzmann_closed(p, energy)
        worst = max(worst, abs(value - closed) / closed)
    out["quad_max_rel_err"] = worst
    return out


def digits(rel_err: float) -> float:
    """Correct decimal digits, ``-log10(rel_err)``, capped at 17."""
    return -math.log10(max(rel_err, 1e-17))
