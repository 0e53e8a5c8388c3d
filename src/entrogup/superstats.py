"""Statistics of a fluctuating inverse temperature.

The inverse temperature ``beta`` is Gamma-distributed with mean ``beta0`` and
a single spread parameter ``p``; averaging the ordinary exponential weight over
that spread turns it into a power law.  The module exposes the density, the
averaged weight factor in closed form, the same average by adaptive quadrature
(an independent cross-check route), and its small-spread expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import NumericalError

__all__ = [
    "GammaBetaParams",
    "gamma_pdf",
    "boltzmann_closed",
    "boltzmann_quadrature",
    "boltzmann_series",
]


@dataclass(frozen=True)
class GammaBetaParams:
    """Spread parameter ``p`` in (0, 1] and mean inverse temperature ``beta0 > 0``.

    Equivalent to a Gamma distribution with shape ``1/p`` and scale ``p*beta0``,
    so the mean is ``beta0`` and the variance ``p*beta0**2``.
    """

    p: float
    beta0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 0.0 < self.p <= 1.0):
            raise ValueError(f"spread parameter p must lie in (0, 1], got {self.p!r}")
        if not (math.isfinite(self.beta0) and self.beta0 > 0.0):
            raise ValueError(f"beta0 must be positive and finite, got {self.beta0!r}")


def gamma_pdf(params: GammaBetaParams, beta: float) -> float:
    """Probability density of the inverse temperature at ``beta``.

    Parameters
    ----------
    params : GammaBetaParams
        Spread and mean of the distribution.
    beta : float
        Inverse temperature, ``beta >= 0``.

    Returns
    -------
    float
        Density value; normalized so the mean is ``beta0`` and the variance
        ``p * beta0**2``.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be non-negative, got {beta!r}")
    shape = 1.0 / params.p
    scale = params.p * params.beta0
    if beta == 0.0:
        # Finite only in the exponential limit p = 1 (shape 1).
        return 1.0 / scale if shape == 1.0 else 0.0
    return math.exp(
        (shape - 1.0) * math.log(beta)
        - beta / scale
        - math.lgamma(shape)
        - shape * math.log(scale)
    )


def boltzmann_closed(params: GammaBetaParams, energy: float) -> float:
    """Spread-averaged weight factor ``(1 + p*beta0*E)**(-1/p)`` at ``E >= 0``."""
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be non-negative, got {energy!r}")
    return math.exp(-math.log1p(params.p * params.beta0 * energy) / params.p)


def boltzmann_quadrature(
    params: GammaBetaParams, energy: float, tol: float = 1e-8
) -> float:
    """Spread-averaged weight factor by adaptive quadrature.

    Integrates ``gamma_pdf(beta) * exp(-beta*E)`` over the substitution
    ``t = beta / (p*beta0)``, which turns the integrand into
    ``t**(1/p - 1) * exp(-c*t) / Gamma(1/p)`` with ``c = 1 + p*beta0*E``.
    The interval is cut at an upper limit ``T`` chosen so the analytic tail
    bound stays below ``tol/10`` relative to the computed value.

    Parameters
    ----------
    params : GammaBetaParams
        Spread and mean of the inverse-temperature distribution.
    energy : float
        Energy argument, ``E >= 0``.
    tol : float
        Target relative error.

    Raises
    ------
    NumericalError
        If the estimated relative error cannot be brought below ``tol``.
    """
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be non-negative, got {energy!r}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    shape = 1.0 / params.p
    c = 1.0 + params.p * params.beta0 * energy
    lgam = math.lgamma(shape)

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0 if shape > 1.0 else math.exp(-lgam)
        return math.exp((shape - 1.0) * math.log(t) - c * t - lgam)

    # Past T >= 2(shape-1)/c the exponent decays at least like exp(-c t / 2),
    # so the dropped tail is bounded by integrand(T) * 2/c.
    upper = max(2.0 * (shape - 1.0) / c, 1.0)
    epsrel = max(min(tol / 4.0, 1e-2), 1e-13)
    for _ in range(64):
        value, abserr = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=epsrel, limit=200)
        tail = integrand(upper) * 2.0 / c
        if value > 0.0 and tail <= 0.1 * tol * value:
            if abserr + tail > tol * value:
                raise NumericalError(
                    f"quadrature reached relative error {(abserr + tail) / value:.3e}, "
                    f"above the requested tolerance {tol:.3e}"
                )
            return value
        upper *= 1.5
    raise NumericalError(
        "could not push the quadrature tail below the requested tolerance "
        f"(last upper limit {upper:.3e})"
    )


def boltzmann_series(params: GammaBetaParams, energy: float, order: int = 2) -> float:
    """Small-spread expansion of the averaged weight factor.

    ``exp(-beta0*E) * [1 + p*(beta0*E)**2/2 - p**2*(beta0*E)**3/3
    + p**2*(beta0*E)**4/8 + ...]``
    truncated at the requested order in ``p`` (0, 1, or 2).  Useful for
    ``p * (beta0*E)**2`` well below one.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"expansion order must be 0, 1, or 2, got {order!r}")
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be non-negative, got {energy!r}")
    x = params.beta0 * energy
    correction = 1.0
    if order >= 1:
        correction += 0.5 * params.p * x * x
    if order >= 2:
        correction += params.p * params.p * x**3 * (x / 8.0 - 1.0 / 3.0)
    return math.exp(-x) * correction
