"""Statistics of a fluctuating inverse temperature.

The inverse temperature ``beta`` is Gamma-distributed with mean ``beta0`` and
a single spread parameter ``p``; averaging the ordinary exponential weight over
that spread turns it into a power law.  The module exposes the density, the
averaged weight factor in closed form, the same average by adaptive quadrature
(an independent cross-check route), and its small-spread expansion.

The quadrature is the module's own ``quad``: QUADPACK's 21-point
Gauss-Kronrod rule in numpy, applied adaptively.  Its first panels narrow
geometrically toward a lower limit of 0, where ``t**(1/p - 1)`` is not smooth;
each round evaluates the integrand once on every open panel (21 nodes each)
and bisects the panels whose error estimate is above their share of the
requested relative error.  ``boltzmann_quadrature`` integrates up to a first
upper limit and, while the analytic tail bound is too large, adds the next
piece ``[T, 1.5 T]`` with its error estimate instead of starting again at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# QUADPACK qk21 (Piessens et al., 1983): the 21-point Kronrod nodes of
# [-1, 1] (non-negative half, the rule is symmetric), their weights, and the
# weights of the 10-point Gauss rule on the odd-indexed nodes.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525478219,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# The same rule over all 21 nodes, moved to [0, 1]: the nodes, the Kronrod
# weights (they sum to 1, so f @ _MEAN is the panel mean of f), and 200 times
# the Kronrod-minus-Gauss weights (the scaled difference QUADPACK uses).
_UNIT = 0.5 + 0.5 * np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_MEAN = 0.5 * np.array(_WGK[:-1] + tuple(reversed(_WGK)))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_RULES = np.stack((_MEAN, 200.0 * (_MEAN - 0.5 * _GAUSS)), axis=1)
# Weights of QUADPACK's rounding floor on the error, 50 eps times |f|'s mean.
_FLOOR = 50.0 * float(np.finfo(float).eps) * _MEAN
_TINY = float(np.finfo(float).tiny)

# Initial panels of [0, b], in units of b: [0, 4**-16], [4**-16, 4**-15], ...,
# [1/4, 1], narrowing toward 0, where t**(1/p - 1) is not smooth.
_GRADED = np.concatenate(([0.0], 0.25 ** np.arange(16, -1, -1)))
_GRADED_LO, _GRADED_WIDTH = _GRADED[:-1], np.diff(_GRADED)
# Work limits of ``quad``; past them it returns its current error estimate.
_MAX_ROUNDS = 60
_MAX_PANELS = 2000


def _qk21(func, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``func`` and QUADPACK's error estimate of that mean on each
    panel ``[lo, lo + width]``; times ``width`` they are integral and error."""
    f = func(lo[:, None] + width[:, None] * _UNIT)
    mean, diff = f.dot(_RULES).T
    asc = np.abs(f - mean[:, None]).dot(_MEAN)
    # asc = 0 only where f is 0 on the whole panel, and then so is diff.
    err = asc * np.minimum(1.0, np.abs(diff) / (asc + _TINY)) ** 1.5
    return mean, np.maximum(err, np.abs(f).dot(_FLOOR))


def quad(func, a: float, b: float, epsrel: float) -> tuple[float, float]:
    """Adaptive 21-point Gauss-Kronrod integral of ``func`` over ``[a, b]``.

    ``func`` maps an array of abscissae to an array of values.  Returns the
    integral and an estimate of its absolute error.  With ``a = 0`` the
    initial panels narrow geometrically toward 0, otherwise ``[a, b]`` is one
    panel.  Each round evaluates every open panel in one ``func`` call, stops
    once the summed error estimate is at most ``epsrel * |integral|``, and
    otherwise bisects the panels whose estimate is above their length's share
    of that bound (and the worst panel); the others are closed.  Past
    ``_MAX_ROUNDS`` rounds or ``_MAX_PANELS`` open panels it returns the
    estimate it has, so callers compare the error with their tolerance.

    ``boltzmann_quadrature`` looks it up as a module global, so a wrapper
    patched in here sees every integrator call.
    """
    if a == 0.0:
        lo, width = b * _GRADED_LO, b * _GRADED_WIDTH
    else:
        lo, width = np.array([a]), np.array([b - a])
    closed_value = closed_err = 0.0
    for _ in range(_MAX_ROUNDS):
        mean, err = _qk21(func, lo, width)
        total = closed_value + float(width.dot(mean))
        error = closed_err + float(width.dot(err))
        bound = epsrel * abs(total)
        if error <= bound or width.size > _MAX_PANELS:
            break
        # err is per unit length: err * width > bound * width / (b - a)
        split = (err > bound / (b - a)) | (err == err.max())
        keep = ~split
        closed_value += float(width[keep].dot(mean[keep]))
        closed_err += float(width[keep].dot(err[keep]))
        lo, width = lo[split], 0.5 * width[split]
        lo, width = np.concatenate((lo, lo + width)), np.concatenate((width, width))
    return total, error


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

    def integrand(t):
        return np.exp((shape - 1.0) * np.log(t) - c * t - lgam)

    # Past T >= 2(shape-1)/c the exponent decays at least like exp(-c t / 2),
    # so the dropped tail is bounded by integrand(T) * 2/c.
    # Pieces [0, T], [T, 1.5 T], ... until the tail bound is met.  For tiny p,
    # T runs past the largest float before that; such a limit is never integrated.
    lower, upper = 0.0, max(2.0 * (shape - 1.0) / c, 1.0)
    value = abserr = 0.0
    epsrel = max(min(tol / 4.0, 1e-2), 1e-13)
    # c*t past the largest float only occurs where the integrand is 0.
    with np.errstate(over="ignore"):
        for _ in range(65):
            if not math.isfinite(upper):
                break
            piece, piece_err = quad(integrand, lower, upper, epsrel)
            value += piece
            abserr += piece_err
            tail = float(integrand(upper)) * 2.0 / c
            if value > 0.0 and tail <= 0.1 * tol * value:
                if abserr + tail > tol * value:
                    raise NumericalError(
                        f"quadrature reached relative error {(abserr + tail) / value:.3e}, "
                        f"above the requested tolerance {tol:.3e}"
                    )
                return value
            lower, upper = upper, 1.5 * upper
    raise NumericalError(
        "could not push the quadrature tail below the requested tolerance "
        f"(last upper limit {lower:.3e})"
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
