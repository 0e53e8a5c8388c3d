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
and bisects the panels whose error estimate is above both their share of the
requested relative error and its rounding floor.  ``boltzmann_quadrature``
makes one ``quad`` call per point, over ``[0, T]``.  Divided by the value, its
integrand is a Gamma density, so ``T`` is a closed form from the Chernoff
bound on that density's tail, with no search.  A value below the smallest
normal float is refused.  The density and the integrand share one
log-density, written in ``beta/beta0`` so that no two of its terms of size
~1/p cancel.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._value import Value
from .errors import NumericalError

__all__ = [
    "GammaBetaParams",
    "gamma_pdf",
    "boltzmann_closed",
    "boltzmann_quadrature",
    "boltzmann_series",
]


class GammaBetaParams(Value):
    """Spread parameter ``p`` in (0, 1] and mean inverse temperature ``beta0 > 0``.

    Equivalent to a Gamma distribution with shape ``1/p`` and scale ``p*beta0``,
    so the mean is ``beta0`` and the variance ``p*beta0**2``.
    """

    _fields = ("p", "beta0")

    def __init__(self, p: float, beta0: float) -> None:
        if not (math.isfinite(p) and 0.0 < p <= 1.0):
            raise ValueError(f"spread parameter p must lie in (0, 1], got {p!r}")
        if not (math.isfinite(beta0) and beta0 > 0.0):
            raise ValueError(f"beta0 must be positive and finite, got {beta0!r}")
        vars(self).update(p=p, beta0=beta0)


def _log_norm(p: float) -> float:
    """``B = s ln s - s - ln Gamma(s)`` at ``s = 1/p``, the constant of the Gamma
    log-density in ``r = beta/beta0``:
    ``s (ln r - (r - 1)) - ln r - ln beta0 + B``.

    No pair of its terms of size ~s cancels.  Near ``r = 1``, where the factor
    ``s`` amplifies it, the error of ``ln r`` is relative to ``r - 1``.  Raises
    a ``NumericalError`` where ``ln Gamma(1/p)`` overflows (p below ~3.9e-306).
    """
    shape = 1.0 / p
    try:
        lgam = math.lgamma(shape)
    except OverflowError:
        lgam = math.inf
    if lgam == math.inf:
        raise NumericalError(
            f"ln Gamma(1/p) overflows at p = {p!r}: the spread is too small to "
            "represent the Gamma density"
        )
    if shape < 20.0:
        return shape * math.log(shape) - shape - lgam
    # Stirling's series: B = ln(shape/2 pi)/2 - 1/(12 shape) + 1/(360 shape^3) - ...
    u = 1.0 / shape
    v = u * u
    return 0.5 * math.log(shape / (2.0 * math.pi)) - u * (
        1.0 / 12.0 - v * (1.0 / 360.0 - v * (1.0 / 1260.0 - v / 1680.0))
    )


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

    Raises
    ------
    NumericalError
        If ``beta > 0`` and ``ln Gamma(1/p)`` overflows (``p`` below ~3.9e-306),
        or the density itself is above the largest float (``beta0`` near the
        smallest floats).
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be non-negative, got {beta!r}")
    shape = 1.0 / params.p
    if beta == 0.0:
        # Finite only in the exponential limit p = 1 (shape 1).
        return 1.0 / (params.p * params.beta0) if shape == 1.0 else 0.0
    b = _log_norm(params.p)
    r = beta / params.beta0
    if sys.float_info.min <= r < math.inf:
        ln_r = math.log(r)
    else:  # r is subnormal or overflows: beta and beta0 are far apart
        ln_r = math.log(beta) - math.log(params.beta0)
    log_density = shape * (ln_r - (r - 1.0)) - ln_r - math.log(params.beta0) + b
    try:
        return math.exp(log_density)
    except OverflowError:
        raise NumericalError(
            f"the Gamma density overflows at beta = {beta!r} (beta0 = {params.beta0!r})"
        ) from None


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

# Initial panels of [0, b], in units of b: [0, 4**-16], [4**-16, 4**-15],
# ..., [1/4, 1], narrowing toward 0, where t**(1/p - 1) is not smooth.
_GRADED = np.concatenate(([0.0], 0.25 ** np.arange(16, -1, -1)))
# Work limits of ``quad``; past them it returns its current error estimate.
_MAX_ROUNDS = 60
_MAX_PANELS = 2000


def _qk21(func, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean of ``func``, QUADPACK's error estimate of that mean, and the
    rounding floor of that estimate on each panel ``[lo, lo + width]``; times
    ``width`` they are integral, error and floor."""
    f = func(lo[:, None] + width[:, None] * _UNIT)
    mean, diff = f.dot(_RULES).T
    asc = np.abs(f - mean[:, None]).dot(_MEAN)
    # asc = 0 only where f is constant on the panel, and then err is 0 for any
    # finite ratio: divide by 1 there.  A subnormal asc is divided by as it is;
    # adding the smallest normal float to it would read the estimate of a
    # subnormal integrand as ~0.
    err = asc * np.minimum(1.0, np.abs(diff) / (asc + (asc == 0.0))) ** 1.5
    floor = np.abs(f).dot(_FLOOR)
    return mean, np.maximum(err, floor), floor


def quad(func, b: float, epsrel: float) -> tuple[float, float]:
    """Adaptive 21-point Gauss-Kronrod integral of ``func`` over ``[0, b]``.

    ``func`` maps an array of abscissae to an array of values.  Returns the
    integral and an estimate of its absolute error.  The initial panels narrow
    geometrically toward 0.  Each round evaluates every open panel in one
    ``func`` call, stops once the summed error estimate is at most
    ``epsrel * |integral|``, and otherwise bisects the panels whose estimate
    is above both their length's share of that bound and its rounding floor
    (and the worst panel); the others are closed.  Past ``_MAX_ROUNDS``
    rounds or ``_MAX_PANELS`` open panels it returns the estimate it has, so
    callers compare the error with their tolerance.

    ``boltzmann_quadrature`` looks it up as a module global, so a wrapper
    patched in here sees every integrator call.
    """
    lo, hi = b * _GRADED[:-1], b * _GRADED[1:]
    closed_value = closed_err = 0.0
    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        mean, err, floor = _qk21(func, lo, width)
        total = closed_value + float(width.dot(mean))
        error = closed_err + float(width.dot(err))
        bound = epsrel * abs(total)
        if error <= bound or width.size > _MAX_PANELS:
            break
        # err is per unit length: err * width > bound * width / b.  A
        # panel at its rounding floor keeps that floor per unit length when
        # bisected, so it is split only as the worst panel.
        split = ((err > bound / b) & (err > floor)) | (err == err.max())
        keep = ~split
        closed_value += float(width[keep].dot(mean[keep]))
        closed_err += float(width[keep].dot(err[keep]))
        # Neighbours share one end point, so rounding opens no gap and no
        # overlap between them.
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
    return total, error


def boltzmann_quadrature(
    params: GammaBetaParams, energy: float, tol: float = 1e-8
) -> float:
    """Spread-averaged weight factor by adaptive quadrature.

    Integrates ``gamma_pdf(beta) * exp(-beta*E)`` over the substitution
    ``t = beta / (p*beta0)``, which turns the integrand into
    ``t**(1/p - 1) * exp(-c*t) / Gamma(1/p)`` with ``c = 1 + p*beta0*E``.
    Divided by the value ``c**(-1/p)``, that is the Gamma density of shape
    ``1/p`` and rate ``c``, so a Chernoff bound on its tail gives the upper
    limit in closed form: past ``T = y (1/p)/c`` with
    ``y = 1 + a + sqrt(a (a + 2))`` and ``a = p ln(100/min(tol, 1))``, the
    dropped tail is at most ``min(tol, 1)/100`` of the value.  It makes one
    ``quad`` call, over ``[0, T]``.

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
        If the value is below the smallest normal float (or 0), if the
        estimated relative error cannot be brought below ``tol``, or if
        ``ln Gamma(1/p)`` overflows (``p`` below ~3.9e-306).
    """
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be non-negative, got {energy!r}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    p, shape = params.p, 1.0 / params.p
    x = params.beta0 * energy
    c = 1.0 + p * params.beta0 * energy
    offset = _log_norm(p) + math.log(p)

    def integrand(t):
        # the Gamma log-density of gamma_pdf in r = beta/beta0 = p t, times
        # exp(-x r), in units of t.  Divided by p, not times shape: 1/p
        # rounded would move the value by up to eps/2 (shape ln c + x/c).
        r = p * t
        ln_r = np.log(r)
        return np.exp((ln_r - (r - 1.0)) / p - ln_r - x * r + offset)

    # The tail of Gamma(shape, rate c) past y times its mean shape/c is at most
    # exp(-shape (y - 1 - ln y)) (Chernoff), and y - 1 - ln y >= (y-1)**2/(2y)
    # for y >= 1; at the root y >= 1 of (y-1)**2 = 2 a y that is exp(-a shape).
    # a is a difference of logs, so that tol = 5e-324 does not underflow.
    a = p * (math.log(100.0) - math.log(min(tol, 1.0)))
    upper = (1.0 + a + math.sqrt(a * (a + 2.0))) * shape / c
    tail = 0.01 * min(tol, 1.0)
    epsrel = max(min(tol / 4.0, 1e-2), 1e-13)
    # x*r or (...)/p past the largest float only occurs where the integrand is
    # 0.  Where p*beta0*E overflows, c = inf leaves [0, 0] and the value is 0.
    with np.errstate(over="ignore"):
        value, abserr = quad(integrand, upper, epsrel) if c < math.inf else (0.0, 0.0)
    if not value >= sys.float_info.min:  # 0, or below the normal range
        raise NumericalError(
            "could not push the quadrature tail below the requested tolerance "
            f"(last upper limit {upper:.3e})"
        )
    # The integrand's own rounding, relative to the value.  Rounding x moves
    # the value by up to eps/2 x/c.  At the mass, r ~ 1/c, the exponent sums
    # terms of about shape ln c + x/c, and near r = 1 the rounding of r and t
    # moves it by about eps sqrt(shape); these node errors change sign from
    # node to node and partly cancel in the weighted sum.  Against 50-digit
    # values at 62,000 points (p from 1e-9 to 1, beta0 E from 0 to 1e300),
    # the largest error past abserr used 0.8 of this allowance.
    eps = sys.float_info.epsilon
    rounding = eps * (0.5 * (shape * math.log(c) + x / c) + 0.35 * math.sqrt(shape))
    if shape < 20.0:  # offset: _log_norm's terms of size shape ln shape cancel
        rounding += 1.5 * eps * shape * math.log(shape)
    # A node value below the normal range is a multiple of the smallest
    # float, so over [0, T] those values are off by at most T times it.
    rounding += upper * (math.ulp(0.0) / value)
    if not abserr / value + tail + rounding <= tol:  # a NaN bound fails too
        raise NumericalError(
            f"quadrature reached relative error {abserr / value + tail + rounding:.3e}, "
            f"above the requested tolerance {tol:.3e}"
        )
    return value


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
    weight = math.exp(-x)
    # Past x ~ 745 the weight underflows to 0, while the correction can reach
    # inf (a NaN product) or overflow in x**3.
    if weight == 0.0:
        return 0.0
    correction = 1.0
    if order >= 1:
        correction += 0.5 * params.p * x * x
    if order >= 2:
        correction += params.p * params.p * x**3 * (x / 8.0 - 1.0 / 3.0)
    return weight * correction
