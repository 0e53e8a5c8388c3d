"""Maximum-entropy probabilities for the deformed entropies and their
generalized-exponential fit.

For each of the two deformed entropies the stationarity condition yields an
implicit equation linking a state's probability ``p`` to ``x = beta * E``:

* plus kind:  ``1 + ln p + x (1 + p + p ln p) - p**(-p) = 0``
* minus kind: ``1 + ln p + x (1 - p - p ln p) - p**p    = 0``

Both reduce to the Gibbs weight ``p = exp(-x)`` as dominant behavior.  One
array solver finds the roots of both, in ``u = -ln p`` (see :func:`_roots`):
every finite ``x >= 0`` has a root, and ``p = exp(-u)`` stays representable up
to ``x`` of about 745.  The solutions can be compressed into a generalized
exponential ``exp(-x) * sum_j a_j x**j`` with ``a_0 = 1``; :func:`fit_gen_exp`
performs that least-squares compression over an ``x`` grid.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# The coefficient values and files are numpy-free and live in ansatz; they
# are re-exported here.
from .ansatz import (
    DEFAULT_FIT_GRID,
    REFERENCE_MINUS,
    REFERENCE_PLUS,
    AnsatzCoeffs,
    GenExpFit,
    load_coeffs,
    save_coeffs,
)
from .entropy import ProbVector, _fsum
from .errors import NumericalError

__all__ = [
    "MaxEntSolution",
    "AnsatzCoeffs",
    "GenExpFit",
    "solve_p_plus",
    "solve_p_minus",
    "gen_exp_eval",
    "fit_gen_exp",
    "maxent_distribution",
    "save_coeffs",
    "load_coeffs",
    "DEFAULT_FIT_GRID",
    "REFERENCE_PLUS",
    "REFERENCE_MINUS",
]

_SIGN = {"plus": 1, "minus": -1}

# Largest residual |g| a root may keep (see _roots); its rounding floor is at
# most 3.55e-15 on 3e6 seeded points per kind over [0, 745].
_RESIDUAL_BOUND = 1e-12


@dataclass(frozen=True)
class MaxEntSolution:
    """Root of an implicit maximum-entropy equation at a given ``x = beta*E``."""

    x: float
    p: float
    residual: float


def _g(u: np.ndarray, x: np.ndarray, s: int, slope: bool = True):
    """Implicit equation of kind ``s`` in ``u = -ln p``, and its ``u``-derivative.

    ``g = 1 - u + x (1 + s (p - p u)) - exp(s p u)`` is the equation of the
    module docstring with ``ln p = -u``.  It is written with ``expm1`` so that
    the interior minus root keeps its digits where ``p`` is close to 1.
    Returns ``(g, dg)``, or ``(g, p)`` when ``slope`` is false.

    Each kind has its own arithmetic with ``s`` folded in.  For ``s = +-1``
    the products ``s * a`` are exact sign flips, ``a - (-b)`` is ``a + b`` and
    ``-a - b`` is ``-(a + b)`` (up to the sign of a zero ``g``, which only
    ``|g|`` and comparisons with 0 see), so roots and residuals keep the bits
    of the single formula above.
    """
    nu = -u
    p = np.exp(nu)
    pu = p * u
    if s > 0:
        g = x * (1.0 + p - pu) - (np.expm1(pu) + u)
        if not slope:
            return g, p
        dg = -np.exp(pu) * (p - pu) - 1.0 - x * (2.0 * p - pu)
    else:
        npu = -pu
        g = x * (pu - np.expm1(nu)) - (np.expm1(npu) + u)
        if not slope:
            return g, p
        dg = np.exp(npu) * (p - pu) - 1.0 + x * (2.0 * p - pu)
    return g, dg


# The start tables: the ratio r_s(x) = u_s(x) / x of the root u = -ln p to the
# Gibbs guess u = x, and its slope, on the nodes k * _STEP of [0, _TABLE_END],
# stored as the coefficients of the cubic Hermite interpolant on each interval
# between them.  x - u = ln(p e**x) is smooth and bounded (below 0.68 for plus
# and 0.45 in magnitude for minus) and falls below an ulp of x near x = 40, so
# r is 1 there to within rounding, with slope 0.  A ratio keeps the start's
# relative error small as x -> 0, where the minus root approaches the
# boundary root u = 0.  _STEP is a power of two, so x / _STEP is exact.
_STEP = 1.0 / 256.0
_TABLE_END = 40.0
_NODES = round(_TABLE_END / _STEP)
# r_s(0) = 1 - a1 and r_s'(0) = a1**2 / 2 - a2 from the small-x series
# p e**x = 1 + a1 x + a2 x**2 + ...: plus (a1, a2) = (0, 3/4), minus
# (-1/3, -95/162).  At x = 0, _table's ratio u / x is 0/0, and for minus
# its u' = -g_x / g_u too (g_u(0, 0) = 0).
_ORIGIN = {1: (1.0, -0.75), -1: (4.0 / 3.0, 52.0 / 81.0)}


@functools.cache
def _table(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Hermite coefficients ``(c0, c1, c2, c3)`` of kind ``s``'s start
    table: ``r_s = c0 + c1 t + c2 t**2 + c3 t**3`` at ``x = (k + t) * _STEP``,
    ``0 <= t < 1``, and the constant 1 on row ``_NODES``, at the table end.

    The ratios come from the solver's own loop, started from the cold guess
    ``u = x``.  Their slopes ``r' = (u' - r) / x`` follow from the implicit
    function theorem, ``u' = -g_x / g_u`` with ``g_x = 1 + s (p - p u)``; the
    node at 0 takes the exact limits of ``_ORIGIN``.  A table with a
    non-finite entry is refused.  Each kind's table is built on its first
    call and cached; a build that raises leaves nothing cached.
    """
    nodes = np.arange(_NODES + 1) * _STEP
    u = _newton(nodes, s, nodes.copy())
    with np.errstate(divide="ignore", invalid="ignore"):
        _, dg = _g(u, nodes, s)
        p = np.exp(-u)
        du = -(1.0 + s * (p - p * u)) / dg
        ratio = u / nodes
        slope = (du - ratio) / nodes
    ratio[0], slope[0] = _ORIGIN[s]
    ratio[-1], slope[-1] = 1.0, 0.0
    bad = ~(np.isfinite(ratio) & np.isfinite(slope))
    if bad.any():
        raise NumericalError(
            f"the start table has a non-finite entry at x = {float(nodes[bad][0]):g}"
        )
    # h r' at each interval's left node (c1) and right node (c1_next), and the
    # rise dr of r across it; all three are 0 on the row at the table end
    c1 = slope * _STEP
    c1_next = np.append(c1[1:], 0.0)
    dr = np.diff(ratio, append=1.0)
    c2 = 3.0 * dr
    c2 -= 2.0 * c1
    c2 -= c1_next
    c3 = -2.0 * dr
    c3 += c1
    c3 += c1_next
    return ratio, c1, c2, c3


def _start(x: np.ndarray, s: int) -> np.ndarray:
    """Starting iterate ``u = x r_s(x)`` for :func:`_newton`, with ``r_s`` the
    cubic Hermite interpolant of the kind's start table and ``x`` clamped to
    the table end, where ``r_s`` is 1: past the table end the start is the
    Gibbs guess ``x``; see :func:`_table`.
    """
    c0, c1, c2, c3 = _table(s)
    t = np.minimum(x, _TABLE_END)
    t *= 1.0 / _STEP
    k = t.astype(np.intp)
    t -= k
    u = c3[k]
    u *= t
    u += c2[k]
    u *= t
    u += c1[k]
    u *= t
    u += c0[k]
    u *= x
    return u


def _newton(x: np.ndarray, s: int, u: np.ndarray) -> np.ndarray:
    """Refine the iterate ``u`` (overwritten) to the roots ``u = -ln p`` at every
    ``x``; see :func:`_roots`."""
    lo = 0.5 * x if s < 0 else np.zeros_like(x)
    with np.errstate(over="ignore"):
        # capped where 2x + 2 overflows (g is negative at the cap too); the
        # bisection midpoint below halves lo and hi before adding them
        hi = np.minimum(2.0 * x + 2.0, np.finfo(float).max)
    np.maximum(u, lo, out=u)
    np.minimum(u, hi, out=u)
    u_root = np.empty_like(x)
    open = np.ones(x.shape, dtype=bool)  # the points that have not stopped
    ulp4 = 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            g, dg = _g(u, x, s)
            np.copyto(lo, u, where=g > 0.0)
            np.copyto(hi, u, where=g < 0.0)
            step = g / dg
            step[g == 0.0] = 0.0
            ulps = np.maximum(u, 1.0)
            ulps *= ulp4
            small = np.abs(step) <= ulps
            done = small | (hi - lo <= ulps)
            u -= step  # the Newton iterate
            take_newton = small | ((lo < u) & (u < hi))
            if np.count_nonzero(take_newton) < u.size:
                u = np.where(take_newton, u, 0.5 * lo + 0.5 * hi)
            done &= open
            np.copyto(u_root, u, where=done)
            open &= ~done
            if not np.count_nonzero(open):
                return u_root
    raise NumericalError(
        f"root refinement did not converge at x = {float(x[open][0]):g}"
    )


def _roots(x, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``p`` of the plus (``s = 1``) or minus (``s = -1``) equation at
    every ``x`` of a 1-D array, with their residuals ``|g|``.

    Newton's method in ``u = -ln p``, safeguarded by bisection on the bracket
    ``[0, 2x + 2]`` (plus) or ``[x/2, 2x + 2]`` (minus), where ``g`` changes
    sign from positive to negative.  The minus lower end excludes the root
    ``p = 1`` that the minus equation has at every ``x``.  Each point starts
    from its kind's cached table of ``u / x`` (see :func:`_start`), within
    1e-10 of the root in relative terms at every ``x``, so Newton stops in
    two rounds; past the table end the start is the Gibbs guess ``u = x``.
    The start is clipped into the bracket.  Iteration stops when the step or
    the bracket is below a few ulps of ``max(u, 1)``, not on the residual:
    near ``p = 1`` a whole range of ``p`` has a residual below any useful
    tolerance.  A point's root is stored in the round it stops; stopped points
    ride along until every point has stopped, and their later iterates are
    never read.  A residual above ``_RESIDUAL_BOUND`` raises, naming its ``x``.
    """
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(
            f"x = beta*E must be finite and non-negative, got {float(x[bad][0])!r}"
        )
    u_root = _newton(x, s, _start(x, s))
    g, p = _g(u_root, x, s, slope=False)
    residual = np.abs(g)
    worst = int(np.argmax(residual))
    if residual[worst] > _RESIDUAL_BOUND:
        raise NumericalError(
            f"root at x = {x[worst]:g} has residual {residual[worst]:g} "
            f"above the bound {_RESIDUAL_BOUND:g}"
        )
    return p, residual


def _solution(x: float, s: int) -> MaxEntSolution:
    p, residual = _roots([x], s)
    return MaxEntSolution(x, float(p[0]), float(residual[0]))


def solve_p_plus(x: float) -> MaxEntSolution:
    """Probability solving the plus-kind implicit equation at ``x = beta*E``.

    Any finite ``x >= 0`` has a root; at ``x = 0`` it sits exactly at 1.
    ``p`` underflows to 0 beyond ``x`` of about 745.
    """
    return _solution(x, 1)


def solve_p_minus(x: float) -> MaxEntSolution:
    """Probability solving the minus-kind implicit equation at ``x = beta*E``.

    ``p = 1`` satisfies the minus equation identically for every ``x``; the
    solver excludes that boundary root and returns the interior branch that
    is continuous with the Gibbs limit, ``p e**x = 1 - x/3 + ...`` at small
    ``x``.  The range is that of :func:`solve_p_plus`.
    """
    return _solution(x, -1)


def gen_exp_eval(coeffs: AnsatzCoeffs, x: float) -> float:
    """Generalized exponential ``exp(-x) * sum_j a_j x**j`` at ``x >= 0``."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be non-negative, got {x!r}")
    acc = 0.0
    for a in reversed(coeffs.a):
        acc = acc * x + a
    return math.exp(-x) * acc


def fit_gen_exp(kind: str, degree: int, grid: Iterable[float]) -> GenExpFit:
    """Least-squares fit of the generalized exponential to solver values.

    Solves the implicit equation at every grid point and fits
    ``exp(-x) * (1 + a_1 x + ... + a_degree x**degree)`` to the probabilities
    with ``a_0`` pinned to 1, minimizing the probability-space square error.

    Parameters
    ----------
    kind : str
        ``"plus"`` or ``"minus"``.
    degree : int
        Polynomial degree, at least 2.
    grid : iterable of float
        Non-negative ``x`` values; needs at least ``degree + 1`` distinct points.

    Returns
    -------
    GenExpFit
        Fitted coefficients, RMS deviation from the solver probabilities on
        the grid, and a ``min:max:count`` descriptor of the grid, whose ends
        read back as the same doubles.
    """
    if kind not in ("plus", "minus"):
        raise ValueError(f"fit kind must be 'plus' or 'minus', got {kind!r}")
    try:
        degree = operator.index(degree)
    except TypeError:
        raise ValueError(f"degree must be an integer, got {degree!r}") from None
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    if isinstance(grid, np.ndarray):
        xs = np.array(grid, dtype=float)
    else:
        xs = np.asarray(list(grid), dtype=float)
    if xs.ndim != 1 or xs.size < degree + 1:
        raise ValueError(f"need at least {degree + 1} grid points, got {xs.size}")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise ValueError("grid points must be finite and non-negative")
    # counted without np.unique, which imports numpy.ma (most of a cold fit's
    # start-up); -0.0 and 0.0 are one point, as np.unique counts them
    ordered = np.sort(xs)
    if np.count_nonzero(np.diff(ordered)) + 1 < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct grid points")

    probs, _ = _roots(xs, _SIGN[kind])
    weight = np.exp(-xs)
    with np.errstate(over="ignore", invalid="ignore"):
        design = weight[:, None] * xs[:, None] ** np.arange(1, degree + 1)
    if not np.all(np.isfinite(design)):
        raise ValueError(
            f"the grid window is too wide for degree {degree}: x**{degree} * exp(-x) "
            f"is not finite at x = {xs.max():g}"
        )
    rhs = probs - weight
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < degree:
        raise NumericalError("the fit design matrix is rank deficient on this grid")
    coeffs = AnsatzCoeffs((1.0, *(float(v) for v in solution)), kind=kind)
    model = weight + design @ solution
    rms = float(np.sqrt(np.mean((model - probs) ** 2)))
    descriptor = f"{_grid_number(ordered[0])}:{_grid_number(ordered[-1])}:{xs.size}"
    return GenExpFit(coeffs, rms, descriptor)


def _grid_number(value: float) -> str:
    """``value`` in ``:g`` form where that reads back as ``value``, else its
    repr; ``-0.0`` prints as ``0``."""
    value = float(value) + 0.0
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def maxent_distribution(energies: Sequence[float], beta: float, kind: str) -> ProbVector:
    """Normalized distribution over energy levels for the chosen statistics.

    ``kind`` is ``"plus"``, ``"minus"``, or ``"boltzmann"``; the deformed kinds
    solve their implicit equation at each ``x = beta * E_l`` and renormalize.
    ``beta = 0`` yields the uniform distribution for every kind.

    Raises
    ------
    NumericalError
        If a level's probability underflows to 0, as ``exp(-x)`` does past
        ``x`` of about 745 (for ``"boltzmann"``, ``x = beta * (E_l - E_min)``).
    """
    if kind not in ("plus", "minus", "boltzmann"):
        raise ValueError(f"kind must be plus, minus, or boltzmann, got {kind!r}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be non-negative, got {beta!r}")
    levels = np.array(energies, dtype=float)
    if levels.ndim != 1:
        raise ValueError(f"energies must form a 1-D sequence, got shape {levels.shape}")
    if not levels.size:
        raise ValueError("need at least one energy level")
    if not np.isfinite(levels).all():
        raise ValueError("energies must be finite")
    if kind == "boltzmann":
        # Measured from the lowest level, so no weight overflows; normalising
        # removes the common factor exp(-beta * E_min).  At beta = 0 every
        # weight is 1 anyway, and E - E_min may overflow to inf (0 * inf = nan).
        # For beta > 0 such an inf gives a zero weight, reported below.
        e_min = float(levels.min()) if beta else 0.0
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (levels - e_min))
    else:
        with np.errstate(over="ignore"):
            xs = beta * levels
        weights = _roots(xs, _SIGN[kind])[0]
    total = _fsum(weights)
    # a total of 0 means every weight underflowed (never for boltzmann)
    probs = weights / total if total > 0.0 else weights
    zero = np.flatnonzero(probs == 0.0)
    if zero.size:
        level = int(zero[0])
        energy = float(levels[level])
        where = f"x = beta*E = {beta * energy:g}"
        if kind == "boltzmann":
            where += f", beta*(E - E_min) = {beta * (energy - e_min):g}"
        raise NumericalError(
            f"the probability of level {level} ({where}) underflows to 0 in double precision"
        )
    return ProbVector(probs)
