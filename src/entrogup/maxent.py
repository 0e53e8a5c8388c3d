"""Maximum-entropy probabilities for the deformed entropies and their
generalized-exponential fit.

For each of the two deformed entropies the stationarity condition yields an
implicit equation linking a state's probability ``p`` to ``x = beta * E``:

* plus kind:  ``1 + ln p + x (1 + p + p ln p) - p**(-p) = 0``
* minus kind: ``1 + ln p + x (1 - p - p ln p) - p**p    = 0``

Both reduce to the Gibbs weight ``p = exp(-x)`` as dominant behavior.  One
safeguarded Newton iteration finds the roots of both, in ``u = -ln p`` (see
:func:`_root`): every finite ``x >= 0`` has a root, and ``p = exp(-u)``
stays representable up to ``x`` of about 745.  The solutions can be
compressed into a generalized exponential ``exp(-x) * sum_j a_j x**j`` with
``a_0 = 1``; :func:`fit_gen_exp` performs that least-squares compression over
an ``x`` grid.

An input takes one of ``entropy``'s two routes, chosen by
``entropy._small_floats``: up to ``entropy._FLOAT_ROUTE_MAX`` points, Python
floats, one :func:`_root` per point and, for the fit, a Householder QR
(:func:`_lstsq`), so that cold ``maxent`` and ``fit`` calls on such inputs run
without numpy; above it, float64 arrays, :func:`_roots` and
``np.linalg.lstsq``.  numpy is imported only on the array route.  The float
route runs the iteration from the Gibbs guess; the array route takes one
Newton step from a start table and certifies it, and sends a point to the
float route's iteration only where that fails.  Both stop within a few ulps
of the root, but a root may differ in its last bits between them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from ._value import Value

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
from .entropy import ProbVector, _float_array, _fsum, _small_floats
from .errors import NumericalError

if TYPE_CHECKING:
    import numpy as np

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

# The stop rule's width, in units of max(u, 1), on both routes; see _root.
_ULP4 = 4.0 * sys.float_info.epsilon

# Most rounds of a Newton iteration, in _root and in _table's build.
_MAX_ROUNDS = 200

# The largest first Newton step, in units of max(u, 1), after which _roots
# may accept the new iterate.  The start table is at most 7.8e-11 off the root
# in relative terms (plus kind, x = 1/512), about 1e-4 of this guard, so a
# sound start passes it with room to spare (the largest step measured is 3e-6
# of it).  A step below it moves u so little that g' at the start still gives
# g' at the new iterate to a relative 2**-20 |g''/g'| max(u, 1), which is
# small, so g there over the start's slope is the next Newton step, the
# look-ahead that _roots tests; a point whose start was far off falls back
# to _root.
_GUARD = 2.0**-20

# Most sweeps of _singular_values; a handful settle the fit's small R.
_JACOBI_SWEEPS = 30


class MaxEntSolution(Value):
    """Root of an implicit maximum-entropy equation at a given ``x = beta*E``."""

    _fields = ("x", "p", "residual")

    def __init__(self, x: float, p: float, residual: float) -> None:
        vars(self).update(x=x, p=p, residual=residual)


def _g(u, x, s: int, m, slope: bool = True):
    """Implicit equation of kind ``s`` in ``u = -ln p``, and its ``u``-derivative.

    ``g = 1 - u + x (1 + s (p - p u)) - exp(s p u)`` is the equation of the
    module docstring with ``ln p = -u``.  It is written with ``expm1`` so that
    the interior minus root keeps its digits where ``p`` is close to 1.
    ``m`` is ``math`` for one float ``u`` and ``x``, or ``numpy`` for arrays;
    the arithmetic is the same on both.  Returns ``(g, dg)``, or ``(g, p)``
    when ``slope`` is false.

    Each kind has its own arithmetic with ``s`` folded in.  For ``s = +-1``
    the products ``s * a`` are exact sign flips, ``a - (-b)`` is ``a + b`` and
    ``-a - b`` is ``-(a + b)`` (up to the sign of a zero ``g``, which only
    ``|g|`` and comparisons with 0 see), so roots and residuals keep the bits
    of the single formula above.
    """
    nu = -u
    p = m.exp(nu)
    pu = p * u
    if s > 0:
        g = x * (1.0 + p - pu) - (m.expm1(pu) + u)
        if not slope:
            return g, p
        dg = -m.exp(pu) * (p - pu) - 1.0 - x * (2.0 * p - pu)
    else:
        npu = -pu
        g = x * (pu - m.expm1(nu)) - (m.expm1(npu) + u)
        if not slope:
            return g, p
        dg = m.exp(npu) * (p - pu) - 1.0 + x * (2.0 * p - pu)
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

    The node roots come from plain Newton rounds started from the Gibbs
    guess ``u = x``: a node closes once its step is at most
    ``_ULP4 * max(u, 1)``, the stop rule of :func:`_root`, and keeps the
    iterate of that round.  Six rounds close every node of both kinds, with
    the roots that :func:`_root`'s bracket and bisection would give, since
    neither ever acts there; a node still open after ``_MAX_ROUNDS`` rounds
    raises, naming the first such ``x``.  The slopes ``r' = (u' - r) / x``
    follow from the implicit function theorem, ``u' = -g_x / g_u`` with
    ``g_x = 1 + s (p - p u)``; the node at 0 takes the exact limits of
    ``_ORIGIN``.  The interpolant is at most 7.8e-11 off the root in
    relative terms, which is what lets one Newton step from it certify the
    root (see :func:`_roots`).  A table with a non-finite entry is refused.
    Each kind's table is built on its first call and cached; a build that
    raises leaves nothing cached.
    """
    import numpy as np

    nodes = np.arange(_NODES + 1) * _STEP
    u, open = nodes, np.ones(nodes.shape, dtype=bool)  # open: not yet closed
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ROUNDS):
            g, dg = _g(u, nodes, s, np)
            step = np.where(g == 0.0, 0.0, g / dg)
            closed = np.abs(step) <= _ULP4 * np.maximum(u, 1.0)
            u = np.where(open, u - step, u)
            open &= ~closed
            if not np.count_nonzero(open):
                break
        else:
            raise NumericalError(
                f"root refinement did not converge at x = {float(nodes[open][0]):g}"
            )
        _, dg = _g(u, nodes, s, np)
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
    """Starting iterate ``u = x r_s(x)`` of :func:`_roots`' Newton step, with
    ``r_s`` the cubic Hermite interpolant of the kind's start table and ``x``
    clamped to the table end, where ``r_s`` is 1: past the table end the
    start is the Gibbs guess ``x``; see :func:`_table`.
    """
    import numpy as np

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


def _roots(x, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``p`` of the plus (``s = 1``) or minus (``s = -1``) equation at
    every ``x`` of a 1-D array, with their residuals ``|g|``: the array route.

    One Newton step in ``u = -ln p`` from the kind's cached start table
    (see :func:`_start`), within 1e-10 of the root in relative terms, then
    one pass of ``g`` at the new iterate ``u1``, which gives ``p``, the
    residual and the test that certifies ``u1``.  A point's root is ``u1``
    where its step was at most ``_GUARD * max(u1, 1)`` and the next Newton
    step, ``g(u1)`` over the start's slope, would be below the stop width
    ``_ULP4 * max(u1, 1)`` of :func:`_root`.  Every other point, a
    non-finite step or ``g`` included, takes the float route's root and
    residual from :func:`_root`, so each root depends only on its own ``x``.
    A residual above ``_RESIDUAL_BOUND`` raises, naming the worst ``x`` of
    the input.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    # NaN makes both ends NaN; the mask only names the first bad x
    if not (x.min() >= 0.0 and x.max() < math.inf):
        bad = ~(np.isfinite(x) & (x >= 0.0))
        raise _bad_x(float(x[bad][0]))
    u0 = _start(x, s)
    g, dg = _g(u0, x, s, np)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = g / dg
    step[g == 0.0] = 0.0
    u = u0 - step
    g, p = _g(u, x, s, np, slope=False)
    residual = np.abs(g)
    scale = np.maximum(u, 1.0)
    certified = (np.abs(step) <= _GUARD * scale) & (residual <= _ULP4 * scale * np.abs(dg))
    if np.count_nonzero(certified) < x.size:
        redo = np.flatnonzero(~certified)
        # the float route's roots, solved here and not by _float_roots, whose
        # residual check would name the worst x of these points, not the input's
        g_redo, p[redo] = zip(*[_g(_root(v, s), v, s, math, slope=False) for v in x[redo].tolist()])
        residual[redo] = np.abs(g_redo)
    worst = int(np.argmax(residual))
    _check_residual(float(x[worst]), float(residual[worst]))
    return p, residual


def _bad_x(x: float) -> ValueError:
    return ValueError(f"x = beta*E must be finite and non-negative, got {x!r}")


def _check_residual(x: float, residual: float) -> None:
    """Refuse the root at ``x``, the worst of its input, if its residual
    ``|g|`` exceeds ``_RESIDUAL_BOUND``."""
    if residual > _RESIDUAL_BOUND:
        raise NumericalError(
            f"root at x = {x:g} has residual {residual:g} "
            f"above the bound {_RESIDUAL_BOUND:g}"
        )


def _root(x: float, s: int) -> float:
    """The root ``u = -ln p`` at one float ``x >= 0``.

    Newton's method safeguarded by bisection (the "rtsafe" scheme of
    *Numerical Recipes*, section 9.4) on the bracket ``[0, 2x + 2]`` (plus)
    or ``[x/2, 2x + 2]`` (minus), where ``g`` changes sign from positive to
    negative; the minus lower end excludes the root ``p = 1`` that the
    minus equation has at every ``x``.  ``2x + 2`` is capped at the largest
    float, where ``g`` is negative too.  A Newton iterate that leaves the
    bracket is replaced by its midpoint, ``lo/2 + hi/2``, a sum that cannot
    overflow.  The iteration stops when its step or its bracket is at most
    ``_ULP4 * max(u, 1)``, not on the residual: near ``p = 1`` a whole range
    of ``p`` has a residual below any useful tolerance.  Started from the
    Gibbs guess ``u = x``, which lies inside the bracket, it stops within
    six rounds for every double ``x``; an ``x`` still open after
    ``_MAX_ROUNDS`` rounds raises.
    """
    lo = 0.5 * x if s < 0 else 0.0
    hi = min(2.0 * x + 2.0, sys.float_info.max)
    u = x
    for _ in range(_MAX_ROUNDS):
        g, dg = _g(u, x, s, math)
        if g > 0.0:
            lo = u
        elif g < 0.0:
            hi = u
        # g / dg as numpy divides it: 0 where g is 0, and a step that leaves
        # the bracket where only dg is 0
        step = 0.0 if g == 0.0 else g / dg if dg else math.inf
        ulps = _ULP4 * max(u, 1.0)
        small = abs(step) <= ulps
        done = small or hi - lo <= ulps
        u -= step
        if not (small or lo < u < hi):
            u = 0.5 * lo + 0.5 * hi
        if done:
            return u
    raise NumericalError(f"root refinement did not converge at x = {x:g}")


def _float_roots(xs: list[float], s: int) -> tuple[list[float], list[float]]:
    """:func:`_roots` on the float route: the roots ``p`` at every ``x`` of a
    list of Python floats and their residuals, with the same checks and
    messages."""
    for x in xs:
        if not (math.isfinite(x) and x >= 0.0):
            raise _bad_x(x)
    g, p = zip(*[_g(_root(x, s), x, s, math, slope=False) for x in xs])
    residual = list(map(abs, g))
    worst = max(range(len(xs)), key=residual.__getitem__)
    _check_residual(xs[worst], residual[worst])
    return list(p), residual


def _root_lists(xs, s: int) -> tuple[list[float], list[float]]:
    """The roots and residuals at every ``x`` of a 1-D sequence, as lists of
    Python floats, on the route that ``entropy._small_floats`` picks."""
    values = _small_floats(xs)
    if values is not None:
        return _float_roots(values, s)
    p, residual = _roots(xs, s)
    return p.tolist(), residual.tolist()


def _solution(x: float, s: int) -> MaxEntSolution:
    # float() would parse a numeric string
    if isinstance(x, (str, bytes, bytearray)):
        raise ValueError(f"x = beta*E must be a number, got {x!r}")
    # a Python float takes the float route whatever x was (a 0-d array too)
    x = float(x)
    (p,), (residual,) = _root_lists([x], s)
    return MaxEntSolution(x, p, residual)


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
    if not hasattr(grid, "ndim"):
        grid = list(grid)  # an iterable, read once whichever route takes it
    xs = _small_floats(grid)
    if xs is None:
        solution, rms, lo, hi, count = _fit_arrays(_SIGN[kind], degree, grid)
    else:
        solution, rms, lo, hi, count = _fit_floats(_SIGN[kind], degree, xs)
    coeffs = AnsatzCoeffs((1.0, *solution), kind=kind)
    return GenExpFit(coeffs, rms, f"{_grid_number(lo)}:{_grid_number(hi)}:{count}")


def _too_wide(degree: int, x_max: float) -> ValueError:
    return ValueError(
        f"the grid window is too wide for degree {degree}: x**{degree} * exp(-x) "
        f"is not finite at x = {x_max:g}"
    )


def _fit_floats(s: int, degree: int, xs: list[float]):
    """:func:`fit_gen_exp` on the float route: the coefficients ``a_1..a_degree``
    as a list, the RMS deviation, and the grid's minimum, maximum and count."""
    count = len(xs)
    if count < degree + 1:
        raise ValueError(f"need at least {degree + 1} grid points, got {count}")
    if not all(math.isfinite(x) and x >= 0.0 for x in xs):
        raise ValueError("grid points must be finite and non-negative")
    # -0.0 and 0.0 are one point, as on the array route
    if len(set(xs)) < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct grid points")

    probs, _ = _float_roots(xs, s)
    weight = [math.exp(-x) for x in xs]
    try:
        design = [[w * x**j for w, x in zip(weight, xs)] for j in range(1, degree + 1)]
    except OverflowError:
        raise _too_wide(degree, max(xs)) from None
    solution = _lstsq(design, [p - w for p, w in zip(probs, weight)])
    square = math.fsum(
        (w + math.fsum(map(operator.mul, row, solution)) - p) ** 2
        for w, p, row in zip(weight, probs, zip(*design))
    )
    return solution, math.sqrt(square / count), min(xs), max(xs), count


def _lstsq(columns: list[list[float]], rhs: list[float]) -> list[float]:
    """The coefficients ``c`` that minimize ``|sum_j c_j columns[j] - rhs|``.

    Householder QR with ``math.fsum`` inner products, then back substitution.
    Each column is first scaled by a power of two to a largest magnitude in
    [1/2, 1), which changes no bit of the factorization but keeps its sums of
    squares from underflowing.  The rank test is ``np.linalg.lstsq``'s with
    its default ``rcond``: the design is rank deficient where its smallest
    singular value, that of ``R``, is at most ``eps * max(rows, columns)``
    times its largest.
    """
    rows, width = len(rhs), len(columns)
    scales = [math.frexp(max(map(abs, column)))[1] for column in columns]
    a = [[math.ldexp(v, -e) for v in column] for column, e in zip(columns, scales)]
    b = list(rhs)
    for k in range(width):
        v = a[k][k:]
        norm = _norm(v)
        if norm == 0.0:
            continue  # a zero column below row k: R's diagonal entry is 0
        v[0] += math.copysign(norm, v[0])
        half = norm * abs(v[0])  # v.v / 2
        for column in (*a[k + 1:], b):
            f = math.fsum(map(operator.mul, v, column[k:])) / half
            for i, t in enumerate(v, k):
                column[i] -= f * t
        a[k][k:] = [-math.copysign(norm, v[0])] + [0.0] * (rows - k - 1)
    # R unscaled, up to one common power of two
    top = max(scales)
    r = [[math.ldexp(t, e - top) for t in column[:width]] for column, e in zip(a, scales)]
    limit = sys.float_info.epsilon * max(rows, width)
    # sigma_min <= min |R_kk| and sigma_max >= R's largest column norm: a
    # test that settles high-degree fits without the O(width**3) sweeps
    deficient = min(abs(column[k]) for k, column in enumerate(r)) <= limit * max(map(_norm, r))
    if not deficient:
        sigma = _singular_values(r)
        deficient = min(sigma) <= limit * max(sigma)
    if deficient:
        raise NumericalError("the fit design matrix is rank deficient on this grid")
    c = [0.0] * width
    for k in reversed(range(width)):
        c[k] = (b[k] - math.fsum(a[j][k] * c[j] for j in range(k + 1, width))) / a[k][k]
    return [math.ldexp(v, -e) for v, e in zip(c, scales)]


def _singular_values(columns: list[list[float]]) -> list[float]:
    """The singular values of a matrix given by its columns, by one-sided
    Jacobi rotations (Hestenes): pairs of columns are rotated until every
    pair is orthogonal to within an ulp, and the column norms are left."""
    a = [list(column) for column in columns]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in itertools.combinations(range(len(a)), 2):
            x, y = a[i], a[j]
            xx = math.fsum(t * t for t in x)
            yy = math.fsum(t * t for t in y)
            xy = math.fsum(map(operator.mul, x, y))
            if abs(xy) <= sys.float_info.epsilon * math.sqrt(xx) * math.sqrt(yy):
                continue
            rotated = True
            zeta = (yy - xx) / (2.0 * xy)
            tan = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cos = 1.0 / math.hypot(1.0, tan)
            sin = cos * tan
            a[i] = [cos * p - sin * q for p, q in zip(x, y)]
            a[j] = [sin * p + cos * q for p, q in zip(x, y)]
        if not rotated:
            break
    return list(map(_norm, a))


def _norm(v: list[float]) -> float:
    return math.sqrt(math.fsum(t * t for t in v))


def _fit_arrays(s: int, degree: int, grid):
    """:func:`fit_gen_exp` on the array route; returns as :func:`_fit_floats`."""
    import numpy as np

    xs = _float_array(grid)
    if xs.ndim != 1:
        raise ValueError(f"the grid must form a 1-D sequence, got shape {xs.shape}")
    if xs.size < degree + 1:
        raise ValueError(f"need at least {degree + 1} grid points, got {xs.size}")
    # NaN sorts last, and -0.0 passes
    ordered = np.sort(xs)
    if not (ordered[0] >= 0.0 and ordered[-1] < math.inf):
        raise ValueError("grid points must be finite and non-negative")
    # counted without np.unique, which imports numpy.ma (most of a cold fit's
    # start-up); -0.0 and 0.0 are one point, as np.unique counts them
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct grid points")
    # 0 <= exp(-x) <= 1 at finite x >= 0, so the design's last column,
    # w x**degree, is non-finite exactly where x**degree overflows at the
    # largest x; one scalar test, and no running product below overflows
    try:
        float(ordered[-1]) ** degree
    except OverflowError:
        raise _too_wide(degree, ordered[-1]) from None

    probs, _ = _roots(xs, s)
    weight = np.exp(-xs)
    # row j - 1 holds w x**j, the running product (w x**(j-1)) x: no libm pow
    # per entry; the transpose is the column-major design that LAPACK reads
    powers = np.empty((degree, xs.size))
    np.multiply(weight, xs, out=powers[0])
    for j in range(1, degree):
        np.multiply(powers[j - 1], xs, out=powers[j])
    design = powers.T
    rhs = probs - weight
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < degree:
        raise NumericalError("the fit design matrix is rank deficient on this grid")
    residual = weight + design @ solution - probs
    rms = math.sqrt(float(np.add.reduce(residual * residual)) / xs.size)
    return solution.tolist(), rms, ordered[0], ordered[-1], xs.size


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
    levels = _small_floats(energies)
    if levels is None:
        levels, probs, e_min, zero = _distribution_arrays(energies, beta, kind)
    else:
        probs, e_min, zero = _distribution_floats(levels, beta, kind)
    if zero is not None:
        energy = float(levels[zero])
        where = f"x = beta*E = {beta * energy:g}"
        if kind == "boltzmann":
            where += f", beta*(E - E_min) = {beta * (energy - e_min):g}"
        raise NumericalError(
            f"the probability of level {zero} ({where}) underflows to 0 in double precision"
        )
    return ProbVector(probs)


def _distribution_floats(levels: list[float], beta: float, kind: str):
    """The normalized weights of :func:`maxent_distribution` on the float
    route, the ``E_min`` they are measured from (boltzmann) and the first
    level whose weight is 0, or None."""
    if not levels:
        raise ValueError("need at least one energy level")
    if not all(map(math.isfinite, levels)):
        raise ValueError("energies must be finite")
    e_min = 0.0
    if kind == "boltzmann":
        # see _distribution_arrays; an E - E_min that overflows gives -beta * inf
        e_min = min(levels) if beta else 0.0
        weights = [math.exp(-beta * (e - e_min)) for e in levels]
    else:
        weights, _ = _float_roots([beta * e for e in levels], _SIGN[kind])
    total = math.fsum(weights)
    # a total of 0 means every weight underflowed (never for boltzmann)
    probs = [w / total for w in weights] if total > 0.0 else weights
    return probs, e_min, next((i for i, p in enumerate(probs) if p == 0.0), None)


def _distribution_arrays(energies, beta: float, kind: str):
    """:func:`_distribution_floats` on the array route, for any other input;
    returns the levels as an array first."""
    import numpy as np

    levels = _float_array(energies)
    if levels.ndim != 1:
        raise ValueError(f"energies must form a 1-D sequence, got shape {levels.shape}")
    if not levels.size:
        raise ValueError("need at least one energy level")
    if not np.isfinite(levels).all():
        raise ValueError("energies must be finite")
    e_min = 0.0
    if kind == "boltzmann":
        # Measured from the lowest level, so no weight overflows; normalising
        # removes the common factor exp(-beta * E_min).  At beta = 0 every
        # weight is 1 anyway, and E - E_min may overflow to inf (0 * inf = nan).
        # For beta > 0 such an inf gives a zero weight, reported by the caller.
        e_min = float(levels.min()) if beta else 0.0
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (levels - e_min))
    else:
        with np.errstate(over="ignore"):
            xs = beta * levels
        weights = _roots(xs, _SIGN[kind])[0]
    total = _fsum(weights)
    probs = weights / total if total > 0.0 else weights
    zero = np.flatnonzero(probs == 0.0)
    return levels, probs, e_min, int(zero[0]) if zero.size else None
