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

import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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

_KINDS = ("plus", "minus", "tsallis", "custom")
_SIGN = {"plus": 1, "minus": -1}


@dataclass(frozen=True)
class MaxEntSolution:
    """Root of an implicit maximum-entropy equation at a given ``x = beta*E``."""

    x: float
    p: float
    residual: float


@dataclass(frozen=True)
class AnsatzCoeffs:
    """Coefficients ``a_0..a_J`` of the generalized exponential, ``a_0 = 1``."""

    a: tuple[float, ...]
    kind: str = "custom"
    q: float | None = None

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.a)
        if not a:
            raise ValueError("need at least the constant coefficient a0")
        if a[0] != 1.0:
            raise ValueError(f"a0 is pinned to 1, got {a[0]!r}")
        if not all(math.isfinite(v) for v in a):
            raise ValueError("coefficients must be finite")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.kind == "tsallis") != (self.q is not None):
            raise ValueError("q is set exactly when kind is 'tsallis'")
        if self.q is not None and not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q!r}")
        object.__setattr__(self, "a", a)

    @property
    def degree(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class GenExpFit:
    """A fitted coefficient set with its RMS residual and grid descriptor."""

    coeffs: AnsatzCoeffs
    residual: float
    grid: str


def _g(u: np.ndarray, x: np.ndarray, s: int, slope: bool = True):
    """Implicit equation of kind ``s`` in ``u = -ln p``, and its ``u``-derivative.

    ``g = 1 - u + x (1 + s (p - p u)) - exp(s p u)`` is the equation of the
    module docstring with ``ln p = -u``.  It is written with ``expm1`` so that
    the interior minus root keeps its digits where ``p`` is close to 1.
    Returns ``(g, dg)``, or ``g`` alone when ``slope`` is false.
    """
    p = np.exp(-u)
    pu = p * u
    one_sp = 1.0 + p if s > 0 else -np.expm1(-u)
    g = -np.expm1(s * pu) - u + x * (one_sp - s * pu)
    if not slope:
        return g
    dg = -s * np.exp(s * pu) * (p - pu) - 1.0 - s * x * (2.0 * p - pu)
    return g, dg


# Gathering the working arrays costs several array operations, which pays off
# only once a fair share of the points has stopped (on fit grids, often just
# x = 0 stops before the last round).
_COMPACT_SHARE = 0.25


def _roots(x, s: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``p`` of the plus (``s = 1``) or minus (``s = -1``) equation at
    every ``x`` of a 1-D array, with their residuals ``|g|``.

    Newton's method in ``u = -ln p``, safeguarded by bisection on the bracket
    ``[0, 2x + 2]`` (plus) or ``[x/2, 2x + 2]`` (minus), where ``g`` changes
    sign from positive to negative.  The minus lower end excludes the root
    ``p = 1`` that the minus equation has at every ``x``.  Iteration stops
    when the step or the bracket is below a few ulps of ``max(u, 1)``, not on
    the residual: near ``p = 1`` a whole range of ``p`` has a residual below
    any useful tolerance.  A point's root is stored in the round it stops.
    Once ``_COMPACT_SHARE`` of the working points have stopped, ``x``, ``u``
    and the bracket shrink to the open points, so later rounds evaluate
    only those; until then the stopped ones ride along.  Every root goes
    through the same arithmetic as when its point is iterated alone.
    """
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(
            f"x = beta*E must be finite and non-negative, got {float(x[bad][0])!r}"
        )
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    lo = 0.5 * x if s < 0 else np.zeros_like(x)
    with np.errstate(over="ignore"):
        # capped where 2x + 2 overflows (g is negative at the cap too); the
        # bisection midpoint below halves lo and hi before adding them
        hi = np.minimum(2.0 * x + 2.0, np.finfo(float).max)
    u_root = np.empty_like(x)
    at = np.arange(x.size)  # where the working points sit in x
    x_work = x
    u = x.copy()
    stopped = np.zeros(x.shape, dtype=bool)
    for _ in range(200):
        g, dg = _g(u, x_work, s)
        lo = np.where(g > 0.0, u, lo)
        hi = np.where(g < 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g == 0.0, 0.0, g / dg)
        ulps = 4.0 * np.finfo(float).eps * np.maximum(u, 1.0)
        small = np.abs(step) <= ulps
        done = small | (hi - lo <= ulps)
        newton = u - step
        take_newton = small | ((lo < newton) & (newton < hi))
        u = np.where(take_newton, newton, 0.5 * lo + 0.5 * hi)
        stopping = done & ~stopped
        if stopping.any():
            u_root[at[stopping]] = u[stopping]
            stopped |= stopping
            count = np.count_nonzero(stopped)
            if count == stopped.size:
                break
            if count >= _COMPACT_SHARE * stopped.size:
                keep = ~stopped
                at, x_work, u, lo, hi = at[keep], x_work[keep], u[keep], lo[keep], hi[keep]
                stopped = np.zeros(at.size, dtype=bool)
    else:
        raise NumericalError(
            f"root refinement did not converge at x = {float(x_work[~stopped][0]):g}"
        )
    residual = np.abs(_g(u_root, x, s, slope=False))
    worst = int(np.argmax(residual))
    if residual[worst] > tol:
        raise NumericalError(
            f"root at x = {x[worst]:g} has residual {residual[worst]:g} "
            f"above the tolerance {tol:g}"
        )
    return np.exp(-u_root), residual


def _solution(x: float, s: int, tol: float) -> MaxEntSolution:
    p, residual = _roots([x], s, tol)
    return MaxEntSolution(x, float(p[0]), float(residual[0]))


def solve_p_plus(x: float, tol: float = 1e-12) -> MaxEntSolution:
    """Probability solving the plus-kind implicit equation at ``x = beta*E``.

    Any finite ``x >= 0`` has a root; at ``x = 0`` it sits exactly at 1.
    ``p`` underflows to 0 beyond ``x`` of about 745.
    """
    return _solution(x, 1, tol)


def solve_p_minus(x: float, tol: float = 1e-12) -> MaxEntSolution:
    """Probability solving the minus-kind implicit equation at ``x = beta*E``.

    ``p = 1`` satisfies the minus equation identically for every ``x``; the
    solver excludes that boundary root and returns the interior branch that
    is continuous with the Gibbs limit, ``p e**x = 1 - x/3 + ...`` at small
    ``x``.  The range is that of :func:`solve_p_plus`.
    """
    return _solution(x, -1, tol)


def gen_exp_eval(coeffs: AnsatzCoeffs, x: float) -> float:
    """Generalized exponential ``exp(-x) * sum_j a_j x**j`` at ``x >= 0``."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be non-negative, got {x!r}")
    acc = 0.0
    for a in reversed(coeffs.a):
        acc = acc * x + a
    return math.exp(-x) * acc


# Reference coefficient sets for the two deformed statistics (plus kind bends
# the momentum relation toward a cap, minus kind toward a minimal length).
REFERENCE_PLUS = AnsatzCoeffs(
    (1.0, 0.000029, 0.747398, -1.205053, 1.284852), kind="plus"
)
REFERENCE_MINUS = AnsatzCoeffs(
    (1.0, -0.333335, -0.586262, 0.851734, 0.893692), kind="minus"
)

# Default fit window.  The coefficient sets are small-x representations: the
# reference values match the Taylor slopes of the implicit solutions at x = 0.
# Beyond x ~ 1 both solutions collapse onto exp(-x), and widening the window
# drags a_1 far from its slope (minus kind: -0.47 on [0, 3] vs the -1/3 slope)
# and can even flip the sign of a_2, so the default stays at [0, 1].
DEFAULT_FIT_GRID = "0:1:301"


def fit_gen_exp(
    kind: str,
    degree: int,
    grid: Iterable[float],
    tol: float = 1e-12,
) -> GenExpFit:
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
    tol : float
        Residual tolerance passed to the solver.

    Returns
    -------
    GenExpFit
        Fitted coefficients, RMS deviation from the solver probabilities on
        the grid, and a ``start:stop:count`` descriptor of the grid.
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
    if np.unique(xs).size < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct grid points")

    probs, _ = _roots(xs, _SIGN[kind], tol)
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
    descriptor = f"{xs[0]:g}:{xs[-1]:g}:{xs.size}"
    return GenExpFit(coeffs, rms, descriptor)


def maxent_distribution(
    energies: Sequence[float],
    beta: float,
    kind: str,
    tol: float = 1e-12,
) -> ProbVector:
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
        weights = _roots(xs, _SIGN[kind], tol)[0]
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


_KIND_RE = re.compile(r"^tsallis\((?P<q>[^)]+)\)$")


def _kind_token(coeffs: AnsatzCoeffs) -> str:
    if coeffs.kind == "tsallis":
        return f"tsallis({coeffs.q!r})"
    return coeffs.kind


def save_coeffs(fit: GenExpFit, path: str | Path) -> None:
    """Write a coefficient file: one ``key = value`` per line.

    Keys are ``kind``, ``degree``, ``a0..aJ``, ``residual``, and ``grid``;
    coefficient values keep full precision.
    """
    lines = [f"kind = {_kind_token(fit.coeffs)}", f"degree = {fit.coeffs.degree}"]
    lines += [f"a{j} = {v!r}" for j, v in enumerate(fit.coeffs.a)]
    lines.append(f"residual = {fit.residual!r}")
    lines.append(f"grid = {fit.grid}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_coeffs(path: str | Path) -> GenExpFit:
    """Read a coefficient file written by :func:`save_coeffs`.

    Unknown keys, malformed lines, and coefficient indices outside the declared
    degree are all rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: line {lineno} is not a 'key = value' pair: {raw!r}")
        entries[key.strip()] = value.strip()

    def _pop(key: str) -> str:
        if key not in entries:
            raise ValueError(f"{path}: missing required key {key!r}")
        return entries.pop(key)

    kind_token = _pop("kind")
    try:
        degree = int(_pop("degree"))
    except ValueError:
        raise ValueError(f"{path}: degree must be an integer") from None
    if degree < 0:
        raise ValueError(f"{path}: degree must be non-negative, got {degree}")
    a = []
    for j in range(degree + 1):
        token = _pop(f"a{j}")
        try:
            a.append(float(token))
        except ValueError:
            raise ValueError(f"{path}: coefficient a{j} is not a number: {token!r}") from None
    residual_token = entries.pop("residual", None)
    grid = entries.pop("grid", "")
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ValueError(f"{path}: unknown keys: {unknown}")
    try:
        residual = float(residual_token) if residual_token is not None else float("nan")
    except ValueError:
        raise ValueError(f"{path}: residual is not a number: {residual_token!r}") from None

    match = _KIND_RE.match(kind_token)
    if match:
        try:
            q = float(match.group("q"))
        except ValueError:
            raise ValueError(f"{path}: bad tsallis q value: {match.group('q')!r}") from None
        coeffs = AnsatzCoeffs(tuple(a), kind="tsallis", q=q)
    else:
        coeffs = AnsatzCoeffs(tuple(a), kind=kind_token)
    return GenExpFit(coeffs, residual, grid)
