"""Generalized-exponential coefficients: the ansatz ``exp(-x) * sum_j a_j x**j``.

This module holds the coefficient values and their file format, and nothing
that builds an array: the reference sets of the two deformed statistics, the
default fit window, and the ``key = value`` coefficient files that ``fit``
writes and ``derive`` reads.  It imports no numpy, so the commands that only
turn coefficients into a deformation parameter (``derive``, ``gup``) start
without it.  :mod:`entrogup.maxent` re-exports every public name here.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from ._value import Value

__all__ = [
    "AnsatzCoeffs",
    "GenExpFit",
    "save_coeffs",
    "load_coeffs",
    "DEFAULT_FIT_GRID",
    "REFERENCE_PLUS",
    "REFERENCE_MINUS",
]

_KINDS = ("plus", "minus", "tsallis", "custom")


class AnsatzCoeffs(Value):
    """Coefficients ``a_0..a_J`` of the generalized exponential, ``a_0 = 1``."""

    _fields = ("a", "kind", "q")

    def __init__(
        self, a: tuple[float, ...], kind: str = "custom", q: float | None = None
    ) -> None:
        a = tuple(map(float, a))
        if not a:
            raise ValueError("need at least the constant coefficient a0")
        if a[0] != 1.0:
            raise ValueError(f"a0 is pinned to 1, got {a[0]!r}")
        if not all(map(math.isfinite, a)):
            raise ValueError("coefficients must be finite")
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if (kind == "tsallis") != (q is not None):
            raise ValueError("q is set exactly when kind is 'tsallis'")
        if q is not None and not math.isfinite(q):
            raise ValueError(f"q must be finite, got {q!r}")
        vars(self).update(a=a, kind=kind, q=q)

    @property
    def degree(self) -> int:
        return len(self.a) - 1


class GenExpFit(Value):
    """A fitted coefficient set with its RMS residual and grid descriptor."""

    _fields = ("coeffs", "residual", "grid")


# Reference coefficient sets for the two deformed statistics (plus kind bends
# the momentum relation toward a cap, minus kind toward a minimal length).
REFERENCE_PLUS = AnsatzCoeffs(
    (1.0, 0.000029, 0.747398, -1.205053, 1.284852), kind="plus"
)
REFERENCE_MINUS = AnsatzCoeffs(
    (1.0, -0.333335, -0.586262, 0.851734, 0.893692), kind="minus"
)

# Default fit window.  The coefficient sets are small-x representations: the
# reference values lie near the Taylor coefficients of the implicit solutions
# at x = 0 (a1, a2 = 0, 3/4 plus; -1/3, -95/162 minus).  A degree-4 fit on
# this window does not reproduce them: its a2 is 0.572 (plus) and -0.504
# (minus) against the references' 0.747 and -0.586, so its alpha0 reads
# -0.435 / +0.314 against -0.561 / +0.361.  That gap is ROADMAP item 23: a
# window inside the series' radius of convergence closes it.  Beyond x ~ 1
# both solutions collapse onto exp(-x), and widening the window drags a_1
# far from its slope (minus kind: -0.47 on [0, 3] vs the -1/3 slope) and can
# even flip the sign of a_2.
DEFAULT_FIT_GRID = "0:1:301"


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

    Unknown or repeated keys, malformed lines, and coefficient indices outside
    the declared degree are all rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: line {lineno} is not a 'key = value' pair: {raw!r}")
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}: line {lineno} repeats the key {key!r}")
        entries[key] = value.strip()

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
