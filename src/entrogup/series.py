"""Arithmetic on truncated real power series.

A :class:`TruncatedSeries` keeps the coefficients ``c[0] .. c[N]`` of a formal
power series about zero, where ``N`` is the truncation order.  Coefficients
above ``N`` are *unknown*, not zero, so every binary operation truncates its
result to the smaller order of its operands and nothing ever zero-pads a
series to a higher order.

Beyond ring arithmetic the module provides the series functions the
deformation pipeline needs: ``ln(1+u)``, ``exp(u)``, square roots of series
with a positive constant term, polynomial composition, and the tangent /
arctangent expansions behind the momentum relations.  Everything is plain
double precision.

Each result coefficient is one ``math.fsum``: of a Cauchy product, which
skips zero coefficients of its second operand, or of the classical
power-series recurrences (Knuth, TAOCP vol. 2, section 4.7), so every function
is quadratic in the order.  A coefficient that overflows, or a sum that
meets ``inf - inf``, is refused as "series coefficients must be finite".
"""

from __future__ import annotations

import math

from ._value import Value, _integer

__all__ = [
    "DEFAULT_ORDER",
    "TruncatedSeries",
    "mul",
    "ln_one_plus",
    "exp_series",
    "sqrt_series",
    "compose",
    "tan_series",
    "arctan_series",
]

# Captures the k^6 coefficients of the effective-Hamiltonian expansion with margin.
DEFAULT_ORDER = 8

# Largest truncation order the deformation pipeline accepts.  Its cost grows
# quadratically with the order; 256 runs in milliseconds.
MAX_ORDER = 256


def _check_order(order: int, lowest: int) -> int:
    """``order`` as an int, refused below ``lowest``."""
    order = _integer(order, "series order")
    if order < lowest:
        raise ValueError(f"series order must be >= {lowest}, got {order}")
    return order


class TruncatedSeries(Value):
    """Coefficients ``c0..cN`` of a power series truncated at order ``N``."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]) -> None:
        vars(self)["coeffs"] = coeffs
        self.__post_init__()

    # The validation is a method of its own so that span tracers
    # (perfbench/spans.py) can wrap it by name.
    def __post_init__(self) -> None:
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("series coefficients must be finite")
        vars(self)["coeffs"] = coeffs

    @classmethod
    def constant(cls, value: float, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        """The series ``value + 0*x + ... + 0*x^order``."""
        return cls((float(value),) + (0.0,) * _check_order(order, 0))

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        """The series ``x`` carried to the given truncation order."""
        return cls((0.0, 1.0) + (0.0,) * (_check_order(order, 1) - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> TruncatedSeries:
        """Drop coefficients above ``order`` (never extends a series)."""
        order = _check_order(order, 0)
        if order > self.order:
            raise ValueError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: TruncatedSeries | float) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        return TruncatedSeries((self.coeffs[0] + float(other),) + self.coeffs[1:])

    def __radd__(self, other: float) -> TruncatedSeries:
        return self.__add__(other)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: TruncatedSeries | float) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return self.__add__(-other)
        return self.__add__(-float(other))

    def __rsub__(self, other: float) -> TruncatedSeries:
        return (-self).__add__(float(other))

    def __mul__(self, other: TruncatedSeries | float) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        scale = float(other)
        return TruncatedSeries(tuple(c * scale for c in self.coeffs))

    def __rmul__(self, other: float) -> TruncatedSeries:
        return self.__mul__(other)


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, its overflow and ``inf - inf`` errors reported as non-finite."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        raise ValueError("series coefficients must be finite") from None


def _nonzero(coeffs) -> list[tuple[int, float]]:
    return [(j, c) for j, c in enumerate(coeffs) if c != 0.0]


def _cauchy(a, b, n: int) -> list[float]:
    """Cauchy product truncated at order ``n``, skipping zero coefficients of ``b``."""
    terms = _nonzero(b[: n + 1])
    return [_fsum([a[m - j] * c for j, c in terms if j <= m]) for m in range(n + 1)]


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the smaller operand order."""
    return TruncatedSeries(_cauchy(a.coeffs, b.coeffs, min(a.order, b.order)))


def _ln_one_plus(u: list[float] | tuple[float, ...]) -> list[float]:
    """Coefficients of ``ln(1 + u)`` for coefficients ``u`` with ``u[0] == 0``.

    From ``(1 + u) w' = u'``: ``w_m = u_m - sum_{k<m} (k/m) w_k u_{m-k}``.
    """
    terms = _nonzero(u)
    w = [0.0] * len(u)
    for m in range(1, len(u)):
        w[m] = u[m] - _fsum([(m - j) / m * w[m - j] * c for j, c in terms if j < m])
    return w


def ln_one_plus(u: TruncatedSeries) -> TruncatedSeries:
    """``ln(1 + u)`` for a series ``u`` with zero constant term."""
    if u.coeffs[0] != 0.0:
        raise ValueError("ln(1+u) requires a series with zero constant term")
    return TruncatedSeries(_ln_one_plus(u.coeffs))


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    """``exp(u)`` for a series ``u`` with zero constant term.

    From ``e' = u' e``: ``e_m = sum_{k<=m} k u_k e_{m-k} / m``.
    """
    if u.coeffs[0] != 0.0:
        raise ValueError("exp(u) requires a series with zero constant term")
    terms = _nonzero(u.coeffs)
    e = [1.0] + [0.0] * u.order
    for m in range(1, u.order + 1):
        e[m] = _fsum([j * c * e[m - j] for j, c in terms if j <= m]) / m
    return TruncatedSeries(e)


def _sqrt(a: list[float] | tuple[float, ...]) -> list[float]:
    """Coefficients of the square root of coefficients ``a`` with ``a[0] > 0``.

    From ``s**2 = a``: ``s_m = (a_m - sum_{0<j<m} s_j s_{m-j}) / (2 s_0)``.
    """
    out = [math.sqrt(a[0])]
    for m in range(1, len(a)):
        cross = _fsum([out[j] * out[m - j] for j in range(1, m)])
        out.append((a[m] - cross) / (2.0 * out[0]))
    return out


def sqrt_series(a: TruncatedSeries) -> TruncatedSeries:
    """Square root of a series with a positive constant term."""
    if a.coeffs[0] <= 0.0:
        raise ValueError("sqrt needs a series with positive constant term")
    return TruncatedSeries(_sqrt(a.coeffs))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """``outer(inner(x))`` for an inner series with zero constant term.

    Truncated to the smaller of the two operand orders; outer coefficients
    above that order cannot contribute below it (the inner series has no
    constant term) and are ignored.  A Horner term that overflows but feeds
    only orders above the truncation drops out, as in the exact composition.
    """
    if inner.coeffs[0] != 0.0:
        raise ValueError("composition requires an inner series with zero constant term")
    n = min(outer.order, inner.order)
    oc = outer.coeffs[: n + 1]
    acc = [oc[-1]] + [0.0] * n
    for c in reversed(oc[:-1]):
        acc = _cauchy(acc, inner.coeffs, n)
        acc[0] += c
    return TruncatedSeries(acc)


def tan_series(order: int) -> TruncatedSeries:
    """Maclaurin series of ``tan`` to the given order.

    Coefficients follow from the defining equation ``tan' = 1 + tan**2``,
    which gives ``(m+1) c[m+1] = [x^m](1 + tan**2)``.
    """
    order = _check_order(order, 1)
    c = [0.0] * (order + 1)
    c[1] = 1.0
    for m in range(1, order):
        c[m + 1] = _fsum([c[j] * c[m - j] for j in range(m + 1)]) / (m + 1)
    return TruncatedSeries(tuple(c))


def arctan_series(order: int) -> TruncatedSeries:
    """Maclaurin series of ``arctan`` to the given order."""
    order = _check_order(order, 1)
    c = [0.0] * (order + 1)
    for m in range(1, order + 1, 2):
        c[m] = (1.0 if (m // 2) % 2 == 0 else -1.0) / m
    return TruncatedSeries(tuple(c))
