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

``mul``, ``ln_one_plus``, ``exp_series`` and ``compose`` work on float64
arrays: every intermediate product is one truncated ``np.convolve``, and the
coefficients are converted and checked once, when the result is returned as a
:class:`TruncatedSeries`.  A coefficient that overflows on the way stays
non-finite through every later step (``inf * 0`` is NaN), so such a series is
still refused as "series coefficients must be finite".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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
# about cubically with the order; 256 runs in milliseconds.
MAX_ORDER = 256


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c0..cN`` of a power series truncated at order ``N``."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value: float, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        """The series ``value + 0*x + ... + 0*x^order``."""
        return cls((float(value),) + (0.0,) * operator.index(order))

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        """The series ``x`` carried to the given truncation order."""
        order = operator.index(order)
        if order < 1:
            raise ValueError("the variable series needs order >= 1")
        return cls((0.0, 1.0) + (0.0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> TruncatedSeries:
        """Drop coefficients above ``order`` (never extends a series)."""
        order = operator.index(order)
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


def _cauchy(a, b, n: int) -> np.ndarray:
    """Cauchy product of two coefficient sequences, truncated at order ``n``."""
    return np.convolve(a, b)[: n + 1]


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the smaller operand order."""
    n = min(a.order, b.order)
    return TruncatedSeries(_cauchy(a.coeffs, b.coeffs, n).tolist())


def ln_one_plus(u: TruncatedSeries) -> TruncatedSeries:
    """``ln(1 + u)`` for a series ``u`` with zero constant term."""
    if u.coeffs[0] != 0.0:
        raise ValueError("ln(1+u) requires a series with zero constant term")
    n = u.order
    base = np.array(u.coeffs)
    acc = np.zeros(n + 1)
    power = base
    # An overflowing power or sum leaves inf or NaN (inf - inf) in acc, which
    # the return refuses as non-finite; numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            sign = 1.0 if m % 2 else -1.0
            acc += power * (sign / m)
            if m < n:
                power = _cauchy(power, base, n)
    return TruncatedSeries(acc.tolist())


def exp_series(u: TruncatedSeries) -> TruncatedSeries:
    """``exp(u)`` for a series ``u`` with zero constant term."""
    if u.coeffs[0] != 0.0:
        raise ValueError("exp(u) requires a series with zero constant term")
    n = u.order
    base = np.array(u.coeffs)
    acc = np.zeros(n + 1)
    acc[0] = 1.0
    for m in range(n, 0, -1):
        acc = _cauchy(acc, base, n)
        acc *= 1.0 / m
        acc[0] += 1.0
    return TruncatedSeries(acc.tolist())


def sqrt_series(a: TruncatedSeries) -> TruncatedSeries:
    """Square root of a series with a positive constant term."""
    c0 = a.coeffs[0]
    if c0 <= 0.0:
        raise ValueError("sqrt needs a series with positive constant term")
    out = [math.sqrt(c0)]
    for m in range(1, a.order + 1):
        try:
            cross = math.fsum(out[j] * out[m - j] for j in range(1, m))
        except (OverflowError, ValueError):
            # fsum's own "intermediate overflow" and "-inf + inf" errors: the
            # same non-finite coefficient every other series function refuses.
            raise ValueError("series coefficients must be finite") from None
        out.append((a.coeffs[m] - cross) / (2.0 * out[0]))
    return TruncatedSeries(tuple(out))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """``outer(inner(x))`` for an inner series with zero constant term.

    Truncated to the smaller of the two operand orders; outer coefficients
    above that order cannot contribute below it (the inner series has no
    constant term) and are ignored.
    """
    if inner.coeffs[0] != 0.0:
        raise ValueError("composition requires an inner series with zero constant term")
    n = min(outer.order, inner.order)
    oc = outer.coeffs[: n + 1]
    # Horner steps over the zero top of a zero-padded outer polynomial only
    # convolve zeros, so Horner starts at its highest nonzero coefficient.
    top = n
    while top > 0 and oc[top] == 0.0:
        top -= 1
    inner_t = np.array(inner.coeffs[: n + 1])
    acc = np.zeros(n + 1)
    acc[0] = oc[top]
    for c in reversed(oc[:top]):
        acc = _cauchy(acc, inner_t, n)
        acc[0] += c
    return TruncatedSeries(acc.tolist())


def tan_series(order: int) -> TruncatedSeries:
    """Maclaurin series of ``tan`` to the given order.

    Coefficients follow from the defining equation ``tan' = 1 + tan**2``,
    which gives ``(m+1) c[m+1] = [x^m](1 + tan**2)``.
    """
    order = operator.index(order)
    if order < 1:
        raise ValueError("tan series needs order >= 1")
    c = [0.0] * (order + 1)
    c[1] = 1.0
    for m in range(1, order):
        c[m + 1] = math.fsum(c[j] * c[m - j] for j in range(m + 1)) / (m + 1)
    return TruncatedSeries(tuple(c))


def arctan_series(order: int) -> TruncatedSeries:
    """Maclaurin series of ``arctan`` to the given order."""
    order = operator.index(order)
    if order < 1:
        raise ValueError("arctan series needs order >= 1")
    c = [0.0] * (order + 1)
    for m in range(1, order + 1, 2):
        c[m] = (1.0 if (m // 2) % 2 == 0 else -1.0) / m
    return TruncatedSeries(tuple(c))
