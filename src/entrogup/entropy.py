"""Discrete entropy measures built from probabilities alone (k_B = 1).

Every entropy here is the correctly rounded sum of non-negative per-state
terms (Tsallis's divided by ``|q - 1|``, Renyi's the logarithm of one), so no
sum cancels: each sum over states, here and in
``maxent.maxent_distribution``, is ``math.fsum`` of the terms.  A
distribution takes one of two routes, chosen by its number of states:

- up to ``_FLOAT_ROUTE_MAX`` states, :class:`ProbVector` validates Python
  floats and the entropies sum their terms with ``math`` functions and
  ``math.fsum``, so that the ``entropy`` command runs without numpy;
- above it, the entries are one float64 array, each entropy's terms are one
  numpy expression, and :func:`_fsum` sums them with numpy alone, from one
  exact split of the array and a certificate that the split's rounded sum
  is ``math.fsum``'s, without building one Python float per state.  numpy is
  imported only on this route.

Each entropy writes its per-state term once; :func:`_sum_terms` evaluates it
on either route, and :func:`_sum_plogp_terms` does so for the three written
in ``t = p ln p``, whose array-route terms are computed once per
distribution.  ``ProbVector`` plus the five entropies (Tsallis and Renyi at
q = 2) on near-uniform inputs, with numpy already loaded (best of 90
interleaved runs, 2-core shared Xeon host, Python 3.11, numpy 2.4), took
12 vs 73 us (float vs array route) at 4 states, 63 vs 66 us at 48, 69 vs
68 us at 56, 78 vs 68 us at 64, 89 vs 69 us at 72, 99 vs 69 us at 80,
157 vs 72 us at 128 and 294 vs 80 us at 256.  The routes cross at 48-56
states (at 56-64 while the array route built the ``probs`` tuple on
construction and each entropy its own ``p ln p``).  The float route still
runs up to 64 states, where it costs a process that has numpy ~10 us more,
because a cold ``entropy``, ``maxent`` or ``fit`` call on up to 64 points
then loads no numpy (~130 ms), and the ``cli-cold`` benchmark's inputs stay
on that side.  ``maxent`` takes the same route by the same test
(:func:`_small_floats`).  numpy's SIMD ``log``, ``expm1`` and ``pow`` differ
from libm's by at most an ulp on some arguments, so a sum may differ in its
last bits between the routes.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from ._value import Value, _integer

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

__all__ = [
    "ProbVector",
    "shannon",
    "s_plus",
    "s_minus",
    "log_plus",
    "log_minus",
    "tsallis",
    "renyi",
    "s_plus_equiprob_expansion",
    "s_minus_equiprob_expansion",
]

_SUM_TOL = 1e-12

# Most states a distribution holds as Python floats alone (the float route);
# larger ones are float64 arrays.  Timings in the module docstring.
_FLOAT_ROUTE_MAX = 64
# Entry types the float route converts with float(), as numpy would; so is
# any subclass of float, such as numpy's float64.
_FLOAT_ROUTE_TYPES = {float, int, bool}

# Largest state count ProbVector.uniform builds.  Above _FLOAT_ROUTE_MAX a
# state costs 8 bytes (the array), 16 once the entropies have cached its
# p ln p, and 48 once ``probs`` is read (a float and its tuple slot): ~50 MB
# at this count.  The ``entropy`` command reads no ``probs``; it holds 16 MB
# here, with a 40 MB peak.
_MAX_UNIFORM_STATES = 1 << 20

# Most values the kernel sums in numpy: its error bound needs n**2 exact and
# (n - 1) u < 1/2.  No caller builds a larger array.
_FSUM_MAX = 1 << 26


def _fsum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-D float64 array, bit for bit.

    One ExtractVector split (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    189 (2008)) at ``sigma = 2**(e + m)``, where ``max|v| < 2**e`` and
    ``2**m > 2n``, cuts each value exactly into ``q = (v + sigma) - sigma``,
    a multiple of ``u sigma`` (``u = 2**-53``), and ``r = v - q`` with
    ``|r| <= u sigma``.  The ``q`` sum below ``sigma`` in magnitude, so
    ``tau = sum(q)`` is exact in any order; ``s = sum(r)`` is off by less
    than ``B = 2 n**2 u**2 sigma``.  The exact sum lies in ``tau + s +- B``,
    and a correctly rounded sum is monotone, so where ``math.fsum`` rounds
    both ends to one nonzero float, that float is the answer.  Where ``B``
    leaves that open, the recursive-summation bound ``B' = gamma_(n-1)
    sum(|r|)``, ``gamma_k = k u / (1 - k u)``, which holds for any order of
    the additions (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 4.2), is tried the same way from a computed and rounded
    up ``sum(|r|)``; it costs one more numpy sum, and only then.  Otherwise
    (a near-tie, or an exact sum of 0, whose sign ``math.fsum`` decides) the
    list goes to ``math.fsum``, as do empty and all-zero arrays, non-finite
    values, values too large for a finite ``sigma`` and arrays of more than
    ``_FSUM_MAX`` values, whose result or exception is then ``math.fsum``'s.
    An array goes there with a chance of about ``2B'`` over the result's
    ulp: one of the 150,000 sums of 10,000 spectrum benchmark operations on
    each of seeds 1-3 did (five sums an operation), and none of 40,000
    seeded Gibbs and ``p ln p`` arrays of 500-4000 values.
    """
    import numpy as np

    n = values.size
    if 0 < n <= _FSUM_MAX:
        big = np.abs(values).max()  # NaN if any value is
        if 0.0 < big < math.inf:
            scale = math.frexp(big)[1] + n.bit_length() + 1
            if scale <= 1023:  # sigma is finite, and so is v + sigma
                sigma = math.ldexp(1.0, scale)
                high = values + sigma
                high -= sigma
                tau = high.sum()
                low = values - high
                s = low.sum()
                # B is exact, or rounds in the subnormal range to no less than
                # the error, a multiple of the least subnormal
                total = _settled(tau, s, math.ldexp(n * n, scale - 105))
                if total is None:
                    # 2 n u A for the computed A = sum(|r|) bounds B' (see
                    # the docstring) with room for A's own error and the
                    # rounding of n A; in the subnormal range it rounds as B
                    total = _settled(tau, s, math.ldexp(float(np.abs(low).sum()) * n, -52))
                if total is not None:
                    return total
    return math.fsum(values.tolist())


def _settled(tau: float, s: float, bound: float) -> float | None:
    """The correctly rounded value of a sum known to lie within ``bound`` of
    ``tau + s``, if both ends of that interval round to one nonzero float,
    else None."""
    total = math.fsum((tau, s, bound))
    if total == math.fsum((tau, s, -bound)) and total != 0.0:
        return total
    return None


def _small_floats(probs) -> list[float] | None:
    """The entries as Python floats if ``probs`` takes the float route, else None.

    The float route takes a tuple or list, or a 1-D array (through its
    ``tolist``), of at most ``_FLOAT_ROUTE_MAX`` floats (``numpy.float64``
    too), Python ints or bools.  Any other input goes to the array route,
    where numpy converts it or refuses it.
    """
    if getattr(probs, "ndim", None) == 1 and len(probs) <= _FLOAT_ROUTE_MAX:
        probs = probs.tolist()
    if not (isinstance(probs, (tuple, list)) and len(probs) <= _FLOAT_ROUTE_MAX):
        return None
    if not all(t in _FLOAT_ROUTE_TYPES or issubclass(t, float) for t in set(map(type, probs))):
        return None
    return list(map(float, probs))


def _float_array(values) -> np.ndarray:
    """``np.array(values, dtype=float)``: its bits, or its exception.

    A list or tuple is packed by ``struct`` into ``np.empty(n)`` in one C
    pass, ~9 ns a value against numpy's ~22 ns, which spends the difference
    discovering each entry's dtype.  The pack converts each entry as numpy
    does, with ``float()``.  It fails on any entry ``float()`` refuses, which
    numpy may still take (a numeric string, None) or nest (a list), and
    then numpy converts the input.  numpy 1.25 to about 2.2 let ``float()``
    of a 1-element array pass with a DeprecationWarning where ``np.array``
    nests the array; under such a numpy (see :func:`_float_takes_arrays`)
    numpy converts every input, since the pack could only tell such an
    entry by turning warnings into errors, a filter that is process-wide
    while it runs.
    """
    import numpy as np

    if type(values) in (list, tuple) and not _float_takes_arrays():
        import struct

        out = np.empty(len(values))
        try:
            struct.pack_into(f"{out.size}d", out, 0, *values)
        except Exception:  # a struct.error: numpy converts or refuses the input
            pass
        else:
            return out
    return np.array(values, dtype=float)


@functools.cache
def _float_takes_arrays() -> bool:
    """Whether ``float()`` of a 1-element numpy array gives its value, with
    or without a warning, rather than raising ``TypeError``; tested once,
    on the first list or tuple converted, with warnings ignored for that
    one call."""
    import warnings

    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            float(np.array([0.5]))
    except TypeError:
        return False
    return True


class ProbVector(Value):
    """A finite probability distribution with every entry in (0, 1].

    ``probs`` is a tuple of Python floats, so equality and hashing compare
    values.  The input may be a tuple, a list or a 1-D array.  Up to
    ``_FLOAT_ROUTE_MAX`` states the tuple is built on construction and there
    is no array (``_array`` is None).  Above it the distribution is one
    read-only 1-D float64 array, ``_array``, which the entropies below
    evaluate elementwise and which stays out of repr, equality and hashing;
    the tuple is built from it on the first read of ``probs`` (by ``==``,
    ``hash``, ``repr``, iteration, indexing or pickling, not by ``len``), so
    a distribution whose entries are never read one by one never holds a
    Python float per state.
    """

    _fields = ("probs",)

    def __init__(self, probs: tuple[float, ...]) -> None:
        self.__post_init__(probs)

    # The validation is a method of its own so that span tracers
    # (perfbench/spans.py) can wrap it by name.
    def __post_init__(self, probs) -> None:
        values = _small_floats(probs)
        if values is not None:
            if not values:
                raise ValueError("a distribution needs at least one state")
            outside = [p for p in values if not 0.0 < p <= 1.0][:1]
            if outside:
                raise ValueError(f"probabilities must lie in (0, 1], got {outside[0]!r}")
            total = math.fsum(values)
            if abs(total - 1.0) > _SUM_TOL:
                raise ValueError(f"probabilities sum to {total!r}, not 1")
            vars(self).update(probs=tuple(values), _array=None)
            return
        array = _float_array(probs)
        if array.ndim != 1:
            raise ValueError(f"probabilities must form a 1-D sequence, got shape {array.shape}")
        if not array.size:
            raise ValueError("a distribution needs at least one state")
        # NaN fails both comparisons (and makes min and max NaN), inf the second
        if not (array.min() > 0.0 and array.max() <= 1.0):
            outside = array[~((array > 0.0) & (array <= 1.0))][0]
            raise ValueError(f"probabilities must lie in (0, 1], got {float(outside)!r}")
        # numpy's sum of n positive values is off the exact sum by at most
        # about (n - 1) u times it, in any order of the additions (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., section
        # 4.2), and _fsum's by u times it; 2 n u leaves room for the rounding
        # of this test, so a sum it accepts passes the exact check below,
        # which decides every other one.  It accepts only up to ~4500 states.
        approx = float(array.sum())
        if not abs(approx - 1.0) + array.size * math.ulp(1.0) * approx <= _SUM_TOL:
            total = _fsum(array)
            if abs(total - 1.0) > _SUM_TOL:
                raise ValueError(f"probabilities sum to {total!r}, not 1")
        array.flags.writeable = False
        vars(self)["_array"] = array

    # Only the array route gets here: the float route stores the tuple itself.
    @functools.cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    @functools.cached_property
    def _plogp(self) -> np.ndarray:
        """The read-only array of the terms ``p ln p`` (array route only),
        shared by :func:`shannon`, :func:`s_plus` and :func:`s_minus`."""
        import numpy as np

        terms = self._array * np.log(self._array)
        terms.flags.writeable = False
        return terms

    # Rebuilt from ``probs``: numpy's unpickling would return a writeable array.
    def __reduce__(self):
        return type(self), (self.probs,)

    @classmethod
    def uniform(cls, omega: int) -> ProbVector:
        """Equal probabilities over ``omega`` states; ``omega`` is an integer
        in ``[1, 2**20]``."""
        count = _integer(omega, "the number of states")
        if count < 1:
            raise ValueError(f"need at least one state, got {count!r}")
        if count > _MAX_UNIFORM_STATES:
            raise ValueError(
                f"the number of states must lie in [1, {_MAX_UNIFORM_STATES}], got {count!r}"
            )
        if count > _FLOAT_ROUTE_MAX:
            import numpy as np

            return cls(np.full(count, 1.0 / count))
        return cls((1.0 / count,) * count)

    def __len__(self) -> int:
        return len(self.probs) if self._array is None else self._array.size

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, index: int) -> float:
        return self.probs[index]


def _sum_terms(dist: ProbVector, term: Callable) -> float:
    """The exact sum over the states of ``term(p, m)``.

    On the float route ``term`` takes each entry and the ``math`` module as
    ``m``; on the array route it takes the whole array and ``numpy``, once.
    """
    if dist._array is None:
        return math.fsum([term(p, math) for p in dist.probs])
    import numpy as np

    # _deficit's |q - 1| ln p may overflow to -inf, which its expm1 takes
    with np.errstate(over="ignore"):
        return _fsum(term(dist._array, np))


def _sum_plogp_terms(dist: ProbVector, term: Callable) -> float:
    """The exact sum over the states of ``term(t, m)`` at ``t = p ln p``,
    with ``m`` as in :func:`_sum_terms`; the array route computes the terms
    ``t`` once per distribution (``ProbVector._plogp``)."""
    if dist._array is None:
        return math.fsum([term(p * math.log(p), math) for p in dist.probs])
    import numpy as np

    return _fsum(term(dist._plogp, np))


# The S+- terms below are written in t = p ln p: -p ln p is -t to the bit, as
# IEEE multiplication rounds (-p) ln p and p ln p to the same magnitude.


def shannon(dist: ProbVector) -> float:
    """Boltzmann-Gibbs entropy -sum(p ln p)."""
    # + 0.0 folds the IEEE -0.0 of a delta distribution into +0.0
    return -_sum_plogp_terms(dist, lambda t, m: t) + 0.0


def s_plus(dist: ProbVector) -> float:
    """Non-extensive entropy sum(1 - p**p), each term ``-expm1(p ln p)``.

    ``1 - p**p`` would cancel near ``p = 1``; ``p ln p`` lies in [-1/e, 0].
    """
    return _sum_plogp_terms(dist, lambda t, m: -m.expm1(t))


def s_minus(dist: ProbVector) -> float:
    """Non-extensive entropy sum(p**(-p) - 1), each term ``expm1(-p ln p)``."""
    return _sum_plogp_terms(dist, lambda t, m: m.expm1(-t))


def log_plus(x: float) -> float:
    """Deformed logarithm -(1 - x**x)/x on (0, 1]; pairs with :func:`s_plus`."""
    if not (math.isfinite(x) and 0.0 < x <= 1.0):
        raise ValueError(f"argument must lie in (0, 1], got {x!r}")
    return -(1.0 - x**x) / x


def log_minus(x: float) -> float:
    """Deformed logarithm -(x**(-x) - 1)/x on (0, 1]; pairs with :func:`s_minus`."""
    if not (math.isfinite(x) and 0.0 < x <= 1.0):
        raise ValueError(f"argument must lie in (0, 1], got {x!r}")
    return -(x ** (-x) - 1.0) / x


def _check_q(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q > 0.0) or q == 1.0:
        raise ValueError(f"q must be positive and different from 1, got {q!r}")
    return q


def _deficit(dist: ProbVector, q: float) -> float:
    """``|q - 1| tsallis(dist, q)``, the sum over the states of
    ``p**min(q, 1) * -expm1(|q - 1| ln p)``: ``p - p**q`` above q = 1 and
    ``p**q - p`` below it.

    Every term lies in [0, 1], so none overflows and the sum cannot cancel,
    as ``1 - sum(p**q)`` does near q = 1 and on near-certain distributions;
    nor does it carry the up to 1e-12 by which the entries may miss a sum of
    1.  ``|q - 1| ln p`` may overflow to -inf, where expm1 is -1.
    """
    d = abs(q - 1.0)
    e = min(q, 1.0)
    return _sum_terms(dist, lambda p, m: p**e * -m.expm1(d * m.log(p)))


def tsallis(dist: ProbVector, q: float) -> float:
    """Tsallis entropy (1 - sum(p**q)) / (q - 1), summed as
    ``sum(p (1 - p**(q - 1))) / (q - 1)`` (see :func:`_deficit`)."""
    q = _check_q(q)
    # + 0.0 folds the -0.0 of a delta distribution into +0.0
    return _deficit(dist, q) / abs(q - 1.0) + 0.0


def renyi(dist: ProbVector, q: float) -> float:
    """Renyi entropy ln(sum(p**q)) / (1 - q).

    ``sum(p**q)`` is ``1 + _deficit`` below q = 1 and ``1 - _deficit`` above;
    while it is at least 1/2, the entropy is ``log1p(+-_deficit) / (1 - q)``,
    the sign that of ``1 - q``.  Below 1/2, where ``p**q`` may underflow at
    large q, it is ``(q ln p_max + ln sum((p/p_max)**q)) / (1 - q)``: the
    largest term of the scaled sum is 1, so it cannot underflow, and the
    first term is divided before it is added, so ``q ln p_max`` cannot
    overflow either.
    """
    q = _check_q(q)
    deficit = _deficit(dist, q)
    if q < 1.0 or deficit <= 0.5:
        return math.log1p(math.copysign(deficit, 1.0 - q)) / (1.0 - q) + 0.0
    p_max = max(dist.probs) if dist._array is None else float(dist._array.max())
    scaled = _sum_terms(dist, lambda p, m: (p / p_max) ** q)
    return q / (1.0 - q) * math.log(p_max) + math.log(scaled) / (1.0 - q) + 0.0


def _equiprob_expansion(omega: int, nterms: int, second_sign: float) -> float:
    count = _integer(omega, "the number of states")
    if count < 2:
        raise ValueError(f"the equiprobable expansion needs omega >= 2, got {omega!r}")
    nterms = _integer(nterms, "nterms")
    if nterms not in (1, 2, 3):
        raise ValueError(f"nterms must be 1, 2, or 3, got {nterms!r}")
    s = math.log(count)
    terms = (
        s,
        second_sign * 0.5 * s * s * math.exp(-s),
        s**3 * math.exp(-2.0 * s) / 6.0,
    )
    return math.fsum(terms[:nterms])


def s_plus_equiprob_expansion(omega: int, nterms: int) -> float:
    """Partial sum S_B - S_B^2 e^(-S_B)/2 + S_B^3 e^(-2 S_B)/6 with S_B = ln(omega)."""
    return _equiprob_expansion(omega, nterms, -1.0)


def s_minus_equiprob_expansion(omega: int, nterms: int) -> float:
    """Partial sum S_B + S_B^2 e^(-S_B)/2 + S_B^3 e^(-2 S_B)/6 with S_B = ln(omega)."""
    return _equiprob_expansion(omega, nterms, +1.0)
