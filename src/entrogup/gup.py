"""From generalized-exponential coefficients to deformed uncertainty relations.

Writing a state's weight as ``exp(-H) * sum_j a_j H**j`` with ``H = k**2/2``
defines an effective Hamiltonian ``H_eff = H - ln(sum_j a_j H**j)``.  The
effective momentum is ``sqrt(2 H_eff)``; rescaled so its linear coefficient is
one, its cubic coefficient fixes the deformation parameter of the modified
commutator ``[x, p] = i (1 + alpha p**2)``:

    alpha0 = 3 (a1**2 - 2 a2) / (8 (1 - a1))    with  alpha = alpha0 / m_pl**2

``alpha0 > 0`` gives a minimal length ``sqrt(alpha)``; ``alpha0 < 0`` gives a
momentum cap ``1/sqrt(|alpha|)`` through the bounded relation
``p(k) = tanh(sqrt(|alpha|) k)/sqrt(|alpha|)``.
"""

from __future__ import annotations

import math
import sys

from ._value import Value, _integer
from .ansatz import AnsatzCoeffs
from .errors import NumericalError
from .series import (
    DEFAULT_ORDER,
    MAX_ORDER,
    TruncatedSeries,
    _ln_one_plus,
    _sqrt,
    exp_series,
    ln_one_plus,
)

__all__ = [
    "QEXP_PIPELINE_RATIO",
    "GupParams",
    "RegimeSummary",
    "PipelineReport",
    "effective_hamiltonian_series",
    "effective_momentum_series",
    "normalize_momentum",
    "deformation_closed",
    "deformation_pipeline",
    "tsallis_coeffs",
    "p_of_k",
    "k_of_p",
    "commutator_rhs",
    "uncertainty_lower_bound",
    "regime_summary",
]

# For q-exponential coefficients (a1 = 0, a2 = -(1-q)/2) the pipeline yields
# alpha0 = (3/8)(1-q), while the linear-order q-statistics estimate is (1-q)
# itself.  Both are reported; this is their fixed ratio.
QEXP_PIPELINE_RATIO = 3.0 / 8.0

# m_pl is kept where m_pl**2 is a normal float, so alpha0 / m_pl**2 neither
# divides by 0 nor loses digits to a subnormal divisor.
_M_PL_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))

# p_of_k and k_of_p are f(z)/sqrt(|alpha|) with z = sqrt(|alpha|) k and f one
# of tan, tanh, atan, atanh.  Below this |z|, f(z)/z = 1 +- z**2/3 + ... is 1
# to within a quarter ulp, so k itself is the correctly rounded result, while
# the formula would carry the rounding of z (and of libm's tanh, which can be
# an ulp off there).  This also takes in alpha = 0 and a z that underflows.
_UNIT_RATIO_Z = 2.0**-27


class GupParams(Value):
    """Dimensionless deformation ``alpha0`` and the scale ``m_pl`` it divides.

    ``alpha = alpha0 / m_pl**2`` and ``_sqrt_alpha = sqrt(|alpha|)``, the
    scale of the momentum maps and of the cap, are derived once here; they
    are not constructor arguments and stay out of repr, equality and hashing.
    """

    _fields = ("alpha0", "m_pl")

    def __init__(self, alpha0: float, m_pl: float = 1.0) -> None:
        if not math.isfinite(alpha0):
            raise ValueError(f"alpha0 must be finite, got {alpha0!r}")
        lo, hi = _M_PL_RANGE
        if not lo <= m_pl <= hi:
            raise ValueError(
                f"m_pl must lie in [{lo:.4g}, {hi:.4g}], where m_pl**2 is a normal "
                f"float, got {m_pl!r}"
            )
        alpha = alpha0 / (m_pl * m_pl)
        if not math.isfinite(alpha):
            raise ValueError(
                f"alpha = alpha0/m_pl**2 overflows for alpha0 = {alpha0!r}, "
                f"m_pl = {m_pl!r}"
            )
        vars(self).update(
            alpha0=alpha0, m_pl=m_pl, alpha=alpha, _sqrt_alpha=math.sqrt(abs(alpha))
        )


class RegimeSummary(Value):
    """Which deformation regime applies and its characteristic scale.

    ``regime`` is "minimal_length", "max_momentum", or "heisenberg".
    """

    _fields = ("alpha", "regime", "minimal_length", "max_momentum")


class PipelineReport(Value):
    """Every stage of the coefficient-to-deformation pipeline."""

    _fields = (
        "coeffs", "hamiltonian", "momentum", "momentum_normalized",
        "alpha0_pipeline", "alpha0_closed", "discrepancy",
    )


def effective_hamiltonian_series(
    coeffs: AnsatzCoeffs, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Series of ``H - ln(sum_j a_j H**j)`` in the wavenumber, ``H = k**2/2``.

    The expansion starts ``(1-a1)/2 k**2 + (a1**2 - 2 a2)/8 k**4 + ...``.
    ``order`` must be even and lie in ``[4, MAX_ORDER]``.

    Every term is a power of ``y = k**2``, so the series is built in ``y`` to
    order ``order/2`` and then spread onto the even powers of ``k``.
    """
    order = _integer(order, "order")
    if order < 4 or order % 2 != 0:
        raise ValueError(f"order must be an even integer >= 4, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must lie in [4, {MAX_ORDER}], got {order}")
    half = order // 2
    # sum_j a_j H**j is sum_j a_j 2**-j y**j; terms with j > order/2 start
    # above the truncation.
    tail = [math.ldexp(a, -j) for j, a in enumerate(coeffs.a[1 : half + 1], 1)]
    ln_w = _ln_one_plus([0.0, *tail] + [0.0] * (half - len(tail)))
    # 0.0 - c rather than -c: a zero coefficient stays +0, never -0.
    h_k = [0.0] * (order + 1)
    h_k[::2] = [0.0 - c for c in ln_w]
    h_k[2] += 0.5
    return TruncatedSeries(h_k)


def effective_momentum_series(h: TruncatedSeries) -> TruncatedSeries:
    """Odd series ``sqrt(2 h)`` for an even ``h`` with positive ``k**2`` term.

    With ``y = k**2``, ``sqrt(2 h) = k sqrt(2 h / k**2)``: the root is taken in
    ``y`` and placed on the odd powers of ``k``.
    """
    if h.coeffs[0] != 0.0 or any(c != 0.0 for c in h.coeffs[1::2]):
        raise ValueError("the effective Hamiltonian must be even with no constant term")
    if h.order < 2 or h.coeffs[2] <= 0.0:
        raise ValueError(
            "the k**2 coefficient must be positive (requires a1 < 1)"
        )
    root = _sqrt([2.0 * c for c in h.coeffs[2::2]])
    p_k = [0.0] * h.order
    p_k[1::2] = root
    return TruncatedSeries(p_k)


def normalize_momentum(p: TruncatedSeries) -> TruncatedSeries:
    """Rescale a momentum series so its linear coefficient is exactly 1."""
    if p.order < 1 or p.coeffs[1] == 0.0:
        raise ValueError("normalization needs a nonzero linear coefficient")
    lead = p.coeffs[1]
    return TruncatedSeries([c / lead for c in p.coeffs])


def deformation_closed(a1: float, a2: float) -> float:
    """Closed form ``alpha0 = 3 (a1**2 - 2 a2) / (8 (1 - a1))``."""
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("coefficients must be finite")
    if a1 == 1.0:
        raise ValueError("a1 = 1 makes the momentum normalization singular")
    # 3 (a1**2 - 2 a2) / (8 (1 - a1)) rescaled by powers of two, which keeps
    # its bits wherever it is finite, so that 2 a2 cannot overflow
    return 0.75 * (0.5 * a1 * a1 - a2) / (1.0 - a1)


def deformation_pipeline(
    coeffs: AnsatzCoeffs, order: int = DEFAULT_ORDER
) -> PipelineReport:
    """Run the full series pipeline and check it against the closed form.

    ``alpha0`` is three times the cubic coefficient of the normalized
    momentum series; for valid inputs it agrees with
    :func:`deformation_closed` to roundoff.

    Raises
    ------
    NumericalError
        Unless the two routes agree to ``1e-9 * max(1, |alpha0_closed|)``:
        ``1e-9`` absolute for ``|alpha0| <= 1``, relative above.  A NaN or
        infinite ``alpha0`` from either route fails the check.
    """
    a1 = coeffs.a[1] if coeffs.degree >= 1 else 0.0
    a2 = coeffs.a[2] if coeffs.degree >= 2 else 0.0
    if a1 >= 1.0:
        raise ValueError(f"a1 must be below 1 for a positive kinetic term, got {a1}")
    hamiltonian = effective_hamiltonian_series(coeffs, order)
    momentum = effective_momentum_series(hamiltonian)
    normalized = normalize_momentum(momentum)
    alpha0 = 3.0 * normalized.coeffs[3]
    closed = deformation_closed(a1, a2)
    discrepancy = abs(alpha0 - closed)
    # Written so that a NaN or an infinity on either side fails.
    if not (math.isfinite(closed) and discrepancy <= 1e-9 * max(1.0, abs(closed))):
        raise NumericalError(
            f"series pipeline and closed form disagree by {discrepancy:.3e}"
        )
    return PipelineReport(
        coeffs, hamiltonian, momentum, normalized, alpha0, closed, discrepancy
    )


def tsallis_coeffs(q: float, order: int = 4) -> AnsatzCoeffs:
    """Generalized-exponential coefficients of the q-exponential.

    Expands ``(1 - (1-q) x)**(1/(1-q))`` as ``exp(-x) * sum_j a_j x**j`` via
    series operations; the result has ``a1 = 0`` and ``a2 = -(1-q)/2``.
    At ``q = 1`` every coefficient beyond ``a0`` vanishes.  ``order`` must lie
    in ``[2, MAX_ORDER]``.
    """
    order = _integer(order, "order")
    if order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must lie in [2, {MAX_ORDER}], got {order}")
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if q == 1.0:
        return AnsatzCoeffs((1.0,) + (0.0,) * order, kind="tsallis", q=1.0)
    lam = 1.0 - q
    linear = TruncatedSeries((0.0, -lam) + (0.0,) * (order - 1))
    # ln(1 - lam x)/lam + x: the x terms cancel by construction, so the x slot
    # is set to 0 rather than summed (-lam * (1/lam) + 1 need not round to 0).
    log_part = ln_one_plus(linear) * (1.0 / lam)
    poly = exp_series(TruncatedSeries((0.0, 0.0) + log_part.coeffs[2:]))
    return AnsatzCoeffs(poly.coeffs, kind="tsallis", q=q)


# The momentum maps test their float() argument inline, with math.isfinite,
# and build this error only when they refuse it.
def _not_finite(name: str, value: float) -> ValueError:
    return ValueError(f"{name} must be finite, got {value!r}")


def p_of_k(params: GupParams, k: float) -> float:
    """Physical momentum as a function of the wavenumber.

    ``tan(sqrt(a) k)/sqrt(a)`` for ``a > 0`` (domain ``|k| < pi/(2 sqrt(a))``)
    and the tanh continuation for ``a < 0``; ``k`` itself where
    ``sqrt(|a|) |k|`` is below 2**-27, which takes in ``a = 0``.
    """
    k = float(k)
    if not math.isfinite(k):
        raise _not_finite("k", k)
    a, root = params.alpha, params._sqrt_alpha
    z = root * k
    if abs(z) < _UNIT_RATIO_Z:
        return k
    if a < 0.0:
        return math.tanh(z) / root
    if abs(z) >= 0.5 * math.pi:
        raise ValueError(
            f"|k| must stay below pi/(2 sqrt(alpha)) = {0.5 * math.pi / root:g}, "
            f"got {k!r}"
        )
    return math.tan(z) / root


def k_of_p(params: GupParams, p: float) -> float:
    """Wavenumber as a function of the physical momentum (inverse of p_of_k).

    ``arctan(sqrt(a) p)/sqrt(a)`` for ``a > 0`` and the artanh continuation for
    ``a < 0`` (domain ``|p| < 1/sqrt(|a|)``); ``p`` itself where
    ``sqrt(|a|) |p|`` is below 2**-27.
    """
    p = float(p)
    if not math.isfinite(p):
        raise _not_finite("p", p)
    a, root = params.alpha, params._sqrt_alpha
    z = root * p
    if abs(z) < _UNIT_RATIO_Z:
        return p
    if a > 0.0:
        return math.atan(z) / root
    if abs(z) >= 1.0:
        raise ValueError(
            f"|p| must stay below the momentum cap 1/sqrt(|alpha|) = {1.0 / root:g}, "
            f"got {p!r}"
        )
    return math.atanh(z) / root


def commutator_rhs(params: GupParams, p: float) -> float:
    """Deformation factor ``1 + alpha p**2`` of the position-momentum commutator.

    Raises ``NumericalError`` where the factor passes the largest float.
    """
    p = float(p)
    if not math.isfinite(p):
        raise _not_finite("p", p)
    value = 1.0 + params.alpha * p * p
    if math.isinf(value):
        raise NumericalError(f"1 + alpha p**2 overflows at p = {p!r}")
    return value


def uncertainty_lower_bound(params: GupParams, dp: float) -> float:
    """Lower bound ``(1 + alpha dp**2) / (2 dp)`` on the position uncertainty.

    Requires ``dp > 0``; for negative ``alpha`` also ``dp < 1/sqrt(|alpha|)``
    so the bound stays positive.  Raises ``NumericalError`` where the bound
    passes the largest float.
    """
    dp = float(dp)
    if not math.isfinite(dp):
        raise _not_finite("dp", dp)
    if dp <= 0.0:
        raise ValueError(f"the momentum spread must be positive, got {dp!r}")
    a = params.alpha
    if a < 0.0 and dp >= 1.0 / params._sqrt_alpha:
        raise ValueError(
            f"the momentum spread must stay below 1/sqrt(|alpha|) = "
            f"{1.0 / params._sqrt_alpha:g}, got {dp!r}"
        )
    bound = (1.0 + a * dp * dp) / (2.0 * dp)
    if not math.isfinite(bound):  # inf, or NaN where 2 dp overflows as well
        if dp >= 1.0:
            # only a dp**2 overflowed, and a > 0: 1/(2 dp) is 1/(a dp**2)
            # < 2**-1023 times a dp / 2, far below half an ulp of it
            bound = a * (0.5 * dp)
        if math.isinf(bound):
            raise NumericalError(f"the bound (1 + alpha dp**2)/(2 dp) overflows at dp = {dp!r}")
    return bound


def regime_summary(params: GupParams) -> RegimeSummary:
    """Characteristic scales of the deformation.

    Positive ``alpha`` has a minimal position uncertainty ``sqrt(alpha)``
    (attained at ``dp = 1/sqrt(alpha)``); negative ``alpha`` has a momentum
    cap ``1/sqrt(|alpha|)``; ``alpha = 0`` reports the undeformed relation.
    """
    a = params.alpha
    if a > 0.0:
        return RegimeSummary(a, "minimal_length", params._sqrt_alpha, None)
    if a < 0.0:
        return RegimeSummary(a, "max_momentum", None, 1.0 / params._sqrt_alpha)
    return RegimeSummary(0.0, "heisenberg", None, None)
