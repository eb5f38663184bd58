"""Closed-form bounds for the path-space Ornstein-Uhlenbeck spectral gap.

Everything here is an explicit function of a curvature window (k1, k2) and a
time horizon T:

* ``lambda_profile(t, T, cb)`` -- the weight Lambda(t, T) that bounds the
  damped-gradient energy density by the usual-gradient energy density.
* ``lambda_sup`` -- the log-Sobolev constant C(T, k1, k2) = sup_t
  Lambda(t, T), evaluated as the profile at its maximizer ``lambda_argmax``.
* ``psi`` -- the published closed form of the same constant, an independent
  cross-check of ``lambda_sup``; the gap is at least the reciprocal of either.
* ``gap_bounds_small_time`` -- the first-order small-horizon envelope
  (1 - k1*T/2, 1 + k2(x)*T/2).

Every exponential enters through E(s) = expm1(-k2*s/2).  With b = k1/k2,

    Lambda = 1 - b (E(T-t) + E(t)) + (b E(t)) (b (E(T-t) + E(T))) / 2

is a sum of nonnegative terms for either sign of k2, so it neither cancels
nor overflows unless Lambda itself does.  The 0/0 in b = k1/k2 is handled by
switching to analytic k2 -> 0 limits when |k2|*T falls below ``K2_SWITCH``.

Each public function checks its arguments once and raises ``ValueError`` on a
bad one; the private cores ``_profile``, ``_argmax``, ``_psi`` and
``_integral`` take checked floats and only do the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CurvatureBounds",
    "BoundReport",
    "K2_SWITCH",
    "lambda_profile",
    "lambda_prime",
    "lambda_argmax",
    "lambda_sup",
    "psi",
    "gap_bounds_small_time",
    "bound_report",
]

# Below this value of |k2|*T the closed forms lose too many digits to 0/0
# cancellation in k1/k2 terms; analytic k2->0 limits take over.
K2_SWITCH = 1e-6


@dataclass(frozen=True)
class CurvatureBounds:
    """Operator-norm upper bound k1 and symmetrized lower bound k2.

    k1 bounds the matrix norm of the Ricci action along the path, k2 bounds
    its symmetric part from below.  Admissibility: k1 >= 0, k1 + k2 >= 0 and
    k2 <= k1 (the norm bound always dominates the symmetric lower bound).
    Units of both are 1/time.
    """

    k1: float
    k2: float

    def __post_init__(self):
        if -self.k1 <= self.k2 <= self.k1 < math.inf:  # admissible; rejects nan
            return
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError("curvature bounds must be finite")
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if self.k1 + self.k2 < 0:
            raise ValueError(f"k1 + k2 must be >= 0, got {self.k1 + self.k2}")
        raise ValueError(f"k2 must be <= k1, got k2={self.k2} > k1={self.k1}")


def _require_horizon(T: float) -> float:
    T = float(T)
    if not 0.0 < T < math.inf:  # also rejects nan
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    return T


def _require_time(t: float, T: float) -> None:
    if not 0.0 <= t <= T:  # also rejects nan
        raise ValueError(f"t must lie in [0, T]=[0, {T}], got {t}")


def _profile(t: float, T: float, k1: float, k2: float) -> float:
    if k1 == 0.0:
        return 1.0
    if abs(k2) * T < K2_SWITCH:
        lim = 1.0 + k1 * T / 2 + k1 * k1 * (T * t / 4 - t * t / 8)
        corr = -k2 * (k1 * ((T - t) ** 2 + t * t) / 8 + k1 * k1 * T * T * t / 16)
        return lim + corr
    b = k1 / k2
    e_left, e_right = math.expm1(-k2 * t / 2), math.expm1(-k2 * (T - t) / 2)
    e_T = math.expm1(-k2 * T / 2)
    return 1.0 - b * (e_right + e_left) + 0.5 * (b * e_left) * (b * (e_right + e_T))


def lambda_profile(t: float, T: float, cb: CurvatureBounds) -> float:
    """Weight Lambda(t, T) comparing damped to usual gradient energy.

    The E(s) form of the module docstring; below the switch the k2->0 limit
    1 + k1*T/2 + k1^2*(T*t/4 - t^2/8) plus its first-order k2 correction.
    """
    T, t = float(T), float(t)
    if not (0.0 < T < math.inf and 0.0 <= t <= T):
        _require_time(t, _require_horizon(T))
    return _profile(t, T, cb.k1, cb.k2)


def lambda_prime(t: float, T: float, cb: CurvatureBounds) -> float:
    """Closed-form d/dt of ``lambda_profile`` at fixed horizon:

    (k1/2)(D + (b/2)(D - e^{-k2 t/2} E(T))) with D = E(t) - E(T-t).
    """
    T, t = float(T), float(t)
    if not (0.0 < T < math.inf and 0.0 <= t <= T):
        _require_time(t, _require_horizon(T))
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return 0.0
    # D is O(k2) for small |k2| T; through expm1 it keeps its digits
    diff = math.expm1(-k2 * t / 2) - math.expm1(-k2 * (T - t) / 2)
    if abs(k2) * T < K2_SWITCH:
        # only the k1^2/(4 k2) term is 0/0; keep its first-order k2 term
        return (k1 / 2) * diff + k1 * k1 * ((T - t) / 4 - k2 * T * T / 16)
    b = k1 / k2
    return (k1 / 2) * (diff + (b / 2) * (diff - math.exp(-k2 * t / 2) * math.expm1(-k2 * T / 2)))


def _argmax(T: float, k1: float, k2: float) -> float:
    if k1 == 0.0 or k2 <= 0.0:
        return T
    # k2 <= k1, so neither r nor its denominator can overflow
    r = 1.0 / (1.0 + 2.0 * (k2 / k1))
    if abs(k2) * T < K2_SWITCH:
        # log1p(-r E(T)) / k2 to first order in k2 T; r -> 1 puts t0 at T
        t0 = T / 2 + r * (T / 2) * (1.0 - k2 * T / 4) * (1.0 - r * k2 * T / 4)
    else:
        t0 = T / 2 + math.log1p(-r * math.expm1(-k2 * T / 2)) / k2
    return min(max(t0, 0.0), T)


def lambda_argmax(T: float, cb: CurvatureBounds) -> float:
    """Maximizer of t -> Lambda(t, T) on [0, T].

    For k2 > 0 the root of Lambda', e^{k2 (t - T/2)} = 1 - r E(T) with
    r = k1/(k1 + 2 k2), taken to first order in k2*T below the switch.  For
    k2 <= 0 the profile is nondecreasing and for k1 = 0 constant, so t = T.
    """
    if not 0.0 < (T := float(T)) < math.inf:
        _require_horizon(T)
    return _argmax(T, cb.k1, cb.k2)


def lambda_sup(T: float, cb: CurvatureBounds) -> float:
    """sup_t Lambda(t, T), the log-Sobolev constant C(T, k1, k2).

    The profile at ``lambda_argmax``; for k2 <= 0 that is the endpoint t = T.
    """
    if not 0.0 < (T := float(T)) < math.inf:
        _require_horizon(T)
    return _profile(_argmax(T, cb.k1, cb.k2), T, cb.k1, cb.k2)


def _psi(T: float, k1: float, k2: float) -> float:
    if abs(k2) * T < K2_SWITCH:
        # the k2 -> 0 profile peaks at t = T with zero slope: to first order
        # in k2 the supremum is the endpoint value (k1 = 0 forces k2 = 0)
        return _profile(T, T, k1, k2)
    if k2 < 0.0:
        base = 1.0 - k1 * math.expm1(-k2 * T / 2) / k2
        return 0.5 + 0.5 * base * base
    # conjugate evaluation of (1+b)^2 - b sqrt(inner) e^{-k2 T/4}: the
    # numerator (1+b)^4 - b^2 inner e^{-k2 T/2} reduces exactly to a sum of
    # positive terms, avoiding the b^2-amplified cancellation near k2 = 0
    b = k1 / k2
    f = -math.expm1(-k2 * T / 2)
    inner = (2.0 + b) * (2.0 + b + b * f)  # 2 + 2b - b e^{-k2 T/2} = 2 + b + b f
    root = b * math.sqrt(inner) * math.exp(-k2 * T / 4)
    n_stable = 1.0 + 4.0 * b + 2.0 * b * b + b * b * (2.0 + b) * f * (2.0 + b * f)
    return n_stable / ((1.0 + b) ** 2 + root)


def psi(T: float, cb: CurvatureBounds) -> float:
    """Closed-form upper bound for the inverse spectral gap.

    Algebraically equal to ``lambda_sup`` (the arithmetic-geometric step it
    is derived from is tight at the maximizer), but evaluated through its own
    published expression: the independent cross-check of ``lambda_sup``.

    For k2 > 0 the published form overflows before ``lambda_sup`` does: with
    b = k1/k2 and f = 1 - e^{-k2 T/2}, its b^4 f^2 term leaves the float
    range once b^2 f passes about 1.3e154 (at T = k2 = 1, k1 = 1e77 gives
    psi = 8.07e152 and k1 = 1e78 gives inf, while lambda_sup = 8.07e154).
    """
    if not 0.0 < (T := float(T)) < math.inf:
        _require_horizon(T)
    return _psi(T, cb.k1, cb.k2)


# 1/15!, 1/13!, ..., 1/3!: Taylor coefficients of sinh(x) - x, Horner order
_SINH_TAIL = tuple(1.0 / math.factorial(n) for n in range(15, 1, -2))


def _x_minus_sinh(x: float) -> float:
    """x - sinh(x); for |x| < 1/2 its Taylor series through x^15 (1e-18 relative)."""
    if abs(x) >= 0.5:
        return x - math.sinh(x)
    x2 = x * x
    acc = 0.0
    for c in _SINH_TAIL:
        acc = acc * x2 + c
    return -x * x2 * acc


def _integral(t: float, T: float, k1: float, k2: float) -> float:
    if k1 == 0.0:
        return t
    if abs(k2) * T < K2_SWITCH:
        lim = t + k1 * T * t / 2 + k1 * k1 * (T * t * t / 8 - t ** 3 / 24)
        return lim - k2 * (k1 * (T**3 - (T - t) ** 3 + t**3) / 24 + k1 * k1 * T * T * t * t / 32)
    b = k1 / k2
    a = k2 / 2
    if abs(k2) * T < 2.0:
        # The direct form below cancels (1+b)^2 t against terms of size b^2/a
        # ~ 1/k2^3.  Integrated term by term through expm1 and sinh, nothing
        # cancels while |a T| < 1; beyond that the e^x terms here would.
        x, y = a * t, a * T
        xs, em_y = _x_minus_sinh(x), math.expm1(-y)
        lin = 2.0 * xs - em_y * math.expm1(x)
        quad = xs - em_y * 2.0 * math.sinh(0.5 * x) ** 2
        return t + (b / a) * lin + (b * b / a) * quad
    # e^{-aT} cosh(a t) folded into exponentials that stay <= 1 for k2 > 0
    e_T, e_right = math.exp(-a * T), math.exp(-a * (T - t))
    term_right = (b / a) * (e_right - e_T)
    term_left = ((b + b * b) / a) * (-math.expm1(-a * t))
    term_cosh = (b * b / a) * (0.5 * (e_right + math.exp(-a * (T + t))) - e_T)
    return (1.0 + b) ** 2 * t - term_right - term_left - term_cosh


def lambda_integral(t: float, T: float, cb: CurvatureBounds) -> float:
    """Antiderivative L(t) = integral_0^t Lambda(tau, T) dtau, closed form.

    The pathwise inequality verifier integrates the right-hand side with it.
    """
    T, t = float(T), float(t)
    if not (0.0 < T < math.inf and 0.0 <= t <= T):
        _require_time(t, _require_horizon(T))
    return _integral(t, T, cb.k1, cb.k2)


def gap_bounds_small_time(T: float, cb: CurvatureBounds, k2_at_x: float) -> tuple[float, float]:
    """First-order small-horizon envelope for the spectral gap.

    Returns ``(1 - k1*T/2, 1 + k2_at_x*T/2)`` where ``k2_at_x`` is the
    lower Ricci bound at the starting point.  Valid as an asymptotic
    statement for T -> 0; no smallness of T is enforced here, and T = 0
    gives (1, 1).  An end that overflows raises ``OverflowError`` naming it.
    """
    if not 0.0 <= (T := float(T)) < math.inf:
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if not math.isfinite(k2_at_x := float(k2_at_x)):
        raise ValueError(f"k2_at_x must be finite, got {k2_at_x}")
    lo, hi = 1.0 - cb.k1 * T / 2, 1.0 + k2_at_x * T / 2
    for name, end in (("lower end 1 - k1*T/2", lo), ("upper end 1 + k2_at_x*T/2", hi)):
        if not math.isfinite(end):
            raise OverflowError(
                f"the small-time envelope's {name} is {end}: k1 = {cb.k1}, k2_at_x = {k2_at_x}, "
                f"T = {T}"
            )
    return lo, hi


@dataclass(frozen=True)
class BoundReport:
    """All closed-form quantities for one (T, k1, k2) configuration."""

    T: float
    k1: float
    k2: float
    lambda_at_0: float
    lambda_at_T: float
    t_star: float
    lambda_sup: float
    psi: float
    gap_lower_from_sup: float
    gap_lower_from_psi: float


def bound_report(T: float, cb: CurvatureBounds) -> BoundReport:
    """Evaluate every closed-form quantity at once, each of them once."""
    if not 0.0 < (T := float(T)) < math.inf:
        _require_horizon(T)
    k1, k2 = cb.k1, cb.k2
    lam0, lamT = _profile(0.0, T, k1, k2), _profile(T, T, k1, k2)
    t_star = _argmax(T, k1, k2)
    sup_val, psi_val = _profile(t_star, T, k1, k2), _psi(T, k1, k2)
    report = BoundReport(T, k1, k2, lam0, lamT, t_star, sup_val, psi_val, 1 / sup_val, 1 / psi_val)
    # An inf, or the nan of inf - inf, means k1 * T or k2 * T overflowed.
    if not all(map(math.isfinite, (lam0, lamT, sup_val))):
        raise OverflowError(f"the closed forms overflow at T={T}, k1={k1}, k2={k2}")
    if not math.isfinite(psi_val):
        raise OverflowError(f"psi's published form overflows at T={T}, k1={k1}, k2={k2} "
                            f"(lambda_sup = {sup_val:.6g}): for k2 > 0 it does once "
                            "(k1/k2)^2 (1 - e^(-k2 T/2)) passes about 1.3e154")
    # Ordering sanity (slack covers roundoff between independent code paths).
    slack = 1e-9 * max(1.0, sup_val)
    if not (1.0 - slack <= lam0 <= sup_val + slack and lamT <= sup_val + slack):
        raise AssertionError(f"inconsistent bound report: {report}")
    return report
