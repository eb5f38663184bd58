"""Closed-form bounds for the path-space Ornstein-Uhlenbeck spectral gap.

Everything here is an explicit function of a curvature window (k1, k2) and a
time horizon T:

* ``lambda_profile(t, T, cb)`` -- the weight Lambda(t, T) that bounds the
  damped-gradient energy density by the usual-gradient energy density.
* ``lambda_sup`` / ``psi`` -- two closed forms for the log-Sobolev constant
  C(T, k1, k2) = sup_t Lambda(t, T); the spectral gap is bounded below by
  their reciprocals.
* ``gap_bounds_small_time`` -- the first-order small-horizon envelope
  (1 - k1*T/2, 1 + k2(x)*T/2).

The k1/k2 -> 0/0 degeneracy is handled by switching to analytic limits when
|k2|*T falls below ``K2_SWITCH``; all 1 - exp(-x) factors use expm1.
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
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError("curvature bounds must be finite")
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if self.k1 + self.k2 < 0:
            raise ValueError(f"k1 + k2 must be >= 0, got {self.k1 + self.k2}")
        if self.k2 > self.k1:
            raise ValueError(f"k2 must be <= k1, got k2={self.k2} > k1={self.k1}")


def _require_horizon(T: float) -> float:
    T = float(T)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    return T


def _degenerate_k2(T: float, cb: CurvatureBounds) -> bool:
    return abs(cb.k2) * T < K2_SWITCH


def lambda_profile(t: float, T: float, cb: CurvatureBounds) -> float:
    """Weight Lambda(t, T) comparing damped to usual gradient energy.

    Closed form in exponentials of k2/2; for |k2|*T below the switch the
    analytic k2->0 limit 1 + k1*T/2 + k1^2*(T*t/4 - t^2/8) is used, with the
    first-order k2 correction retained for continuity.
    """
    T = _require_horizon(T)
    t = float(t)
    if t < 0 or t > T:
        raise ValueError(f"t must lie in [0, T]=[0, {T}], got {t}")
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return 1.0
    if _degenerate_k2(T, cb):
        lim = 1.0 + k1 * T / 2 + k1 * k1 * (T * t / 4 - t * t / 8)
        corr = -k2 * (k1 * ((T - t) ** 2 + t * t) / 8 + k1 * k1 * T * T * t / 16)
        return lim + corr
    b = k1 / k2
    a = k2 / 2
    f_right = -math.expm1(-a * (T - t))   # 1 - e^{-k2 (T-t)/2}
    f_left = -math.expm1(-a * t)          # 1 - e^{-k2 t/2}
    # tail = (1 - e^{-k2 t/2}) + (e^{-k2(T+t)/2} - e^{-k2(T-t)/2})/2.  The two
    # contributions cancel to O(k2^2) while b^2 ~ k2^{-2} blows the roundoff
    # up, so rewrite via 1 - e^{-u} = 2 e^{-u/2} sinh(u/2) and
    # e^{-u/2} - cosh(u/2) = -sinh(u/2):
    #   tail = -2 sinh(a t/2) (sinh(a t/2) + expm1(-a T) cosh(a t/2))
    # which is cancellation-free.  Fall back to the direct form when the
    # hyperbolics would overflow (no cancellation there).
    if abs(a) * T < 100.0:
        half = 0.5 * a * t
        tail = -2.0 * math.sinh(half) * (
            math.sinh(half) + math.expm1(-a * T) * math.cosh(half)
        )
    else:
        tail = f_left - math.exp(-a * T) * math.sinh(a * t)
    return 1.0 + b * (f_right + f_left) + b * b * tail


def lambda_prime(t: float, T: float, cb: CurvatureBounds) -> float:
    """Closed-form d/dt of ``lambda_profile`` at fixed horizon."""
    T = _require_horizon(T)
    t = float(t)
    if t < 0 or t > T:
        raise ValueError(f"t must lie in [0, T]=[0, {T}], got {t}")
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return 0.0
    a = k2 / 2
    # (k1/2)(e^{-a t} - e^{-a(T-t)}) through expm1: both exponentials are
    # ~1 for small |a| T and their difference is O(a)
    lin = (k1 / 2) * (math.expm1(-a * t) - math.expm1(-a * (T - t)))
    if _degenerate_k2(T, cb):
        # only the k1^2/(8a) term is 0/0; keep its first-order k2 term
        return lin + k1 * k1 * ((T - t) / 4 - k2 * T * T / 16)
    e_left = math.exp(-a * t)
    # 2 e^{-a t} - e^{-a(T+t)} - e^{-a(T-t)} = 2(e^{-a t} - e^{-a T} cosh(a t));
    # with e^{-x} - cosh(x) = -sinh(x) this becomes cancellation-free (the
    # k1^2/(8a) prefactor amplifies roundoff for small k2 otherwise).
    if abs(a) * T < 100.0:
        pair = -2.0 * (math.sinh(a * t) + math.expm1(-a * T) * math.cosh(a * t))
    else:
        pair = 2.0 * (e_left - math.exp(-a * T) * math.cosh(a * t))
    return lin + (k1 * k1 / (8 * a)) * pair


def lambda_argmax(T: float, cb: CurvatureBounds, return_kind: bool = False):
    """Maximizer of t -> Lambda(t, T) on [0, T].

    For k2 > 0 (and k1 > 0) the maximum sits at the interior root of
    Lambda' given in log-closed form; for k2 <= 0 the profile is
    nondecreasing and for k1 = 0 it is constant, so T is returned with kind
    ``"boundary"`` / ``"degenerate"``.  With ``return_kind`` the pair
    ``(t_star, kind)`` is returned, kind in {"interior", "boundary",
    "degenerate"}.
    """
    T = _require_horizon(T)
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return (T, "degenerate") if return_kind else T
    if k2 <= 0.0:
        return (T, "boundary") if return_kind else T
    # exp(k2 t0 / 2) = sqrt(1 + (b/(2+b)) (1 - e^{-k2 T/2})) * exp(k2 T / 4)
    b = k1 / k2
    x = (b / (2.0 + b)) * (-math.expm1(-k2 * T / 2))
    t0 = T / 2 + math.log1p(x) / k2
    t0 = min(max(t0, 0.0), T)
    return (t0, "interior") if return_kind else t0


def lambda_sup(T: float, cb: CurvatureBounds) -> float:
    """sup_t Lambda(t, T): the log-Sobolev constant C(T, k1, k2).

    k2 > 0 uses the interior-maximum closed form; k2 < 0 the right-endpoint
    value 1/2 + (1 + (k1/k2)(1 - e^{-k2 T/2}))^2 / 2; 0 <= k2 < K2_SWITCH/T
    the limit 1 + k1*T/2 + (k1*T)^2/8 plus its first-order k2 term (see
    ``_degenerate_sup``).
    """
    T = _require_horizon(T)
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return 1.0
    if k2 < 0.0:
        # no cancellation for any k2 < 0; a k2 -> 0 limit would drop the
        # first-order k2 term that lambda_profile keeps
        base = 1.0 + k1 * (-math.expm1(-k2 * T / 2)) / k2
        return 0.5 + 0.5 * base * base
    if _degenerate_k2(T, cb):
        return _degenerate_sup(T, k1, k2)
    # interior-maximum closed form: (1+b)^2 minus two positive terms.  The
    # direct subtraction loses ~b^2 * eps absolutely (catastrophic for small
    # k2 where b ~ 1/k2), so evaluate through the conjugate: with the exact
    # reduction (1+b)^4 - (a1 + a2)^2 = n_stable - (a1 - a2)^2 where
    # n_stable = 1 + 4b + 2b^2 + b^2 (2+b) f (2 + b f) is a sum of positive
    # terms (a1 = a2 analytically; their computed difference is roundoff).
    b = k1 / k2
    f = -math.expm1(-k2 * T / 2)
    s = math.sqrt(1.0 + (b / (2.0 + b)) * f)
    e = math.exp(-k2 * T / 4)
    a1 = (b + b * b / 2) * s * e
    a2 = (b + b * b - (b * b / 2) * (1.0 - f)) * e / s
    n_stable = 1.0 + 4.0 * b + 2.0 * b * b + b * b * (2.0 + b) * f * (2.0 + b * f)
    return (n_stable - (a1 - a2) ** 2) / ((1.0 + b) ** 2 + a1 + a2)


def _degenerate_sup(T: float, k1: float, k2: float) -> float:
    """sup_t Lambda(t, T) for 0 <= k2 with k2*T below the switch.

    The k2 -> 0 profile peaks at t = T with zero slope, so to first order in
    k2 the supremum is Lambda(T, T): the limit plus its first-order k2 term.
    The maximizer moves inside by O(k2), which changes the value only at
    second order.  At k2 = 0 the correction is a signed zero and the limit
    is returned unchanged.
    """
    return 1.0 + k1 * T / 2 + (k1 * T) ** 2 / 8 - k2 * (k1 * T * T / 8 + k1 * k1 * T**3 / 16)


def psi(T: float, cb: CurvatureBounds) -> float:
    """Closed-form upper bound for the inverse spectral gap.

    Algebraically equal to ``lambda_sup`` (the arithmetic-geometric step it
    is derived from is tight at the maximizer) but evaluated through its own
    published expression; both are reported because both appear as "the"
    constant in different displays.
    """
    T = _require_horizon(T)
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return 1.0
    if k2 < 0.0:
        base = 1.0 + k1 * (-math.expm1(-k2 * T / 2)) / k2
        return 0.5 + 0.5 * base * base
    if _degenerate_k2(T, cb):
        return _degenerate_sup(T, k1, k2)
    # conjugate evaluation of (1+b)^2 - b sqrt(inner) e^{-k2 T/4}: the
    # numerator (1+b)^4 - b^2 inner e^{-k2 T/2} reduces exactly to a sum of
    # positive terms, avoiding the b^2-amplified cancellation near k2 = 0
    b = k1 / k2
    f = -math.expm1(-k2 * T / 2)
    inner = (2.0 + b) * (2.0 + b + b * f)  # 2 + 2b - b e^{-k2 T/2} = 2 + b + b f
    root = b * math.sqrt(inner) * math.exp(-k2 * T / 4)
    n_stable = 1.0 + 4.0 * b + 2.0 * b * b + b * b * (2.0 + b) * f * (2.0 + b * f)
    return n_stable / ((1.0 + b) ** 2 + root)


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


def lambda_integral(t: float, T: float, cb: CurvatureBounds) -> float:
    """Antiderivative L(t) = integral_0^t Lambda(tau, T) dtau, closed form.

    Used by the pathwise inequality verifier to integrate the right-hand
    side exactly over grid cells.
    """
    T = _require_horizon(T)
    t = float(t)
    if t < 0 or t > T:
        raise ValueError(f"t must lie in [0, T]=[0, {T}], got {t}")
    k1, k2 = cb.k1, cb.k2
    if k1 == 0.0:
        return t
    if _degenerate_k2(T, cb):
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
    e_T = math.exp(-a * T)
    term_right = (b / a) * (math.exp(-a * (T - t)) - e_T)
    term_left = ((b + b * b) / a) * (-math.expm1(-a * t))
    term_cosh = (b * b / a) * e_T * (math.cosh(a * t) - 1.0)
    return (1.0 + b) ** 2 * t - term_right - term_left - term_cosh


def gap_bounds_small_time(T: float, cb: CurvatureBounds, k2_at_x: float) -> tuple[float, float]:
    """First-order small-horizon envelope for the spectral gap.

    Returns ``(1 - k1*T/2, 1 + k2_at_x*T/2)`` where ``k2_at_x`` is the
    lower Ricci bound at the starting point.  Valid as an asymptotic
    statement for T -> 0; no smallness of T is enforced here.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    return 1.0 - cb.k1 * T / 2, 1.0 + float(k2_at_x) * T / 2


@dataclass(frozen=True)
class BoundReport:
    """All closed-form quantities for one (T, k1, k2) configuration."""

    T: float
    k1: float
    k2: float
    lambda_at_0: float
    lambda_at_T: float
    t_star: float
    t_star_kind: str
    lambda_sup: float
    psi: float
    gap_lower_from_sup: float
    gap_lower_from_psi: float


def bound_report(T: float, cb: CurvatureBounds) -> BoundReport:
    """Evaluate every closed-form quantity at once."""
    T = _require_horizon(T)
    lam0 = lambda_profile(0.0, T, cb)
    lamT = lambda_profile(T, T, cb)
    t_star, kind = lambda_argmax(T, cb, return_kind=True)
    sup_val = lambda_sup(T, cb)
    psi_val = psi(T, cb)
    report = BoundReport(
        T=T,
        k1=cb.k1,
        k2=cb.k2,
        lambda_at_0=lam0,
        lambda_at_T=lamT,
        t_star=t_star,
        t_star_kind=kind,
        lambda_sup=sup_val,
        psi=psi_val,
        gap_lower_from_sup=1.0 / sup_val,
        gap_lower_from_psi=1.0 / psi_val,
    )
    # An inf, or the nan of inf - inf, means k1 * T or k2 * T overflowed.
    if not all(map(math.isfinite, (lam0, lamT, sup_val, psi_val))):
        raise OverflowError(f"the closed forms overflow at T={T}, k1={cb.k1}, k2={cb.k2}")
    # Ordering sanity (slack covers roundoff between independent code paths).
    slack = 1e-9 * max(1.0, sup_val)
    if not (1.0 - slack <= lam0 <= sup_val + slack and lamT <= sup_val + slack):
        raise AssertionError(f"inconsistent bound report: {report}")
    return report
