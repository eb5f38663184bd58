"""Shared test helpers: high-precision oracles and synthetic curvature data.

The oracle layer deliberately re-derives every quantity independently of the
package (mpmath for closed forms, brute-force quadrature, golden-section
search and bracketed roots of the derivative for extrema), so agreement is
meaningful.
"""

import mpmath as mp
import numpy as np
import pytest

import pathgap as pg

mp.mp.dps = 40


def lambda_mp(t, T, k1, k2):
    """Weight profile evaluated in 40-digit arithmetic, straight from the
    exponential form (no expm1 tricks, no switch)."""
    t, T, k1, k2 = map(mp.mpf, (t, T, k1, k2))
    if k1 == 0:
        return mp.mpf(1)
    if k2 == 0:
        return 1 + k1 * T / 2 + k1**2 * (T * t / 4 - t * t / 8)
    b = k1 / k2
    term1 = b * (1 - mp.e ** (-k2 * (T - t) / 2))
    term2 = b * (1 - mp.e ** (-k2 * t / 2))
    term3 = b * b * (
        (1 - mp.e ** (-k2 * t / 2))
        + (mp.e ** (-k2 * (T + t) / 2) - mp.e ** (-k2 * (T - t) / 2)) / 2
    )
    return 1 + term1 + term2 + term3


def lambda_prime_mp(t, T, k1, k2):
    """d lambda_mp / dt in 40-digit arithmetic, term by term from the same
    exponential form (b k2 / 2 = k1 / 2)."""
    t, T, k1, k2 = map(mp.mpf, (t, T, k1, k2))
    if k1 == 0:
        return mp.mpf(0)
    if k2 == 0:
        return k1**2 * (T - t) / 4
    b = k1 / k2
    e_t, e_rest = mp.e ** (-k2 * t / 2), mp.e ** (-k2 * (T - t) / 2)
    return k1 / 2 * (e_t - e_rest) + b * k1 / 2 * (e_t - (mp.e ** (-k2 * (T + t) / 2) + e_rest) / 2)


def argmax_mp(T, k1, k2):
    """40-digit maximizer of lambda_mp(., T, k1, k2) on [0, T].

    For k2 > 0 lambda is strictly concave with lambda'(0) > 0 > lambda'(T),
    so the maximizer is the root of lambda' bracketed by [0, T].  A window
    with lambda'(T) > 0 gives T, the maximizer where lambda' > 0 throughout
    (k2 < 0).
    """
    if lambda_prime_mp(T, T, k1, k2) > 0:
        return mp.mpf(T)
    return mp.findroot(lambda t: lambda_prime_mp(t, T, k1, k2), (0, T), solver="anderson")


def lambda_integral_mp(t, T, k1, k2):
    """integral_0^t lambda_mp(tau, T, k1, k2) dtau by mpmath quadrature."""
    return mp.quad(lambda tau: lambda_mp(tau, T, k1, k2), [0, t])


def golden_max(f, lo, hi, tol):
    """Golden-section maximization; works on mpmath callables."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    invphi = (mp.sqrt(5) - 1) / 2
    invphi2 = (3 - mp.sqrt(5)) / 2
    a, b = lo, hi
    h = b - a
    c, d = a + invphi2 * h, a + invphi * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    return (a + b) / 2


def admissible_params(rng, n, k_scale=3.0, t_range=(0.1, 3.0)):
    """Random admissible (k1, k2, T) triples away from the k2 ~ 0 switch."""
    out = []
    while len(out) < n:
        k1 = rng.uniform(0.0, k_scale)
        k2 = rng.uniform(-k1, min(k1, k_scale))
        T = rng.uniform(*t_range)
        if abs(k2) * T < 1e-5:  # keep clear of the analytic-switch region
            continue
        out.append((k1, k2, T))
    return out


def smooth_ricci(dim, seed, amplitude=1.0):
    """Random smooth non-symmetric Ricci path plus a tight declared window.

    Returns (manifold, declared): sym part is a rotating diagonal, plus a
    small antisymmetric part; the window is measured on a dense grid.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.4, 0.8, size=dim) * amplitude
    wob = rng.uniform(0.1, 0.4, size=dim) * amplitude
    freq = rng.uniform(0.5, 3.0, size=dim)
    phase = rng.uniform(0, 2 * np.pi, size=dim)
    skew = rng.uniform(-0.3, 0.3, size=(dim, dim)) * amplitude
    skew = skew - skew.T
    rot_freq = rng.uniform(0.2, 1.5)

    def ric_batch(ts):
        """The Ricci matrices at the times ``ts``, (n, dim, dim)."""
        ts = np.asarray(ts, dtype=float)
        diag = base + wob * np.sin(freq * ts[:, None] + phase)
        c, s = np.cos(rot_freq * ts), np.sin(rot_freq * ts)
        rot = np.tile(np.eye(dim), (ts.size, 1, 1))
        rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, -s, s, c
        # rot diag(d) rot^T, with diag(d) applied as a column scaling
        sym = (rot * diag[:, None, :]) @ np.swapaxes(rot, 1, 2)
        return sym + np.sin(1.3 * ts)[:, None, None] * skew

    def ric(t):
        return ric_batch([t])[0]

    # window measured on a dense grid; the pad covers excursions between
    # grid samples (curvature of the trig profiles is O(amplitude))
    pad = 1e-4 * max(amplitude, 0.1)
    mats = ric_batch(np.linspace(0.0, 4.0, 4001))
    sym = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    k2 = float(np.linalg.eigvalsh(sym)[:, 0].min()) - pad
    k1 = float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max()) + pad
    if k1 + k2 < 0:  # admissibility can fail for very negative sym parts
        raise ValueError("generated ricci path is inadmissible; change the seed")
    return pg.synthetic_ricci_path(dim, ric), pg.CurvatureBounds(k1, k2)


def stiff_ricci():
    """Rapidly rotating 3x3 Ricci path for convergence-order measurements.

    Mild problems reach the roundoff floor before n = 2048; this one keeps
    the RK4 error measurable across the whole refinement ladder.
    """

    def ric(t):
        c, s = np.cos(3.0 * t), np.sin(3.0 * t)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        diag = np.diag(
            [2.0 + 1.5 * np.sin(5.0 * t), -1.0 + 2.0 * np.cos(4.0 * t), 3.0 * np.sin(6.0 * t + 1.0)]
        )
        skew = np.array([[0.0, 1.2, -0.7], [-1.2, 0.0, 0.9], [0.7, -0.9, 0.0]]) * np.cos(5.5 * t)
        return rot @ diag @ rot.T + skew

    ts = np.linspace(0.0, 1.0, 8001)
    mats = np.array([ric(t) for t in ts])
    sym = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    k2 = float(np.linalg.eigvalsh(sym)[:, 0].min()) - 1e-3
    k1 = float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max()) + 1e-3
    return pg.synthetic_ricci_path(3, ric), pg.CurvatureBounds(k1, max(k2, -k1))


def spectral_norms(mats):
    """Operator (2-)norms of a stack of small matrices, vectorized.

    Uses closed-form eigenvalues of M^T M for d = 2, whose Gram entries are
    elementwise products of the columns, and eigvalsh otherwise.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] == 2:
        a, b, c, d = (mats[..., i, j] for i in (0, 1) for j in (0, 1))
        g00, g11, g01 = a * a + c * c, b * b + d * d, a * b + c * d
        tr = g00 + g11
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * (g00 * g11 - g01 * g01), 0.0))
        return np.sqrt(0.5 * (tr + disc))
    return np.sqrt(np.linalg.eigvalsh(np.einsum("...ki,...kj->...ij", mats, mats))[..., -1])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20_240_803)
