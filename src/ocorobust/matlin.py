"""Small dense linear-algebra kernel.

Everything in the toolkit works on plain ``numpy`` arrays; this module adds
the validated entry points and the few nonstandard primitives the rest of the
code relies on: a pivoted-elimination numeric rank, and a finite matrix-power
decay certificate used in place of an eigensolver to certify Schur stability
and to bound symmetric spectra.

All dimensions in this toolkit are tiny (n <= ~64), so dense algorithms are
used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationError

DEFAULT_RANK_TOL = 1e-10


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float array and require finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(v, name="vector"):
    """Coerce to a 1-D float array and require finite entries."""
    x = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def matrix_power(a, k):
    """k-th power of a square matrix; a^0 is the identity."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix_power needs a square matrix, got {a.shape}")
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return np.linalg.matrix_power(a, int(k))


def numeric_rank(a, tol=DEFAULT_RANK_TOL):
    """Numeric rank via elimination with column pivoting.

    Pivots smaller than tol times the largest pivot count as zero.
    """
    a = as_matrix(a, "a")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.size == 0:
        return 0
    r = scipy.linalg.qr(a, mode="r", pivoting=True, check_finite=False)[0]
    pivots = np.abs(np.diag(r))
    if pivots.size == 0 or pivots[0] == 0.0:
        return 0
    return int(np.count_nonzero(pivots > tol * pivots[0]))


@dataclass(frozen=True)
class DecayCertificate:
    """Witness that the powers of a matrix decay below one in norm.

    ``bound`` is a certified upper bound on the operator 2-norm of a^k
    (the Frobenius norm of a^k). From it, geometric decay constants c_a and
    phi with ||a^t|| <= c_a * phi^t follow for all t.
    """

    k: int
    bound: float
    c_a: float
    phi: float


def power_norm_certificate(a, n_max=200):
    """Find the smallest k <= n_max with ||a^k|| < 1, or None.

    The operator 2-norm is bounded from above by the Frobenius norm, so a
    returned certificate is sufficient for Schur stability. Matrices with
    spectral radius extremely close to 1 may fail to certify within n_max.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"certificate needs a square matrix, got {a.shape}")
    norms = []
    p = a.copy()
    for k in range(1, int(n_max) + 1):
        nk = float(np.linalg.norm(p, "fro"))
        norms.append(nk)
        if nk < 1.0:
            # phi = 0 only for nilpotent matrices; any phi < 1 works then
            phi = nk ** (1.0 / k) if nk > 0.0 else 0.5
            c_a = 1.0
            for j, nj in enumerate(norms[:-1], start=1):
                c_a = max(c_a, nj / phi**j)
            return DecayCertificate(k=k, bound=nk, c_a=c_a, phi=phi)
        if not np.all(np.isfinite(p)):
            return None
        p = p @ a
    return None


def symmetric_eig_bounds(h, n_max=400, rel_tol=1e-4):
    """Certified bounds (lo, hi) with lo <= lambda_min(h), lambda_max(h) <= hi.

    h must be symmetric. Works by bisection on a shift s, certifying
    lambda_max < s through the power decay of the scaled matrix, which avoids
    a general eigensolver. Resolution is limited by n_max; bounds err on the
    conservative side (hi high, lo low).
    """
    h = as_matrix(h, "h")
    scale = max(1.0, float(np.abs(h).max()))
    if not np.allclose(h, h.T, atol=1e-10 * scale, rtol=0.0):
        raise FactorizationError("matrix is not symmetric")
    n = h.shape[0]
    fro = float(np.linalg.norm(h, "fro"))
    if fro == 0.0:
        return 0.0, 0.0

    def lam_max_upper(m, upper0):
        # Smallest s (up to bisection resolution) certifying all eigs of the
        # PSD matrix m lie below s.
        if upper0 <= 0.0:
            return 0.0
        lo_s, hi_s = 0.0, upper0 * (1.0 + 1e-12)
        for _ in range(60):
            mid = 0.5 * (lo_s + hi_s)
            if mid <= 0.0:
                break
            if power_norm_certificate(m / mid, n_max=n_max) is not None:
                hi_s = mid
            else:
                lo_s = mid
            if hi_s - lo_s <= rel_tol * max(hi_s, 1e-300):
                break
        return hi_s

    # Shift so the matrix is PSD: h + fro*I has eigs in [0, 2*fro].
    shift = fro
    hi = lam_max_upper(h + shift * np.eye(n), 2.0 * fro) - shift
    # lambda_min(h) = hi_bound - lambda_max(hi_bound*I - h).
    c = hi + rel_tol * max(abs(hi), 1.0)
    lo = c - lam_max_upper(c * np.eye(n) - h, c + fro)
    return float(lo), float(hi)


def spectral_norm_upper(m, n_max=400, rel_tol=1e-4):
    """Certified upper bound on the operator 2-norm of m."""
    m = as_matrix(m, "m")
    _, hi = symmetric_eig_bounds(m.T @ m, n_max=n_max, rel_tol=rel_tol)
    return float(np.sqrt(max(hi, 0.0)))
