"""Small dense linear-algebra kernel.

The toolkit runs on plain ``numpy`` arrays and numpy's linear algebra alone;
this module adds the validated entry points and the few primitives the rest
of the code relies on: an SVD numeric rank, a Cholesky-based SPD inverse, a
finite matrix-power decay certificate that certifies Schur stability, and
spectral bounds widened by an explicit backward-error margin.

All dimensions in this toolkit are tiny: ``build_model`` accepts at most
n = 3 states (the zonotope facet form exists for dim <= 3 only), and inputs
and horizons are small too, so dense algorithms are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FactorizationError

DEFAULT_RANK_TOL = 1e-10
# Multiple of n eps ||a|| that widens computed eigen- and singular values.
BACKWARD_ERROR_FACTOR = 4.0


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


def numeric_rank(a, tol=DEFAULT_RANK_TOL):
    """Numeric rank: the number of singular values above tol times the largest."""
    a = as_matrix(a, "a")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0]))


def _require_symmetric(h, name):
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    if not np.allclose(h, h.T, atol=1e-10 * max(1.0, np.abs(h).max(initial=0.0)), rtol=0.0):
        raise FactorizationError(f"{name} is not symmetric")


def spd_inverse(h, name="matrix"):
    """Symmetrised inverse of a symmetric positive definite matrix from its
    Cholesky factor. ``np.linalg.cholesky`` reads one triangle only, so symmetry
    is checked first; ``FactorizationError`` if h is not symmetric or not PD."""
    h = as_matrix(h, name)
    _require_symmetric(h, name)
    try:
        linv = np.linalg.inv(np.linalg.cholesky(h))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{name} is not positive definite") from exc
    inv = linv.T @ linv
    return 0.5 * (inv + inv.T)


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


def _backward_error(a):
    """Bound on the backward error of a dense eigen- or singular-value solve.

    LAPACK returns the exact values of a + E with ||E||_2 <= c n eps ||a||_2
    for a modest c; ||a||_2 is bounded here by the Frobenius norm. By Weyl's
    theorem (and its analogue for singular values) each computed value is
    within ||E||_2 of the true one.
    """
    return BACKWARD_ERROR_FACTOR * max(a.shape) * np.finfo(float).eps * float(
        np.linalg.norm(a, "fro"))


def symmetric_eig_bounds(h):
    """Bounds (lo, hi) with lo <= lambda_min(h), lambda_max(h) <= hi.

    h must be symmetric. The extreme eigenvalues of its symmetric part are
    widened by the backward-error margin, so the bounds err on the
    conservative side (lo low, hi high).
    """
    h = as_matrix(h, "h")
    _require_symmetric(h, "matrix")
    ev = np.linalg.eigvalsh(0.5 * (h + h.T))
    margin = _backward_error(h)
    return float(ev[0] - margin), float(ev[-1] + margin)


def spectral_norm_upper(m):
    """Upper bound on the operator 2-norm of m: the largest singular value
    widened by the backward-error margin."""
    m = as_matrix(m, "m")
    return float(np.linalg.svd(m, compute_uv=False)[0] + _backward_error(m))
