"""Dense strictly convex QP solver (dual active-set method of Goldfarb-Idnani).

Solves  min 1/2 x'Hx + q'x  s.t.  A_in x <= b_in,  A_eq x = b_eq
for small dense problems with H positive definite. The dual method starts
from the unconstrained optimum and adds violated constraints one at a time,
so no feasible starting point is needed and the returned active set satisfies
complementary slackness exactly. Fully deterministic: ties break on the
lowest constraint index.

Everything that depends only on H and the constraint normals is computed once
per ``PrefactoredQp``: H^-1 (from the Cholesky factor, symmetrised), H^-1 C'
and the Gram matrix C H^-1 C' of the stacked normals C. Each GI iteration
then slices these and solves one system the size of the active set. A
problem with no inequality rows and full-row-rank equalities has a closed
form instead: its KKT inverse is precomputed and a solve is two matvecs.
Both paths report the same KKT residual and status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationError
from .matlin import as_matrix, as_vector, numeric_rank

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000

_EMPTY = None


def _cholesky(hessian):
    """Cholesky factor of a symmetric positive definite Hessian, or raise."""
    scale = max(1.0, float(np.abs(hessian).max(initial=0.0)))
    if not np.allclose(hessian, hessian.T, atol=1e-10 * scale, rtol=0.0):
        raise FactorizationError("hessian is not symmetric")
    try:
        return scipy.linalg.cho_factor(hessian, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError("hessian is not positive definite") from exc


@dataclass
class QpProblem:
    hessian: np.ndarray
    linear: np.ndarray
    ineq_normals: np.ndarray = _EMPTY
    ineq_offsets: np.ndarray = _EMPTY
    eq_normals: np.ndarray = _EMPTY
    eq_offsets: np.ndarray = _EMPTY

    def __post_init__(self):
        self.hessian = as_matrix(self.hessian, "hessian")
        self.linear = as_vector(self.linear, "linear")
        n = self.linear.size
        if self.hessian.shape != (n, n):
            raise DimensionMismatch("hessian shape does not match linear term")
        if self.ineq_normals is None:
            self.ineq_normals = np.zeros((0, n))
            self.ineq_offsets = np.zeros(0)
        else:
            self.ineq_normals = as_matrix(self.ineq_normals, "ineq_normals")
            self.ineq_offsets = as_vector(self.ineq_offsets, "ineq_offsets")
        if self.eq_normals is None:
            self.eq_normals = np.zeros((0, n))
            self.eq_offsets = np.zeros(0)
        else:
            self.eq_normals = as_matrix(self.eq_normals, "eq_normals")
            self.eq_offsets = as_vector(self.eq_offsets, "eq_offsets")
        for mat, off, label in (
            (self.ineq_normals, self.ineq_offsets, "ineq"),
            (self.eq_normals, self.eq_offsets, "eq"),
        ):
            if mat.shape[1] != n or mat.shape[0] != off.size:
                raise DimensionMismatch(f"{label} constraint dims inconsistent")
        _cholesky(self.hessian)

    @property
    def nvar(self):
        return self.linear.size


@dataclass
class QpSolution:
    x: np.ndarray
    kkt_residual: float
    status: str  # "optimal" | "infeasible" | "max_iter" | "non_finite"
    ineq_multipliers: np.ndarray = None
    eq_multipliers: np.ndarray = None


def solve_qp(p, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the QP. Status "optimal" guarantees KKT residual <= tol."""
    pre = PrefactoredQp(p.hessian, ineq_normals=p.ineq_normals, eq_normals=p.eq_normals)
    return pre.solve(p.linear, ineq_offsets=p.ineq_offsets, eq_offsets=p.eq_offsets,
                     tol=tol, max_iter=max_iter)


class PrefactoredQp:
    """Repeated QP solves sharing the Hessian and all constraint normals.

    Validates and factors once, and precomputes H^-1, H^-1 C' and C H^-1 C'
    for the stacked constraint normals C (equalities first, then the negated
    inequalities, all in ">=" form). Each ``solve`` supplies the linear term
    and the right-hand sides only; no factorization happens per solve.

    With no inequality rows and equality normals of full row rank, the KKT
    system has a unique solution for every right-hand side, so ``solve`` is
    the closed form [x; nu] = K_q q + K_b b_eq with the KKT inverse blocks
    precomputed. Otherwise (inequalities, or rank-deficient and possibly
    inconsistent equalities) it runs the GI iteration.
    """

    def __init__(self, hessian, ineq_normals=None, eq_normals=None):
        self.hessian = as_matrix(hessian, "hessian")
        n = self.hessian.shape[0]
        if self.hessian.shape != (n, n):
            raise DimensionMismatch("hessian must be square")
        cho = _cholesky(self.hessian)
        self.ineq_normals = (np.zeros((0, n)) if ineq_normals is None
                             else as_matrix(ineq_normals, "ineq_normals"))
        self.eq_normals = (np.zeros((0, n)) if eq_normals is None
                           else as_matrix(eq_normals, "eq_normals"))
        if self.ineq_normals.shape[1] != n or self.eq_normals.shape[1] != n:
            raise DimensionMismatch("constraint normals do not match the hessian")
        self.meq = self.eq_normals.shape[0]
        self.cn = np.vstack([self.eq_normals, -self.ineq_normals])
        hinv = scipy.linalg.cho_solve(cho, np.eye(n), check_finite=False)
        self.hinv = 0.5 * (hinv + hinv.T)
        self.hinv_cn = self.hinv @ self.cn.T
        gram = self.cn @ self.hinv_cn
        self.gram = 0.5 * (gram + gram.T)
        self.closed_form = (self.ineq_normals.shape[0] == 0
                            and numeric_rank(self.eq_normals) == self.meq)
        if self.closed_form:
            # x = -H^-1 q + M (b + E H^-1 q) and nu = -S (b + E H^-1 q), with
            # S = (E H^-1 E')^-1 and M = H^-1 E' S. Here C = E, so hinv_cn
            # is H^-1 E' and gram is E H^-1 E'.
            try:
                s = (scipy.linalg.cho_solve(scipy.linalg.cho_factor(self.gram),
                                            np.eye(self.meq))
                     if self.meq else np.zeros((0, 0)))
            except scipy.linalg.LinAlgError:
                self.closed_form = False  # too ill-conditioned; GI handles it
            else:
                m = self.hinv_cn @ s
                self.kkt_q = np.vstack([m @ self.hinv_cn.T - self.hinv, -m.T])
                self.kkt_b = np.vstack([m, -s])

    def solve(self, linear, ineq_offsets=None, eq_offsets=None,
              tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
        if tol <= 0:
            raise ValueError("tol must be positive")
        ineq_b = (np.zeros(self.ineq_normals.shape[0]) if ineq_offsets is None
                  else np.asarray(ineq_offsets, float))
        eq_b = (np.zeros(self.meq) if eq_offsets is None
                else np.asarray(eq_offsets, float))
        linear = np.asarray(linear, float)
        if self.closed_form:
            sol = self.kkt_q @ linear + self.kkt_b @ eq_b
            n = linear.size
            return self._assemble(linear, ineq_b, eq_b, sol[:n], np.zeros(0), sol[n:],
                                  "optimal", tol)
        cd = np.concatenate([eq_b, -ineq_b])
        x, active, mult, signs, status = _gi_core(self, -(self.hinv @ linear), cd,
                                                  tol, max_iter)
        lam = np.zeros(ineq_b.size)
        nu = np.zeros(self.meq)
        for j, u, sigma in zip(active, mult, signs):
            if j < self.meq:
                nu[j] = -u * sigma
            else:
                lam[j - self.meq] = u
        return self._assemble(linear, ineq_b, eq_b, x, lam, nu, status, tol)

    def _assemble(self, linear, ineq_b, eq_b, x, lam, nu, status, tol):
        """KKT residual of (x, lam, nu); an "optimal" above tol becomes "max_iter".

        A non-finite x or problem datum makes the residual NaN or inf, and the
        status "non_finite".
        """
        grad = self.hessian @ x + linear
        if ineq_b.size:
            grad += self.ineq_normals.T @ lam
        if self.meq:
            grad += self.eq_normals.T @ nu
        terms = [float(np.linalg.norm(grad))]
        if ineq_b.size:
            viol = self.ineq_normals @ x - ineq_b
            terms += [float(viol.max(initial=0.0)),
                      float(np.abs(lam * viol).max(initial=0.0)),
                      max(0.0, -float(lam.min(initial=0.0)))]
        if self.meq:
            terms.append(float(np.abs(self.eq_normals @ x - eq_b).max()))
        # max() skips a NaN that is not its first argument; the sum does not.
        total = sum(terms)
        res = max(terms) if total < np.inf else total
        if status == "optimal" and not res <= tol:
            status = "max_iter" if res < np.inf else "non_finite"
        return QpSolution(x=x, kkt_residual=res, status=status, ineq_multipliers=lam,
                          eq_multipliers=nu)


def _gi_core(qp, x, cd, tol, max_iter):
    """Dual active-set iteration from the unconstrained optimum ``x``.

    ``cd`` holds the right-hand sides of ``qp.cn x >= cd``. Step directions
    are slices of ``qp.hinv_cn`` and ``qp.gram``; each iteration solves one
    system the size of the active set. No validation.
    """
    cn, hinv_cn, gram, meq = qp.cn, qp.hinv_cn, qp.gram, qp.meq
    mineq = cd.size - meq
    cn_in, cd_in = cn[meq:], cd[meq:]
    active: list[int] = []
    mult: list[float] = []
    signs: list[float] = []  # working sign of each active row (equalities may flip)
    feas_scale = 1.0 + float(np.abs(cd).max()) if cd.size else 1.0
    drop_tol = 1e-11

    def directions(idx, sigma):
        # z = H^-1 n - H^-1 N r and r = (N' H^-1 N)^-1 N' H^-1 n, for the
        # signed new normal n = sigma c_idx and the signed active normals N.
        if not active:
            return sigma * hinv_cn[:, idx], ()
        act = np.array(active)
        s = np.array(signs)
        r = np.linalg.solve(gram[np.ix_(act, act)] * np.outer(s, s),
                            sigma * s * gram[act, idx])
        return sigma * hinv_cn[:, idx] - hinv_cn[:, act] @ (s * r), r

    pending_eq = list(range(meq))
    iters = 0
    while True:
        if pending_eq:
            idx = pending_eq.pop(0)
            slack = float(cn[idx] @ x - cd[idx])
            sigma = -1.0 if slack > 0 else 1.0
        else:
            if mineq:
                slacks = cn_in @ x - cd_in
                if active:
                    slacks[[j - meq for j in active if j >= meq]] = 0.0
                cand = int(np.argmin(slacks))
                if slacks[cand] >= -tol * 0.1:
                    return x, active, mult, signs, "optimal"
                idx, sigma = cand + meq, 1.0
            else:
                return x, active, mult, signs, "optimal"

        n_eff = sigma * cn[idx]
        d_eff = sigma * cd[idx]
        u_plus = 0.0
        while True:
            iters += 1
            if iters > max_iter:
                return x, active, mult, signs, "max_iter"
            z, r = directions(idx, sigma)
            ztn = float(n_eff @ z)
            slack = float(n_eff @ x - d_eff)
            if abs(slack) <= 1e-13 * feas_scale and ztn <= drop_tol and idx < meq:
                break  # redundant but consistent equality
            t1, block = np.inf, None
            for pos, j in enumerate(active):
                if j >= meq and r[pos] > drop_tol:
                    ratio = mult[pos] / r[pos]
                    if ratio < t1 - 1e-15:
                        t1, block = ratio, pos
            t2 = -slack / ztn if ztn > drop_tol else np.inf
            if not np.isfinite(t1) and not np.isfinite(t2):
                return x, active, mult, signs, "infeasible"
            step = min(t1, t2)
            if np.isfinite(t2):
                x = x + step * z
            for pos in range(len(mult)):
                mult[pos] -= step * r[pos]
            u_plus += step
            if t2 <= t1:
                active.append(idx)
                mult.append(u_plus)
                signs.append(sigma)
                break
            active.pop(block)
            mult.pop(block)
            signs.pop(block)


def polytope_is_empty(normals, offsets, tol=1e-9):
    """Exact emptiness test for {x : normals x <= offsets} via a feasibility QP."""
    normals = as_matrix(normals, "normals")
    offsets = as_vector(offsets, "offsets")
    prob = QpProblem(
        hessian=2.0 * np.eye(normals.shape[1]),
        linear=np.zeros(normals.shape[1]),
        ineq_normals=normals,
        ineq_offsets=offsets,
    )
    sol = solve_qp(prob)
    return sol.status == "infeasible"
