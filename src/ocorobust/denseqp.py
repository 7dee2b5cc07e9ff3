"""Dense strictly convex QP solver (dual active-set method of Goldfarb-Idnani).

Solves  min 1/2 x'Hx + q'x  s.t.  A_in x <= b_in,  A_eq x = b_eq
for small dense problems with H positive definite. The dual method starts
from the unconstrained optimum and adds violated constraints one at a time,
so no feasible starting point is needed and the returned active set satisfies
complementary slackness exactly. Fully deterministic: ties break on the
lowest constraint index.

``PrefactoredQp`` is the one entry point. It is built once, by the object that
owns the fixed matrices (H and the constraint normals), and each ``solve``
passes only the vectors that change: the linear term and the right-hand
sides. Everything that depends only on the fixed matrices is computed at
construction: H^-1 = L^-T L^-1 from the Cholesky factor H = L L' (numpy's,
symmetrised; ``matlin.spd_inverse``), H^-1 C', the Gram matrix C H^-1 C' of
the stacked normals C, and the KKT inverse of the equality rows alone. In a
closed loop the inequality rows rarely bind, so ``solve`` has one fast path:
the equality-constrained optimum, kept when no row binds and the KKT check
passes. When it fails on a solver with inequality rows only, GI's first
iteration (the most violated row made active) is tried from it; otherwise GI
runs cold. ``guess_row`` tests one guess under the fast path's rule (``solve``
uses it on its own) and ``guess_rows`` makes the guess for many linear terms
at once. No state is kept between solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FactorizationError
from .matlin import as_matrix, as_vector, numeric_rank, spd_inverse

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000


@dataclass
class QpSolution:
    x: np.ndarray
    kkt_residual: float
    status: str  # "optimal" | "infeasible" | "max_iter" | "non_finite"
    ineq_multipliers: np.ndarray = None
    eq_multipliers: np.ndarray = None


class PrefactoredQp:
    """Repeated QP solves sharing the Hessian and all constraint normals.

    Validates and factors once, and precomputes H^-1, H^-1 C' and C H^-1 C'
    for the stacked constraint normals C (equalities first, then the negated
    inequalities, all in ">=" form). Each ``solve`` supplies the linear term
    and the right-hand sides only; no factorization happens per solve.

    When the equality normals E have full row rank (as with no equalities),
    ``eq_optimum`` is True and the KKT inverse blocks of the equality rows
    alone are precomputed, so the equality-constrained optimum is the closed
    form [x; nu] = K_q q + K_b b_eq (with no equalities, x = -H^-1 q). ``solve``
    returns it when no inequality row is violated beyond GI's stopping test
    and the KKT check passes. With no equality rows and a violated row, it
    next tries GI's one-row step from it (``_one_row_step``). In every other
    case (two or more binding rows, or rank-deficient and possibly
    inconsistent equalities) it runs the GI iteration from the unconstrained
    optimum.
    """

    def __init__(self, hessian, ineq_normals=None, eq_normals=None):
        self.hessian = as_matrix(hessian, "hessian")
        self.hinv = spd_inverse(self.hessian, "hessian")
        n = self.hessian.shape[0]
        self.ineq_normals = (np.zeros((0, n)) if ineq_normals is None
                             else as_matrix(ineq_normals, "ineq_normals"))
        self.eq_normals = (np.zeros((0, n)) if eq_normals is None
                           else as_matrix(eq_normals, "eq_normals"))
        if self.ineq_normals.shape[1] != n or self.eq_normals.shape[1] != n:
            raise DimensionMismatch("constraint normals do not match the hessian")
        self.meq = self.eq_normals.shape[0]
        # Shared read-only zeros: omitted offsets and the guess's multipliers.
        self.no_ineq = _read_only_zeros(self.ineq_normals.shape[0])
        self.no_eq = _read_only_zeros(self.meq)
        self.cn = np.vstack([self.eq_normals, -self.ineq_normals])
        # One product gives the gradient's H x and every row residual.
        self.stacked = np.vstack([self.hessian, self.ineq_normals, self.eq_normals])
        self.hinv_cn = self.hinv @ self.cn.T
        gram = self.cn @ self.hinv_cn
        self.gram = 0.5 * (gram + gram.T)
        self.eq_optimum = numeric_rank(self.eq_normals) == self.meq
        self.kkt_q = -self.hinv  # x = -H^-1 q, with no equality rows
        if self.eq_optimum and self.meq:
            # x = -H^-1 q + M (b + E H^-1 q) and nu = -S (b + E H^-1 q), with
            # S = (E H^-1 E')^-1 and M = H^-1 E' S. The equality rows come
            # first in C, so H^-1 E' and E H^-1 E' are leading blocks.
            hinv_e = self.hinv_cn[:, :self.meq]
            try:
                s = spd_inverse(self.gram[:self.meq, :self.meq], "equality Gram block")
            except FactorizationError:
                self.eq_optimum = False  # too ill-conditioned; GI handles it
            else:
                m = hinv_e @ s
                self.kkt_q = np.vstack([m @ hinv_e.T - self.hinv, -m.T])
                self.kkt_b = np.vstack([m, -s])

    def solve(self, linear, ineq_offsets=None, eq_offsets=None,
              tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
        if tol <= 0:
            raise ValueError("tol must be positive")
        ineq_b = self.no_ineq if ineq_offsets is None else np.asarray(ineq_offsets, float)
        eq_b = self.no_eq if eq_offsets is None else np.asarray(eq_offsets, float)
        linear = np.asarray(linear, float)
        n = linear.size
        if self.eq_optimum:
            # With no equalities the guess is GI's own start point.
            sol = (self.kkt_q @ linear + self.kkt_b @ eq_b if self.meq
                   else self.kkt_q @ linear)
            x = sol[:n]
            guess = self.guess_row(linear, x, ineq_b, tol, eq_b, sol[n:])
            if guess is None and not self.meq and max_iter >= 1:
                guess = self._one_row_step(self.stacked @ x, linear, ineq_b, eq_b, x, tol)
            if guess is not None and guess.status == "optimal":
                return guess
        cd = np.concatenate([eq_b, -ineq_b])
        x, active, mult, signs, status = _gi_core(self, -(self.hinv @ linear), cd,
                                                  tol, max_iter)
        # NaN fails every ratio test in GI, so non-finite data usually ends
        # "infeasible"; name the actual cause.
        if status != "optimal" and not (np.logical_and.reduce(np.isfinite(linear))
                                        and np.logical_and.reduce(np.isfinite(cd))):
            status = "non_finite"
        lam = np.zeros(ineq_b.size)
        nu = np.zeros(self.meq)
        for j, u, sigma in zip(active, mult, signs):
            if j < self.meq:
                nu[j] = -u * sigma
            else:
                lam[j - self.meq] = u
        return self._assemble(self.stacked @ x, linear, ineq_b, eq_b, x, lam, nu, status,
                              tol)

    def guess_row(self, linear, x, ineq_offsets, tol=DEFAULT_TOL, eq_offsets=None, nu=None):
        """The fast path's test on one point: ``x`` (with the equality
        multipliers ``nu``) is the equality-constrained optimum of ``linear``,
        x = -H^-1 q on a solver with inequality rows only. Returns the point
        as ``solve`` would return it, kept when its status is "optimal", or
        None when a row fails GI's stopping test (``_equality_guess``).
        ``solve`` tests its own guess here; a caller that forms the optimum
        another way (``oco.QuadraticStepMap``) tests it under the same rule.
        """
        return self._equality_guess(self.stacked @ x, linear, ineq_offsets,
                                    self.no_eq if eq_offsets is None else eq_offsets, x,
                                    self.no_eq if nu is None else nu, tol)

    def _equality_guess(self, prod, linear, ineq_b, eq_b, x, nu, tol):
        """The equality-constrained optimum (x, nu) with zero inequality
        multipliers, as ``_assemble`` would return it with lam = 0; None when
        a row fails GI's stopping test (slack b - A x >= -0.1 tol).

        ``prod`` is ``stacked @ x``. One max and one min of the row slacks
        give the stopping test and the KKT terms: with lam = 0 the
        complementarity term is 0 * min(viol), NaN exactly when a row is NaN
        or -inf (a +inf row has failed the stopping test).
        """
        n, mineq = x.size, ineq_b.size
        terms = []
        if mineq:
            viol = prod[n:n + mineq] - ineq_b
            top = float(np.maximum.reduce(viol))
            if top > 0.1 * tol:
                return None
            terms += [max(top, 0.0), 0.0 * float(np.minimum.reduce(viol))]
        grad = prod[:n] + linear
        if self.meq:
            grad += self.eq_normals.T @ nu
            terms.append(float(np.maximum.reduce(np.abs(prod[n + mineq:] - eq_b))))
        res, status = _residual_status([math.sqrt(grad @ grad), *terms], "optimal", tol)
        return QpSolution(x=x, kkt_residual=res, status=status,
                          ineq_multipliers=self.no_ineq, eq_multipliers=nu)

    def _one_row_step(self, prod, linear, ineq_b, eq_b, x, tol):
        """GI's first iteration from the failed guess x (no equality rows):
        the most violated row j (the lowest index on ties, as GI's argmin)
        becomes active and x steps along z = H^-1 C_j' by t = -slack / z'C_j',
        with multiplier t. ``prod`` is ``stacked @ x``. Returns the point as
        ``_assemble`` checks it when every other row then passes GI's stopping
        test and z'C_j' is above GI's drop tolerance, else None.
        """
        n = x.size
        viol = prod[n:] - ineq_b
        j = int(np.argmax(viol))
        z = self.hinv_cn[:, j]
        ztn = float(self.cn[j] @ z)
        if not ztn > 1e-11:
            return None
        step = float(viol[j]) / ztn  # -slack / ztn, with slack = -viol
        x = x + step * z
        prod = self.stacked @ x
        viol = prod[n:] - ineq_b
        viol[j] = 0.0  # GI zeroes the active row's slack in its test
        if not float(np.maximum.reduce(viol)) <= 0.1 * tol:
            return None
        lam = np.zeros(ineq_b.size)
        lam[j] = step
        return self._assemble(prod, linear, ineq_b, eq_b, x, lam, self.no_eq, "optimal",
                              tol)

    def guess_rows(self, linears, ineq_offsets, tol=DEFAULT_TOL):
        """The fast path of ``solve`` for many linear terms at once, on a
        solver with inequality rows only: returns the unconstrained optimum
        x = -H^-1 q of each row q of ``linears`` and whether ``solve`` keeps
        it.

        One product per map gives every row's x, its stacked products and so
        its slacks and gradient. A row is kept under ``_equality_guess``'s
        rule: every slack passes GI's stopping test and every KKT term of the
        zero-multiplier point is within tol (``_residual_status`` says
        "optimal" exactly then), so a NaN or inf term rejects the row.
        """
        x = linears @ self.kkt_q.T
        prod = x @ self.stacked.T
        n = x.shape[1]
        viol = prod[:, n:] - ineq_offsets
        grad = prod[:, :n] + linears
        kept = ((np.maximum.reduce(viol, axis=1) <= 0.1 * tol)
                & (np.sqrt(np.einsum("ij,ij->i", grad, grad)) <= tol)
                & (0.0 * np.minimum.reduce(viol, axis=1) <= tol))
        return x, kept

    def _assemble(self, prod, linear, ineq_b, eq_b, x, lam, nu, status, tol):
        """KKT residual of (x, lam, nu); an "optimal" above tol becomes "max_iter".

        ``prod`` is ``stacked @ x``: H x, then the inequality and the equality
        rows. A non-finite x or problem datum makes the residual NaN or inf,
        and the status "non_finite".
        """
        n, mineq = x.size, ineq_b.size
        grad = prod[:n] + linear
        if mineq:
            grad += self.ineq_normals.T @ lam
        if self.meq:
            grad += self.eq_normals.T @ nu
        terms = [math.sqrt(grad @ grad)]
        if mineq:
            viol = prod[n:n + mineq] - ineq_b
            terms += [float(np.maximum.reduce(viol, initial=0.0)),
                      float(np.maximum.reduce(np.abs(lam * viol), initial=0.0)),
                      max(0.0, -float(np.minimum.reduce(lam, initial=0.0)))]
        if self.meq:
            terms.append(float(np.maximum.reduce(np.abs(prod[n + mineq:] - eq_b))))
        res, status = _residual_status(terms, status, tol)
        return QpSolution(x=x, kkt_residual=res, status=status, ineq_multipliers=lam,
                          eq_multipliers=nu)


def _read_only_zeros(size):
    out = np.zeros(size)
    out.flags.writeable = False
    return out


def _residual_status(terms, status, tol):
    """The KKT residual (the largest term) and the status it leaves."""
    # max() skips a NaN that is not its first argument; the sum does not.
    total = sum(terms)
    res = max(terms) if total < np.inf else total
    if status == "optimal" and not res <= tol:
        status = "max_iter" if res < np.inf else "non_finite"
    return res, status


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


def polytope_is_empty(normals, offsets):
    """Exact emptiness test for {x : normals x <= offsets} via a feasibility QP."""
    normals = as_matrix(normals, "normals")
    offsets = as_vector(offsets, "offsets")
    n = normals.shape[1]
    sol = PrefactoredQp(2.0 * np.eye(n), ineq_normals=normals).solve(
        np.zeros(n), ineq_offsets=offsets)
    return sol.status == "infeasible"
